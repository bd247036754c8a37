"""RV64 interpreter over RVTI images.

Two modes: "compat" executes every word architecturally (carriers are no-op
encodings and custom-opcode carriers fault, exactly as tag-unaware hardware
would behave); "aware" consumes carrier words as metadata and enforces the
image's policy.  Counters split retired instructions from carrier fetches so
dynamic overhead can be measured; the fetch budget, max_insns, bounds both.

Memory is three bytearray segments at tagplan's fixed bases, which every
Image gives as constants: text, data, and a stack that ends at STACK_TOP.
An access outside them is a MemFault.  Only text executes, as CFI assumes:
a fetch of anything but a whole text word (in data or the stack, past the
end, misaligned) is a BadInstruction at that pc.  Text is execute-only in
every mode: a program store to it is a MemFault, and only a CL label's
write-back changes a word of it, the label's payload, the one record of how
often the label ran.  The slot schedule is resolved once, at load, into a
pc -> tag dict where None marks a carrier: tagplan.slot_tags reads it in
aware mode, and compat mode marks only the carriers, one range per
tagplan.region_spans span.  Code runs as basic blocks of at most _BLOCK_WORDS
words, translated on entry and cached by entry pc once entered twice, a
loop's block from its first translation: closures with their operands bound,
constant counts, and one terminator that returns the next pc.  The cap keeps
the cache linear in text, however the entries into one long straight run
fall, and a block that would cross the fetch budget runs as the prefix of it
that fits.  Aware-mode carriers and x0 no-ops cost nothing, and each policy
check is an op or a checked form of its word, made at translation.  A load
to x0 writes nothing but still faults.

Hot blocks get a second tier, generated regions.  Every _SAMPLE_FETCHES
fetches, the block that crosses the mark is sampled, and a cached block
joins the open region with the path the run takes from it, which it traces
from its second sample until the path closes.  Up to _REGION_BLOCKS such
blocks, in the order they ran, run as the branches of one Python function: a
loop that tests each member's entry in turn, so that a member falls through
to the next, runs the member's body with every op, check and terminator
inlined and operands as literals, and adds its constant counts.  A region's
registers are locals, loaded on entry and stored in its finally, also past a
fault.  Each body is folded on what its member fixes: an immediate of 0
drops its + 0, and a register that the member sets from literals alone reads
as its value until its next other write, so an li or la pair is one literal.
A BCF site adds each edge's first take in a call to its edge dict, and
counts the repeats of the first of them in a local, which the region folds
into the dict at exit.  A CL label counts in a local too, which the region
folds into the label's word before each load that misses data and the stack,
the one access that reads text, and at exit.  A member's entry leads the run
loop into the region, which runs to the fetch budget: it returns at a pc
outside it, after a member that halts, or before a member that would cross
the budget.  The run loop then runs that block as it runs any other, and
samples it if the region ran past the mark.  A trace that would take the
open region past _REGION_BLOCKS leaves it as it is and opens the next, so a
full region is never remade, a block is a member of one live region at most,
and a loop wider than a region runs in a few.  A block whose region the
budget refused runs cold.  Regions are charged by the words they compile, at
most one per 64 fetched, so that compiling long blocks cannot take over a
run.  One handler counts what ran of the block or member that faults, in
either tier.  Generated source is kept by its shape, the forms and integers
it is built from, and compiled once per process, so a new machine pays only
to bind its own objects to the cached code.

Every instruction and every policy check has one body in _BODIES, which
builds every tier and names registers only as a, b and dest, and one
factory, which makes its op from the machine, the pc and the operands.  A
load or store tests its address against data, whose end is the machine's,
and the stack, and unpacks or packs in place on a hit; anything else calls
its machine's miss, which reads text and raises every MemFault.  A region
member fixing the address keeps only its branch.  The generated source
holds only fixed names, strings and integers that rvtag formats.
"""

from __future__ import annotations

import functools
import re
import struct
import sys
import types
from dataclasses import dataclass, field
from itertools import chain

from . import codec, tagplan
from .emitlink import Image
from .errors import RvtagError
from .tagplan import DATA_BASE, STACK_SIZE, STACK_TOP, TEXT_BASE

EXIT_SYSCALL = 93
WRITE_SYSCALL = 64

MASK64 = (1 << 64) - 1


class BadInstruction(RvtagError):
    """Fetched word is not a supported instruction, or pc is not a whole
    text word; pc is the fetch's."""

    def __init__(self, message: str, pc: int):
        super().__init__(message)
        self.pc = pc


class LimitExceeded(RvtagError):
    """Fetch budget (retired instructions plus carrier fetches) exhausted."""


class PolicyViolation(RvtagError):
    """Tag policy check failed; carries kind, pc, and a one-line detail."""

    def __init__(self, kind: str, pc: int, detail: str):
        super().__init__(f"{kind} at pc={pc:#x}: {detail}")
        self.kind = kind
        self.pc = pc
        self.detail = detail


@dataclass
class Memory:
    """The memory map: text, data, and a stack that ends at STACK_TOP."""

    text: bytearray
    data: bytearray
    stack: bytearray

    def __post_init__(self):
        self.segments = ((DATA_BASE, self.data), (STACK_TOP - len(self.stack), self.stack),
                         (TEXT_BASE, self.text))

    def read(self, addr: int, size: int) -> int:
        """The unsigned value of `size` bytes wholly inside one segment."""
        for base, segment in self.segments:
            if 0 <= addr - base <= len(segment) - size:
                return int.from_bytes(segment[addr - base:addr - base + size], "little")
        raise KeyError(f"{size} bytes at {addr:#x} are outside the memory map")


@dataclass
class MachineState:
    pc: int = 0
    regs: list = field(default_factory=lambda: [0] * 32)
    memory: Memory | None = None
    halted: bool = False
    exit_code: int = 0
    stop_reason: str = ""
    stdout: bytearray = field(default_factory=bytearray)


@dataclass
class ExecCounters:
    """Fetch counts of a run.  labels_seen counts every executed lui x0 word
    outside a carrier slot, whatever its tag, in both modes and in untagged
    images: compat mode reads no tags, and the modes must agree.  So a source
    `lui x0` counts, where Image.label_addrs lists only CFL and CL labels."""

    retired: int = 0
    tag_fetches: int = 0
    labels_seen: int = 0

    @property
    def total(self) -> int:
        return self.retired + self.tag_fetches


@dataclass
class PolicyState:
    """The policy a run enforces, its cfi labels in flight, and its CI and
    BCF counts.  The machine owns each BCF site's edge dict from the site's
    translation on, and a run lists in bcf, as it returns, the sites whose
    terminator ran, in the order each first ran; no cut or fault discards
    cached code.  A CL label's count is its own payload, in text, once a run
    returns: a region holds it in a local until text is read."""

    mode: str = "none"
    pending_cfl: int | None = None
    awaiting_entry: int | None = None
    ci_counts: dict = field(default_factory=dict)
    bcf: dict = field(default_factory=dict)


_UNTAGGED = -1  # schedule value of a pc outside every carrier group
_BLOCK_WORDS = 64  # the most words a translated block spans


# -- forms: the semantics of every op and terminator, written once.  An
# expression gives rd's new value, in [0, 2**64), from a and b, the values of
# rs1 and rs2 (always in [0, 2**64) too), and i, the immediate; a condition
# decides a branch.  On first use a body is built into a factory of cold
# closures, which bind their operands as defaults (cheaper to make and to
# read than closure cells), and a region inlines the same body with each
# operand replaced by its value or by a default of the region.

_EXPRS = {
    "lui": "i & M",
    "addi": "a + i & M", "xori": "a ^ i & M", "ori": "a | i & M", "andi": "a & i",
    "slti": "((a ^ H) - H < i) & 1", "sltiu": "(a < (i & M)) & 1",
    "slli": "a << i & M", "srli": "a >> i", "srai": "(a ^ H) - H >> i & M",
    "addiw": "(a + i & W ^ X) - X & M",
    "add": "a + b & M", "sub": "a - b & M", "xor": "a ^ b", "or": "a | b", "and": "a & b",
    "mul": "a * b & M", "slt": "(a ^ H < b ^ H) & 1", "sltu": "(a < b) & 1",
    "sll": "a << (b & 63) & M", "srl": "a >> (b & 63)", "sra": "(a ^ H) - H >> (b & 63) & M",
    "addw": "(a + b & W ^ X) - X & M", "subw": "(a - b & W ^ X) - X & M",
}
_CONDS = {"beq": "a == b", "bne": "a != b", "blt": "a ^ H < b ^ H",
          "bge": "a ^ H >= b ^ H", "bltu": "a < b", "bgeu": "a >= b"}
_TERM_MNEMONICS = frozenset({*_CONDS, "jal", "jalr", "ecall", "ebreak"})
# M masks to 64 bits; H is the sign bit, so (a ^ H) - H is a as signed; W
# and X sign-extend from bit 31; "& 1" makes a comparison an int
_CONSTANTS = {"M": str(MASK64), "H": str(1 << 63), "W": "0xFFFFFFFF", "X": "0x80000000"}
# the struct format of each load and store; a lower-case one sign-extends
_LOADS = {"lb": "<b", "lh": "<h", "lw": "<i", "ld": "<Q", "lbu": "<B", "lhu": "<H", "lwu": "<I"}
_STORES = {"sb": "<B", "sh": "<H", "sw": "<I", "sd": "<Q"}
_ACCESSES = {**_LOADS, **_STORES}
_STACK_BASE = STACK_TOP - STACK_SIZE


def _access_body(mnemonic: str, fmt: str) -> str:
    """The body of a load or store: its address, then an unpack or pack in
    place on a hit in data, which ends at `end`, or in the stack, and else a
    call to its machine's miss, which reads text and faults.
    a + i needs no mask: an address that wraps is below text or above the
    stack either way, and the miss masks it.  A load to x0 writes nothing."""
    size = struct.calcsize(fmt)
    if mnemonic in _LOADS:
        hit, miss = "value = unpack({}, addr - {})[0]", f"value = load(unpack, {size}, addr, pc)"
        tail = "\nif rd:\n    dest = value" + (" & M" if fmt[1].islower() else "")
    else:
        value = "b" if size == 8 else f"b & {(1 << 8 * size) - 1}"
        hit, miss = f"pack({{}}, addr - {{}}, {value})", f"store({size}, addr, pc)"
        tail = ""
    return (f"addr = a + i\nif {DATA_BASE} <= addr <= end - {size}:\n"
            f"    {hit.format('data', DATA_BASE)}\n"
            f"elif {_STACK_BASE} <= addr <= {STACK_TOP - size}:\n"
            f"    {hit.format('stack', _STACK_BASE)}\nelse:\n    {miss}{tail}")


# An op's body writes rd's value to dest, and names registers only as a, b
# and dest, never regs, so a region holds every register in a local.  A
# terminator's one return, its last line, gives the next pc, or None once it
# halts the machine's state: target is pc + imm and after is pc + 4.  An
# ecall reads a7 as b and a0 as a: with a7=93 it exits with code a0, with
# a7=64 it writes the byte in a0, and with any other it stops the machine
# too, so a bare ecall is a clean one-instruction exit.  A body's '...'
# strings are kept as written.
_BODIES = {
    **{mnemonic: f"dest = {expr}" for mnemonic, expr in _EXPRS.items()},
    "auipc": "dest = target",
    **{mnemonic: _access_body(mnemonic, fmt) for mnemonic, fmt in _ACCESSES.items()},
    **{mnemonic: f"return target if {cond} else after" for mnemonic, cond in _CONDS.items()},
    "jal": "if rd:\n    dest = after\nreturn target",
    "jalr": "to = a + i & 0xFFFFFFFFFFFFFFFE\nif rd:\n    dest = after\nreturn to",
    "ecall": (f"if b == {WRITE_SYSCALL}:\n    state.stdout.append(a & 0xFF)\n"
              f"else:\n    state.halted = True\n    state.exit_code = a\n"
              f"    state.stop_reason = 'exit' if b == {EXIT_SYSCALL} else 'ecall'\n"
              f"return None if state.halted else after"),
    "ebreak": "state.halted = True\nstate.stop_reason = 'ebreak'\nreturn None",
    "goto": "return target",  # a fall-through
}


def _unsigned(mnemonic: str) -> str:
    """The UN_ARTH check of an add or a sub: its operands, as unsigned
    values of its width, must not carry out or borrow."""
    width, mask = (32, "W") if mnemonic.endswith("w") else (64, "M")
    test, detail = (("x < y", "%#x - %#x borrows") if mnemonic.startswith("sub")
                    else (f"x + y > {mask}", f"%#x + %#x carries out of {width} bits"))
    # a register already holds a value in [0, 2**64): only an immediate, or
    # an operand of a w form, is masked
    x, y = (f"{value} & {mask}" if value == "i" or width == 32 else value
            for value in ("a", "i" if mnemonic.startswith("addi") else "b"))
    return (f"x = {x}\ny = {y}\n"
            f"if {test}:\n    raise PolicyViolation('UnsignedOverflow', pc, '{detail}' % (x, y))\n")


def _counted(body: str) -> str:
    """A terminator's body under BCF: it counts the edge it takes, from pc
    to its next pc, or to pc itself once it halts, in its site's edge dict."""
    head, _, last = body.rpartition("\n")
    to = last.removeprefix("return ")
    edge = "edge" if "state.halted" in body else "to"  # only a halting body returns None
    return (head + "\n" * bool(head) + f"to = {to}\n" * (to != "to")
            + "edge = pc if to is None else to\n" * (edge == "edge")
            + f"site[{edge}] = site.get({edge}, 0) + 1\nreturn to")


# The policy checks, built as the instructions are.  Under cfi, a checked
# jalr needs the value of its site label, the label word right before it, and
# arms the entry check of the block it lands in with that value.  A block's
# entry check clears a site label's value, unless the block starts with the
# checked jalr it is for, which then checks its entry itself.  A check on a
# word with a body of its own is that body with the check's lines around it.
_ENTERED = ("if policy.awaiting_entry is not None:\n    raise PolicyViolation("
            "'CfiMissingEntryLabel', pc, 'computed call landed on an unlabelled instruction')\n")
_BODIES.update({
    "entry": _ENTERED + "policy.pending_cfl = None",
    "entry label": ("expected = policy.awaiting_entry\nif expected is not None and expected != i:\n"
                    "    raise PolicyViolation('CfiMismatch', pc, "
                    "'entry label %#x != call-site label %#x' % (i, expected))\n"
                    "policy.awaiting_entry = policy.pending_cfl = None"),
    "site label": "policy.pending_cfl = i",
    ("jalr", "CFL"): (_ENTERED + "if policy.pending_cfl is None:\n    raise PolicyViolation("
                      "'CfiMissingSiteLabel', pc, 'checked jalr without a site label')\n"
                      "policy.awaiting_entry = policy.pending_cfl\npolicy.pending_cfl = None\n"
                      + _BODIES["jalr"]),
    # an add or sub to x0 writes nothing but is still checked
    **{(mnemonic, "UN_ARTH"): _unsigned(mnemonic) + "if rd:\n    " + _BODIES[mnemonic]
       for mnemonic in codec.ADDSUB_MNEMONICS},
    # the write-back, a uint32 of text, saturates, and the block over the label stays
    "CL": "word = words[index]\nif word < 0xFFFFF000:\n    words[index] = word + 4096",
    "CI": "counts[pc] = counts.get(pc, 0) + 1",
    **{(mnemonic, "BCF"): _counted(_BODIES[mnemonic]) for mnemonic in (*_TERM_MNEMONICS, "goto")},
})
# a BCF form that never halts -> the body a region runs before counting its edge
_PLAIN = {(mnemonic, "BCF"): mnemonic for mnemonic in (*_CONDS, "jal", "jalr", "goto")}
# operand -> the words of a body that name it, and how a factory derives the
# operands that depend on its pc or its machine, m, the Emulator: an ecall or
# ebreak binds its state, a check its policy state or BCF site, an access its
# _access, the (data, stack, end of data, load miss, store miss), a CL label
# the uint32 view of text and its index; an access's struct gives unpack and pack.
_OPERANDS = {"rd": ("rd", "dest"), "rs1": ("a",), "rs2": ("b",), "imm": ("i",),
             **{word: (word,) for word in (
                 "target", "after", "end", "data", "stack", "unpack", "pack", "load", "store",
                 "state", "pc", "policy", "counts", "site", "words", "index", "PolicyViolation")}}
_DERIVED = {"target": "(pc + imm) & M", "after": "(pc + 4) & M", "data": "m._access[0]",
            "stack": "m._access[1]", "end": "m._access[2]", "load": "m._access[3]",
            "store": "m._access[4]", "state": "m.state", "policy": "m.policy",
            "counts": "m.policy.ci_counts", "site": "m._sites.setdefault(pc, {})",
            "words": "m._text_words", "index": f"pc - {TEXT_BASE} >> 2"}
_WORDS = re.compile(r"'[^']*'|\b(?:%s)\b" % "|".join(  # a string, or a word a body can bind
    [*_CONSTANTS, *(word for named in _OPERANDS.values() for word in named)]))
_FORMS = {}  # the code of each generated op and terminator -> its key in _BODIES


def _fill(text: str, names: dict) -> str:
    """text with every word of a body that names holds replaced by its value."""
    return _WORDS.sub(lambda word: names.get(word[0], word[0]), text)


def _code(source) -> types.CodeType:
    """The code of the one function that source defines: generated source,
    or the code of a function.  Sources are rvtag's own: fixed names,
    strings and integers that it formats."""
    if type(source) is str:
        source = compile(source, "<rvtag generated>", "exec")
    [code] = [const for const in source.co_consts if isinstance(const, types.CodeType)]
    return code


@functools.cache
def _factory(form):
    """The factory of a form, a mnemonic, a check, or a (mnemonic, effect)
    pair, built on first use from its body: make(m, pc, rd, rs1, rs2, imm),
    where m is the Emulator, which a pure op does not read.  The code of the
    op it makes is its form's in _FORMS."""
    body = _BODIES[form]
    words = set(_WORDS.findall(body))
    params = ", ".join(f"{param}={_DERIVED.get(param, param)}"
                       for param, named in _OPERANDS.items() if words.intersection(named))
    cold = _fill(body, {"a": "regs[rs1]", "b": "regs[rs2]", "i": "imm", "dest": "regs[rd]"})
    env = {"__builtins__": {}, "PolicyViolation": PolicyViolation}
    if form in _ACCESSES:
        packed = struct.Struct(_ACCESSES[form])
        env.update(unpack=packed.unpack_from, pack=packed.pack_into)
    code = _code(_fill(f"def make(m, pc, rd, rs1, rs2, imm):\n    def op(regs, {params}):\n"
                       + "".join(f"        {line}\n" for line in cold.splitlines())
                       + "    return op\n", _CONSTANTS))
    _FORMS[_code(code)] = form
    return types.FunctionType(code, env, "make")


def _operands(op, defaults) -> tuple:
    """(operands, names) of an op in a region: the operands it binds,
    read back from its defaults, and the words of its body mapped to their
    text.  A register is its local, r<N>, and a read of x0 is 0; an int is
    its literal; any other operand becomes a default of the region, bound
    once under its word, or under the word and a number if another object
    holds that name."""
    code = op.__code__
    bound = dict(zip(code.co_varnames[1:code.co_argcount], op.__defaults__))
    names = dict(_CONSTANTS)
    for param, value in bound.items():
        for word in _OPERANDS[param]:
            if word in ("a", "b", "dest"):
                names[word] = f"r{value}" if value or word == "dest" else "0"
            elif type(value) is int:
                names[word] = str(value)
            else:
                name, k = word, 0
                while defaults.setdefault(name, value) is not value:
                    k += 1
                    name = f"{word}{k}"
                names[word] = name
    return bound, names


def _misses(text: bytearray) -> tuple:
    """A machine's (load, store) misses, for an access that hits neither data
    nor the stack: a load reads text, and anything else is a MemFault at pc,
    a store to text among them."""
    def load(unpack, size, addr, pc):
        addr &= MASK64
        if 0 <= addr - TEXT_BASE <= len(text) - size:
            return unpack(text, addr - TEXT_BASE)[0]
        raise PolicyViolation("MemFault", pc, f"{size}-byte load at {addr:#x}: unmapped")

    def store(size, addr, pc):
        addr &= MASK64
        if not 0 <= addr - TEXT_BASE <= len(text) - size:
            raise PolicyViolation("MemFault", pc, f"{size}-byte store at {addr:#x}: unmapped")
        raise PolicyViolation("MemFault", pc, f"store to execute-only text at {addr:#x}")
    return load, store


# -- ops: op(regs) runs one instruction or check.  Pure ones are made from
# the word alone and shared by every pc holding it; the rest are made from
# their pc and their machine too.  A terminator, term(regs), ends a block and
# returns the next pc, or None once halted.

# mnemonics whose only effect is the write to rd, so rd == x0 makes them no-ops
_RD_ONLY = codec.MNEMONICS - codec.LOAD_MNEMONICS - codec.STORE_MNEMONICS - _TERM_MNEMONICS


@functools.lru_cache(maxsize=65536)
def _predecode(word: int) -> tuple:
    """(mnemonic, rd, rs1, rs2, imm, op, make, label, ends) of a word: op is
    the shared op of a pure instruction, make the per-pc factory of any
    other; both are None for a no-op.  label tells a lui x0, which keeps its
    raw 20-bit immediate for the cfi compare, where other lui/auipc
    immediates come shifted; ends tells a word that ends its block."""
    insn = codec.decode(word)
    mnemonic, rd, rs1, rs2, imm = insn.mnemonic, insn.rd, insn.rs1, insn.rs2, insn.imm
    if mnemonic in ("lui", "auipc") and rd:
        imm = codec._sext(imm << 12, 32)
    elif mnemonic == "ecall":  # its body reads a0 as a and a7 as b
        rs1, rs2 = 10, 17
    op = make = None
    if rd or mnemonic not in _RD_ONLY:
        make = _factory(mnemonic)
        if mnemonic in _EXPRS:
            op, make = make(None, 0, rd, rs1, rs2, imm), None
    return (mnemonic, rd, rs1, rs2, imm, op, make, mnemonic == "lui" and rd == 0,
            mnemonic in _TERM_MNEMONICS)


# -- the hot tier --------------------------------------------------------------
# The run loop samples the block that crosses each mark, one every
# _SAMPLE_FETCHES fetches, or the first block a region exits to past it, and
# Emulator._sample opens a trace at a cached block's second sample, to remake
# the region with its path.  Code that runs a few times stays cold: caching or
# tracing at a first entry or sample cut large_unit's cfi fetches/s 2.6-4.4%.
# Regions may compile _INTERVAL_WORDS words per sample interval fetched, one
# per 64 fetches at 1024, so sampling every block lifts the budget too.
_SAMPLE_FETCHES = 1024
_INTERVAL_WORDS = 16
_REGION_BLOCKS = 16
_REGION = float("inf")  # the fetch count of a member's entry: it crosses every mark


def _lines(ops, term, defaults: dict, fold) -> list:
    """The lines of a function body that runs ops and then returns term's
    next pc: the body of each op, then term's, whose one return is the last
    line, plain if _PLAIN has it.  Operands are literals or the locals of
    registers, and the other defaults of a body (segments, struct methods,
    misses, machine and policy state) are added to `defaults`.  A CL label
    adds 1 to c_<index>, and `fold` goes before each load's miss, the one
    body that reads text.  The lines fold what the ops fix: an immediate of
    0 drops its + 0, and a register that a pure op, lui or auipc sets from
    literals alone reads as its value, which that op's cold closure works
    out here, up to the register's next other write; an access at such an
    address keeps only the branch it takes, hit or miss.  The write itself
    waits for the first op of any other kind, as only such an op can raise
    or end the block, and is dropped if a pure op writes the register first."""
    lines, known, unwritten, values = [], {}, {}, [0] * 32
    for op in (*ops, term):
        form = _FORMS[op.__code__]
        bound, names = _operands(op, defaults)
        names.update((word, known[bound[param]]) for word, param in (("a", "rs1"), ("b", "rs2"))
                     if bound.get(param) in known)
        body = f"c_{bound['index']} += 1" if form == "CL" else _BODIES[_PLAIN.get(form, form)]
        filled = _fill(body.replace(" + i", "") if bound.get("imm") == 0 else body,
                       names).splitlines()
        rd = bound.get("rd")
        if form not in _EXPRS and form != "auipc":
            lines += [f"r{n} = {value}" for n, value in unwritten.items()]
            unwritten.clear()
        elif all(bound[param] in known or not bound[param]
                 for param in ("rs1", "rs2") if param in bound):
            op(values)  # it reads only registers whose values are known
            known[rd] = unwritten[rd] = str(values[rd])
            continue
        known.pop(rd, None)
        unwritten.pop(rd, None)
        if form in _LOADS:  # its miss branch, from line 6 on, reads text
            filled[6:6] = [f"    {line}" for line in fold]
        if form in _ACCESSES and names["a"].isdigit():  # a literal address: the branch it hits
            addr, size = int(names["a"]) + bound["imm"], struct.calcsize(_ACCESSES[form])
            tail = len(filled) - 2 * (form in _LOADS)  # a load ends on its if rd: write
            hit, stop = ((2, 3) if DATA_BASE <= addr <= bound["end"] - size else
                         (4, 5) if _STACK_BASE <= addr <= STACK_TOP - size else (6, tail))
            filled[1:tail] = [line[4:] for line in filled[hit:stop]]
        lines += filled
    return lines


def _fold(words, indices, *counts) -> None:
    """Add each count to its text word's payload, which stops at 0xFFFFF."""
    for index, count in zip(indices, counts):
        word = words[index] + (count << 12)
        words[index] = word if word <= 0xFFFFFFFF else word & 0xFFF | 0xFFFFF000


_GLOBALS = {"__builtins__": {}}  # of every region: it reads no global
_GENERATED = {}  # the shape of a region -> (its code, where its defaults are)
_GENERATED_KEPT = 512  # the most shapes a process keeps


def _shape(ops, first: dict) -> tuple:
    """What the source of a region of ops depends on: each op's form, then
    its operands in turn, an int as itself and any other object as where it
    first appears, (op index, operand index), which `first` records by id.
    A form fixes how many operands it binds."""
    return (*[op.__code__ for op in ops], *[
        value if type(value) is int else first.setdefault(id(value), (i, k))
        for i, op in enumerate(ops) for k, value in enumerate(op.__defaults__)])


def _region(members: list, at: list):
    """One function that runs blocks as branches of one loop: region(regs, pc,
    left) runs from pc while it is a member's entry and the member fits in
    `left` fetches.  Each member is (entry, block), a block as
    Emulator._translate makes it, and its branch is _lines' body of the
    block, with its return an assignment to pc, and its counts taken from
    left and added to retired and labels.  A body is folded on what its own
    block fixes, never on another member's, as a member may be entered from
    any of them or from the run loop.  Each pass tests the members' entries
    in order, so a member falls through to the next if it leads there, and
    the region stops at any other pc, and after a member that halts, at its
    halting word.  It leaves (pc, left, retired, labels) in `at`, also past
    a fault, which then leaves the entry of the member it faulted in.  Each
    register the members name is a local, r<N>, loaded in one line before
    the loop and stored in one line of the finally.  At a BCF site that
    never halts, a call adds the first take of each edge to the site's edge
    dict, in the order taken, and counts the repeats of the first edge in
    the site's locals, which it folds into the dict when it stops, also past
    a fault.  A CL label counts in c_<index>, which a call to fold adds to
    text before each load's miss, and the finally when it stops.  Equal
    shapes make equal source, folds included, so each shape is compiled once
    per process, and a region of a known shape is its code with each default
    after at and fold taken from the same operand of the same op."""
    ops = [op for _, block in members for op in (*block[0], block[4])]
    first = {}
    shape = (_shape(ops, first), *[(entry, len(block[0]), *block[1:4], block[5])
                                   for entry, block in members])
    known = _GENERATED.get(shape)
    if known is None:
        defaults, sites, lines = {"at": at, "fold": _fold}, [], []
        bound = [_operands(op, {})[0] for op in ops]
        counted = tuple(dict.fromkeys(each["index"] for each in bound if "index" in each))
        named = sorted({each[p] for each in bound for p in ("rd", "rs1", "rs2") if each.get(p)})
        held = [", ".join(f"r{n}" for n in named), ", ".join(f"regs[{n}]" for n in named)]
        counts = [f"c_{index}" for index in counted]
        fold = [f"fold(words, {counted}, {', '.join(counts)})", " = ".join([*counts, "0"])]
        for entry, (block_ops, fetches, retired, labels, term, end) in members:
            body = _lines(block_ops, term, defaults, counted and fold)
            body[-1] = "pc = " + body[-1].removeprefix("return ")
            form = _FORMS[term.__code__]
            if form in _PLAIN:  # members ending at one site share its locals
                sites.append(site := _operands(term, defaults)[1]["site"])
                body += [f"if pc == t_{site}:", f"    n_{site} += 1", "else:",
                         f"    {site}[pc] = {site}.get(pc, 0) + 1",
                         f"    if t_{site} < 0:", f"        t_{site} = pc"]
            body += [f"left -= {fetches}"] + [f"retired += {retired}"] * (retired > 0)
            body += [f"labels += {labels}"] * (labels > 0)
            if "state.halted" in _BODIES[form]:  # its pc is None once halted
                body += ["if pc is None:", f"    pc = {end - 4}", "    break"]
            lines += [f"        if pc == {entry}:",
                      f"            if left < {fetches}:", "                break"]
            lines += [f"            {line}" for line in body]
        sites = dict.fromkeys(sites)
        lines = [" = ".join(["retired", "labels", *counts, "0"]),
                 *[f"t_{site}, n_{site} = -1, 0" for site in sites],
                 *[" = ".join(held)] * bool(named),
                 "try:", "    while True:", *lines, f"        if pc not in {set(dict(members))}:",
                 "            break",
                 "finally:", "    at[:] = pc, left, retired, labels",
                 *[f"    {' = '.join(held[::-1])}"] * bool(named),
                 *[f"    if n_{site}: {site}[t_{site}] += n_{site}" for site in sites],
                 *[f"    {fold[0]}"] * bool(counted)]
        source = (f"def region(regs, pc, left{''.join(f', {param}' for param in defaults)}):\n"
                  + "".join(f"    {line}\n" for line in lines))
        if len(_GENERATED) >= _GENERATED_KEPT:
            _GENERATED.clear()
        known = _GENERATED[shape] = (_code(source), [first[id(value)]
                                                     for value in list(defaults.values())[2:]])
    code, slots = known
    return types.FunctionType(code, _GLOBALS, "region", (at, _fold, *[
        ops[i].__defaults__[k] for i, k in slots]))


class Emulator:
    def __init__(self, image: Image, mode: str = "compat", max_insns: int = 10 ** 8):
        """max_insns bounds every fetch: retired instructions plus carrier words."""
        if mode not in ("compat", "aware"):
            raise ValueError(f"unknown mode {mode!r}")
        if max_insns < 0:
            raise ValueError(f"max_insns must not be negative, not {max_insns}")
        if sys.byteorder != "little":  # text is read and written as native uint32s
            raise RvtagError(f"RVTI text is little-endian; this host is {sys.byteorder}-endian")
        self.mode = mode
        self.max_insns = max_insns
        self.memory = Memory(bytearray(image.text), bytearray(image.data), bytearray(STACK_SIZE))
        self.state = MachineState(pc=image.entry, memory=self.memory)
        self.counters = ExecCounters()
        self.policy = PolicyState(mode=image.policy if mode == "aware" else "none")
        self.state.regs[2] = STACK_TOP
        self._text_words = memoryview(self.memory.text).cast("I")  # text never resizes
        # What every load and store binds: the segments it hits, the end of
        # data, and the miss pair, which holds only text.
        self._access = (self.memory.data, self.memory.stack, DATA_BASE + len(self.memory.data),
                        *_misses(self.memory.text))
        self._effects = tagplan.EFFECTS[self.policy.mode]
        self._blocks = {}
        self._entered = set()
        self._last = (-1, None)  # the entry and block of the last block made at a first entry
        self._sites = {}  # the edge dict of each BCF site translated, in the order made
        self._sampled = set()  # the entries of cached blocks sampled once
        self._hot = {}  # entry -> the block of each member of the open region, then refused ones
        self._at = [0, 0, 0, 0]  # where the region stopped, and what it ran
        self._trace = None  # while one is open, its blocks' entries in the order run
        self._words = 0  # the words of every region compiled so far
        # the pc -> tag schedule, None at a carrier: compat mode reads no carrier
        # word; a malformed one raises NotACarrier in aware mode
        spans = tagplan.region_spans(image.tag_regions, image.text_end)
        self._tags = (tagplan.slot_tags(self.memory.text, image.tag_regions, image.text_end)
                      if mode == "aware" else dict.fromkeys(chain.from_iterable(
                          range(region.start, bound, stride) for region, stride, bound in spans)))

    # -- translation ---------------------------------------------------------------
    def _translate(self, entry: int, limit: int = -1) -> tuple:
        """The block entered at `entry`, of at most `limit` fetches if given:
        (ops, fetches, retired, labels, terminator, end).  It ends at a
        control transfer, a BCF-tagged word, or after _BLOCK_WORDS words.  A
        CFL label's value is only for a checked jalr right after it, in the
        next block if the label ends this one.  An entry that is not a whole
        text word raises."""
        if entry == self._last[0] and limit < 0:  # a loop coming round: cache what it made
            return self._blocks.setdefault(entry, self._last[1])
        tags, words, first = self._tags, self._text_words, entry - TEXT_BASE >> 2
        if entry % 4 or not 0 <= first < len(words):
            raise BadInstruction(f"pc={entry:#x}: fetch outside whole text words", entry)
        effects, aware = self._effects, self.mode == "aware"
        ops = []
        carriers = labels = 0
        term = pending = None
        cfi_entry = self.policy.mode == "cfi"
        pc = entry
        for word in words[first:first + (_BLOCK_WORDS if limit < 0 else limit)]:
            tag = tags.get(pc, _UNTAGGED)
            if tag is None and aware:
                carriers += 1
                pc += 4
                continue
            try:
                mnemonic, rd, rs1, rs2, imm, op, make, label, ends = _predecode(word)
            except codec.BadEncoding as exc:
                if pc != entry:  # run up to it; the next block raises
                    break
                self.counters.tag_fetches += tag is None  # fetched before it faults
                raise BadInstruction(f"pc={pc:#x}: {exc}", pc) from None
            if tag is None:
                carriers += 1
            elif label:
                labels += 1
            if effects:
                effect = effects.get(tag)
                checked = effect == "CFL" and mnemonic == "jalr"
                site = imm if effect == "CFL" and label else None
                if cfi_entry and not checked:
                    ops.append(_factory("entry" if site is None else "entry label")(
                        self, pc, rd, rs1, rs2, imm))
                cfi_entry = False
                if pending is not None and checked:
                    ops.append(_factory("site label")(self, pc, rd, rs1, rs2, pending))
                pending = site
                if effect is not None:
                    if (mnemonic, effect) in _BODIES:  # the word's own body, checked
                        op, make = None, _factory((mnemonic, effect))
                    elif effect == "CI":
                        ops.append(_factory("CI")(self, pc, rd, rs1, rs2, imm))
                    elif effect == "CL" and label:
                        op = _factory("CL")(self, pc, rd, rs1, rs2, imm)
                    elif effect == "BCF" and not ends:
                        # the block ends here, and falls through
                        term = _factory(("goto", "BCF"))(self, pc, rd, rs1, rs2, 4)
            if make is not None:
                op = make(self, pc, rd, rs1, rs2, imm)
            pc += 4
            if ends:
                term = op
                break
            if op is not None:
                ops.append(op)
            if term is not None:  # a BCF-tagged word falls through
                break
        if pending is not None:  # the label ends the block: its value waits for the next one
            ops.append(_factory("site label")(self, pc, 0, 0, 0, pending))
        fetches = (pc - entry) >> 2
        term = term or _factory("goto")(self, pc, 0, 0, 0, 0)
        block = (tuple(ops), fetches, fetches - carriers, labels, term, pc)
        # Unlimited blocks are cached once entered twice: code that runs once,
        # like a long straight-line driver, then leaves no objects behind for
        # the garbage collector to keep traversing.  Only the last block made
        # at a first entry is kept, for a loop to cache as it comes round.
        if limit < 0:
            if entry in self._entered:
                self._blocks[entry] = block
            else:
                self._entered.add(entry)
                self._last = entry, block
        return block

    # -- promotion ---------------------------------------------------------------
    def _sample(self, entry: int, fetches: int) -> int:
        """The block entered at `entry`, not a region member, crossed a
        sample point, `fetches` into this run, or runs with a trace open;
        returns the fetches to the next sample point, 0 with a trace open.
        A cached block is noted the first time, and at any later sample it
        opens a trace, which takes each cached block the run enters next, in
        order, and closes at one already on it, one not cached or a region
        member, at _REGION_BLOCKS blocks, or as the run returns.  Code never
        sampled pays nothing."""
        trace = self._trace
        if trace is not None:
            if entry in self._blocks and entry not in trace:
                trace.append(entry)
                if len(trace) < _REGION_BLOCKS:
                    return 0
            self._close(fetches)
        elif entry in self._blocks:
            if entry in self._sampled:
                self._trace = [entry]
                return 0
            self._sampled.add(entry)
        return _SAMPLE_FETCHES

    def _close(self, fetches: int) -> None:
        """The trace closes, `fetches` into this run: its blocks join _hot,
        the open region, in the order they ran, and the region is remade
        once.  A trace that would take it past _REGION_BLOCKS leaves it as it
        is, and _hot restarts with the trace alone: a full region is never
        remade, and a block refused before runs cold until a later trace
        takes it.  Blocks whose region the budget refuses stay in _hot."""
        hot, blocks, trace = self._hot, self._blocks, self._trace
        self._trace = None
        if len(hot.keys() | trace) > _REGION_BLOCKS:
            hot.clear()
        for entry in trace:
            hot[entry] = hot.pop(entry, None) or blocks[entry]  # refused before
        words = sum(block[1] for block in hot.values())
        fetched = self.counters.total + fetches
        if (self._words + words) * _SAMPLE_FETCHES > fetched * _INTERVAL_WORDS:
            return
        self._words += words
        region = _region(list(hot.items()), self._at)
        for member, block in hot.items():
            blocks[member] = (block, _REGION, 0, 0, region, block[5])

    # -- main loop -----------------------------------------------------------
    def run(self):
        state, counters, policy = self.state, self.counters, self.policy
        if state.halted:
            return state, counters, policy
        regs, blocks, translate, at = state.regs, self._blocks, self._translate, self._at
        budget = self.max_insns - counters.total
        mark = min(budget, _SAMPLE_FETCHES)  # the next sample point
        fetches = retired = labels = 0  # added to counters at exit
        pc = state.pc
        try:
            while True:
                ops, n, n_ret, n_lab, term, end = blocks.get(pc) or translate(pc)
                if n > mark - fetches:
                    if n == _REGION:  # a region member: it runs the region up to the budget
                        if self._trace is not None:  # it closes the trace, then runs anew
                            self._close(fetches)
                            mark = min(budget, fetches + _SAMPLE_FETCHES)
                            continue
                        region, (ops, n, n_ret, n_lab, term, end) = term, ops
                        if n <= budget - fetches:
                            try:
                                region(regs, pc, budget - fetches)
                            finally:  # where it stopped, past a fault at the faulting member
                                pc, left, n_ret, n_lab = at
                                fetches, retired = budget - left, retired + n_ret
                                labels += n_lab
                            if state.halted:
                                break
                            continue
                    if n > budget - fetches:  # run the words that fit in the budget
                        if fetches >= budget:
                            raise LimitExceeded(
                                f"fetched {counters.total + fetches} words without exiting")
                        ops, n, n_ret, n_lab, term, end = translate(pc, budget - fetches)
                    else:  # it crosses the mark, or a region ran past it
                        mark = min(budget, fetches + n + self._sample(pc, fetches))
                for op in ops:
                    op(regs)
                next_pc = term(regs)
                fetches += n
                retired += n_ret
                labels += n_lab
                if next_pc is None:
                    pc = end - 4  # the halting word ends its block
                    break
                pc = next_pc
        except PolicyViolation as exc:
            # only block code raises it, with pc at the block's entry: the
            # words before exc.pc ran, and the word at exc.pc counts as
            # fetched if it is a carrier, and as seen if a label
            _, n, n_ret, n_lab, _, _ = self._translate(pc, ((exc.pc - pc) >> 2) + 1)
            insn = self._tags.get(exc.pc, _UNTAGGED) is not None  # not a carrier
            pc, fetches, retired, labels = (exc.pc, fetches + n - insn, retired + n_ret - insn,
                                            labels + n_lab)
            raise
        finally:
            if self._trace is not None:  # a resumed run starts with none open
                self._close(fetches)
            for site, edges in self._sites.items():  # what ran, in the order made
                if edges and site not in policy.bcf:
                    policy.bcf[site] = edges
            state.pc = pc
            counters.retired += retired
            counters.tag_fetches += fetches - retired
            counters.labels_seen += labels
        return state, counters, policy


def run(image: Image, mode: str = "compat", max_insns: int = 10 ** 8):
    """Execute an image from its entry point.

    Returns (MachineState, ExecCounters, PolicyState); raises
    PolicyViolation, BadInstruction, or LimitExceeded.
    """
    return Emulator(image, mode=mode, max_insns=max_insns).run()
