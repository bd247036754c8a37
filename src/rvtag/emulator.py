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
write-back changes a word of it, the label's payload.  The slot schedule is
resolved once, at load, into a pc -> tag dict where None marks a carrier:
tagplan.slot_tags reads it in aware mode, and compat mode marks only the
carriers of tagplan.carrier_groups.  Code runs as basic blocks of at most
_BLOCK_WORDS words, translated on entry and cached by entry pc once entered
twice: closures with their operands bound, constant counts, and one
terminator that returns the next pc.  The cap keeps the cache linear in
text, however the entries into one long straight run fall.  Aware-mode
carriers and x0 no-ops cost nothing, and each policy check is an op or a
checked form of its word, made at translation.  A load to x0 writes nothing
but still faults.

Hot blocks get a second tier, one generated region.  Every _SAMPLE_FETCHES
fetches, the block that crosses the mark is sampled, and a cached block
sampled for the second time joins the region at once.  The machine's last
_REGION_BLOCKS such blocks run as the branches of one Python function: a
loop that dispatches on pc, runs the member's body with every op, check and
terminator inlined, operands as literals and written registers in locals,
and adds its constant counts.  A member's entry leads the run loop into the
region, which runs to the fetch budget: it returns at a pc outside it, after
a member that halts, or before a member that would cross the budget.  The
run loop then runs that block as it runs any other, and samples it if the
region ran past the mark.  A block that the region evicted, or whose region
the budget refused, runs cold.  Regions are charged by the words they
compile, at most one per 64 fetched, so that compiling long blocks cannot
take over a run, and a machine keeps each region it makes, as a loop wider
than a region makes the same ones over and over.  A fault in the region
reports the pc and counts that the run loop would.  Generated source is
kept by its shape, the forms and integers it is built from, and compiled
once per process, so a new machine pays only to bind its own objects to the
cached code.

Every instruction and every policy check has one body in _BODIES, which
builds every tier.  A load or store tests its address against data, whose
end is the machine's, and the stack, and unpacks or packs in place on a hit;
anything else calls its machine's miss, which reads text and raises every
MemFault.  The generated source holds only fixed names, strings and integers
that rvtag formats.
"""

from __future__ import annotations

import functools
import re
import struct
import types
from dataclasses import dataclass, field

from . import codec, tagplan
from .emitlink import Image
from .errors import RvtagError
from .tagplan import DATA_BASE, STACK_SIZE, STACK_TOP, TEXT_BASE

EXIT_SYSCALL = 93
WRITE_SYSCALL = 64

MASK64 = (1 << 64) - 1
_WORD = struct.Struct("<I")


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
    retired: int = 0
    tag_fetches: int = 0
    labels_seen: int = 0

    @property
    def total(self) -> int:
        return self.retired + self.tag_fetches


@dataclass
class PolicyState:
    mode: str = "none"
    pending_cfl: int | None = None
    awaiting_entry: int | None = None
    ci_counts: dict = field(default_factory=dict)
    bcf: dict = field(default_factory=dict)
    cl_addresses: list = field(default_factory=list)


_UNTAGGED = -1  # schedule value of a pc outside every carrier group
_BLOCK_WORDS = 64  # the most words a translated block spans


def _sext32(value: int) -> int:
    return ((value & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000


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


# An op's body writes rd's value to dest.  A body that is one assignment to
# dest can neither fault nor read regs, so a region runs it without first
# storing the registers it holds in locals.  A terminator's one return, its
# last line, gives the next pc, or None once it halts the machine's state:
# target is pc + imm and after is pc + 4.  An ecall with a7=93 exits with
# code a0, one with a7=64 writes the byte in a0, and any other stops the
# machine too, so a bare ecall is a clean one-instruction exit.  A body's
# '...' strings are kept as written.
_BODIES = {
    **{mnemonic: f"dest = {expr}" for mnemonic, expr in _EXPRS.items()},
    "auipc": "dest = target",
    **{mnemonic: _access_body(mnemonic, fmt) for mnemonic, fmt in _ACCESSES.items()},
    **{mnemonic: f"return target if {cond} else after" for mnemonic, cond in _CONDS.items()},
    "jal": "if rd:\n    regs[rd] = after\nreturn target",
    "jalr": "to = (a + i) & M & ~1\nif rd:\n    regs[rd] = after\nreturn to",
    "ecall": (f"if regs[17] == {WRITE_SYSCALL}:\n    state.stdout.append(regs[10] & 0xFF)\n"
              f"else:\n    state.halted = True\n    state.exit_code = regs[10]\n"
              f"    state.stop_reason = 'exit' if regs[17] == {EXIT_SYSCALL} else 'ecall'\n"
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
    return (f"x = a & {mask}\ny = {'i' if mnemonic.startswith('addi') else 'b'} & {mask}\n"
            f"if {test}:\n    raise PolicyViolation('UnsignedOverflow', pc, '{detail}' % (x, y))\n")


def _counted(body: str) -> str:
    """A terminator's body under BCF: it counts the edge it takes, from pc
    to its next pc, or to pc itself once it halts."""
    head, _, last = body.rpartition("\n")
    return (head + "\n" * bool(head) + "to = " + last.removeprefix("return ")
            + "\nper_site = bcf.setdefault(pc, {})\nedge = pc if to is None else to\n"
              "per_site[edge] = per_site.get(edge, 0) + 1\nreturn to")


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
    # the write-back saturates, and the block over the label stays
    "CL": ("word = unpack(text, offset)[0]\nif word >> 12 < 0xFFFFF:\n"
           "    pack(text, offset, word + 4096)\nif pc not in counted:\n    counted[pc] = None"),
    "CI": "counts[pc] = counts.get(pc, 0) + 1",
    **{(mnemonic, "BCF"): _counted(_BODIES[mnemonic]) for mnemonic in (*_TERM_MNEMONICS, "goto")},
})
_PACKED = {**_ACCESSES, "CL": "<I"}  # the struct format of each body that packs or unpacks
# operand -> the words of a body that name it, and how a factory derives the
# operands that depend on its pc or its machine.  m is the Emulator of a
# terminator and of an op made for a check alone, whose state an ecall or
# ebreak binds and whose policy state a check binds, and any other op's
# _access, the (data, stack, end of data, load miss, store miss) an access
# binds; unpack and pack are a body's struct's.
_OPERANDS = {"rd": ("rd", "dest"), "rs1": ("a",), "rs2": ("b",), "imm": ("i",),
             **{word: (word,) for word in (
                 "target", "after", "end", "data", "stack", "unpack", "pack", "load", "store",
                 "state", "pc", "policy", "counts", "bcf", "text", "offset", "counted",
                 "PolicyViolation")}}
_DERIVED = {"target": "(pc + imm) & M", "after": "(pc + 4) & M", "data": "m[0]",
            "stack": "m[1]", "end": "m[2]", "load": "m[3]", "store": "m[4]", "state": "m.state",
            "policy": "m.policy", "counts": "m.policy.ci_counts", "bcf": "m.policy.bcf",
            "text": "m.memory.text", "offset": f"pc - {TEXT_BASE}", "counted": "m._labels_counted"}
_WORDS = re.compile(r"'[^']*'|\b(?:%s)\b" % "|".join(  # a string, or a word a body can bind
    [*_CONSTANTS, *(word for named in _OPERANDS.values() for word in named)]))
_FORMS = {}  # the code of each generated op and terminator -> its key in _BODIES


def _fill(text: str, names: dict) -> str:
    """text with every word of a body that names holds replaced by its value."""
    return _WORDS.sub(lambda word: names.get(word[0], word[0]), text)


def _define(source: str, name: str, env: dict | None = None):
    """The function `name` that source defines, with env as its globals.
    Sources are rvtag's own: fixed names, strings and integers that it
    formats."""
    namespace = {}
    exec(compile(source, "<rvtag generated>", "exec"), {"__builtins__": {}, **(env or {})},
         namespace)
    return namespace[name]


@functools.cache
def _factory(form):
    """The factory of a form, a mnemonic, a check, or a (mnemonic, effect)
    pair, built on first use from its body: make(rd, rs1, rs2, imm) of a
    pure op, make(m, pc, rd, rs1, rs2, imm) of any other.  The code of the
    op it makes is its form's in _FORMS."""
    body = _BODIES[form]
    words = set(_WORDS.findall(body))
    params = ", ".join(f"{param}={_DERIVED.get(param, param)}"
                       for param, named in _OPERANDS.items() if words.intersection(named))
    cold = _fill(body, {"a": "regs[rs1]", "b": "regs[rs2]", "i": "imm", "dest": "regs[rd]"})
    signature = "rd, rs1, rs2, imm" if form in _EXPRS else "m, pc, rd, rs1, rs2, imm"
    env = {"PolicyViolation": PolicyViolation}
    if form in _PACKED:
        packed = struct.Struct(_PACKED[form])
        env.update(unpack=packed.unpack_from, pack=packed.pack_into)
    make = _define(_fill(f"def make({signature}):\n    def op(regs, {params}):\n"
                         + "".join(f"        {line}\n" for line in cold.splitlines())
                         + "    return op\n", _CONSTANTS), "make", env)
    [code] = [const for const in make.__code__.co_consts if isinstance(const, types.CodeType)]
    _FORMS[code] = form
    return make


def _operands(op, held, defaults) -> tuple:
    """(operands, names) of an op in a region: the operands it binds,
    read back from its defaults, and the words of its body mapped to their
    text.  A register read is its local if held, else regs[N], and 0 for x0;
    dest is rd's local; an int is its literal; any other operand becomes a
    default of the region, bound once under its word, or under the word and a
    number if another object holds that name."""
    code = op.__code__
    bound = dict(zip(code.co_varnames[1:code.co_argcount], op.__defaults__))
    names = dict(_CONSTANTS)
    for param, value in bound.items():
        for word in _OPERANDS[param]:
            if word in ("a", "b"):
                names[word] = f"r{value}" if value in held else f"regs[{value}]" if value else "0"
            elif word == "dest":
                names[word] = f"r{value}"
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
# the word alone and shared by every pc holding it; the rest also take their
# pc and their machine, or for an access, the machine's _access.  A
# terminator, term(regs), ends a block and returns the next pc, or None once
# halted.

# mnemonics whose only effect is the write to rd, so rd == x0 makes them no-ops
_RD_ONLY = codec.MNEMONICS - codec.LOAD_MNEMONICS - codec.STORE_MNEMONICS - _TERM_MNEMONICS


@functools.lru_cache(maxsize=65536)
def _predecode(word: int) -> tuple:
    """(mnemonic, rd, rs1, rs2, imm, op, make) of a word: op is the shared op
    of a pure instruction, make the per-pc factory of any other; both are
    None for a no-op.  lui/auipc immediates come shifted, but a label (lui
    x0) keeps its raw 20-bit immediate for the cfi compare."""
    insn = codec.decode(word)
    mnemonic, rd, rs1, rs2, imm = insn.mnemonic, insn.rd, insn.rs1, insn.rs2, insn.imm
    if mnemonic in ("lui", "auipc") and rd:
        imm = _sext32(imm << 12)
    op = make = None
    if rd or mnemonic not in _RD_ONLY:
        make = _factory(mnemonic)
        if mnemonic in _EXPRS:
            op, make = make(rd, rs1, rs2, imm), None
    return mnemonic, rd, rs1, rs2, imm, op, make


# -- the hot tier --------------------------------------------------------------
# The run loop samples the block that crosses each mark, one every
# _SAMPLE_FETCHES fetches, or the first block a region exits to past it, and
# Emulator._sample puts a cached block into the region at its second sample.
# Regions may compile _INTERVAL_WORDS words per sample interval fetched, one
# per 64 fetches at 1024, so sampling every block lifts the budget too.
_SAMPLE_FETCHES = 1024
_INTERVAL_WORDS = 16
_REGION_BLOCKS = 16
_REGION = float("inf")  # the fetch count of a member's entry: it crosses every mark


def _lines(ops, term, defaults: dict) -> list:
    """The lines of a function body that runs ops and then returns term's
    next pc: the body of each op, then term's, whose one return is the last
    line.  Operands are literals, and the other defaults of a body (segments,
    struct methods, misses, machine and policy state) are added to
    `defaults`.  A body that assigns dest with rd != 0 leaves rd's value in a
    local; the locals are stored to regs before every body but a lone
    assignment to dest, so every other body, and a fault, sees every write
    before it."""
    lines = []
    held, unstored = set(), set()  # registers in locals, and those newer than regs
    for op in (*ops, term):
        body = _BODIES[_FORMS[op.__code__]]
        if not body.startswith("dest = ") or "\n" in body:
            lines += [f"regs[{rd}] = r{rd}" for rd in sorted(unstored)]
            unstored.clear()
        bound, names = _operands(op, held, defaults)
        lines += _fill(body, names).splitlines()
        if bound.get("rd") and "dest" in body:  # no other word of a body holds "dest"
            held.add(bound["rd"])
            unstored.add(bound["rd"])
    return lines


_GLOBALS = {"__builtins__": {}}  # of every region: it reads no global
_GENERATED = {}  # the shape of a region -> (its code, where its defaults are)
_GENERATED_KEPT = 512  # the most shapes a process keeps, and regions a machine keeps


def _shape(ops) -> tuple:
    """What the source of a region of ops depends on: each op's form, then
    its operands in turn, an int as itself and any other object as where it
    first appears.  A form fixes how many operands it binds."""
    seen = {}
    return (*[op.__code__ for op in ops], *[
        value if type(value) is int else (seen.setdefault(id(value), len(seen)),)
        for op in ops for value in op.__defaults__])


def _region(members: list, at: list):
    """One function that runs blocks as branches of one loop: region(regs,
    pc, left) runs from pc while it is a member's entry and the member fits
    in `left` fetches.  Each member is (entry, block), a block as
    Emulator._translate makes it, and its branch is _lines' body of the
    block, with its return an assignment to pc, and its counts taken from
    left and added to retired and labels.  The region stops at any other pc,
    and after a member that halts, at its halting word.  It leaves (pc, left,
    retired, labels) in `at`, also past a fault, which then leaves the entry
    of the member it faulted in.  Equal shapes make equal source, so each
    shape is compiled once per process, and a region of a known shape is its
    code with each default after at taken from the same operand of the same
    op."""
    ops = [op for _, block in members for op in (*block[0], block[4])]
    shape = (_shape(ops), *[(entry, len(block[0]), *block[1:4], block[5])
                            for entry, block in members])
    known = _GENERATED.get(shape)
    if known is None:
        defaults = {"at": at}
        lines = ["retired = labels = 0", "try:", "    while True:"]
        for k, (entry, (block_ops, fetches, retired, labels, term, end)) in enumerate(members):
            body = _lines(block_ops, term, defaults)
            body[-1] = "pc = " + body[-1].removeprefix("return ")
            body += [f"left -= {fetches}"] + [f"retired += {retired}"] * (retired > 0)
            body += [f"labels += {labels}"] * (labels > 0)
            if "state.halted" in _BODIES[_FORMS[term.__code__]]:  # its pc is None once halted
                body += ["if pc is None:", f"    pc = {end - 4}", "    break"]
            lines += [f"        {'el' * (k > 0)}if pc == {entry}:",
                      f"            if left < {fetches}:", "                break"]
            lines += [f"            {line}" for line in body]
        lines += ["        else:", "            break", "finally:",
                  "    at[:] = pc, left, retired, labels"]
        source = (f"def region(regs, pc, left{''.join(f', {param}' for param in defaults)}):\n"
                  + "".join(f"    {line}\n" for line in lines))
        [code] = [const for const in compile(source, "<rvtag generated>", "exec").co_consts
                  if isinstance(const, types.CodeType)]
        where = {}
        for i, op in enumerate(ops):
            for k, value in enumerate(op.__defaults__):
                where.setdefault(id(value), (i, k))
        if len(_GENERATED) >= _GENERATED_KEPT:
            _GENERATED.clear()
        known = _GENERATED[shape] = (code, [where[id(value)]
                                            for value in list(defaults.values())[1:]])
    code, slots = known
    return types.FunctionType(code, _GLOBALS, "region", (at, *[
        ops[i].__defaults__[k] for i, k in slots]))


class Emulator:
    def __init__(self, image: Image, mode: str = "compat", max_insns: int = 10 ** 8):
        """max_insns bounds every fetch: retired instructions plus carrier words."""
        if mode not in ("compat", "aware"):
            raise ValueError(f"unknown mode {mode!r}")
        if max_insns < 0:
            raise ValueError(f"max_insns must not be negative, not {max_insns}")
        self.mode = mode
        self.max_insns = max_insns
        self.memory = Memory(bytearray(image.text), bytearray(image.data), bytearray(STACK_SIZE))
        self.state = MachineState(pc=image.entry, memory=self.memory)
        self.counters = ExecCounters()
        self.policy = PolicyState(mode=image.policy if mode == "aware" else "none")
        self.state.regs[2] = STACK_TOP
        self._aware = mode == "aware"
        # What every load and store binds: the segments it hits, the end of
        # data, and the miss pair, which holds only text.
        self._access = (self.memory.data, self.memory.stack, DATA_BASE + len(self.memory.data),
                        *_misses(self.memory.text))
        self._effects = tagplan.EFFECTS[self.policy.mode]
        self._blocks = {}
        self._entered = set()
        self._sampled = set()  # the entries of cached blocks sampled once
        self._promoted = {}  # the entries of blocks sampled twice, the newest last
        self._hot = {}  # entry -> the block of each region member
        self._regions = {}  # the member entries of each region made -> that region
        self._at = [0, 0, 0, 0]  # where the region stopped, and what it ran
        self._words = 0  # the words of every region compiled so far
        self._labels_counted = {}  # policy.cl_addresses, in first-count order
        # the pc -> tag schedule, None at a carrier: compat mode reads no
        # carrier word, and marks only where the carriers are; a malformed
        # one raises NotACarrier in aware mode
        groups = tagplan.carrier_groups(image.tag_regions, image.text_end)
        self._tags = (tagplan.slot_tags(self.memory.text, groups) if self._aware
                      else dict.fromkeys(carrier for _, carrier, _ in groups))

    # -- translation ---------------------------------------------------------------
    def _translate(self, entry: int, limit: int = -1) -> tuple:
        """The block entered at `entry`, of at most `limit` fetches if given:
        (ops, fetches, retired, labels, terminator, end).  It ends at a
        control transfer, a BCF-tagged word, or after _BLOCK_WORDS words.  A
        CFL label's value is only for a checked jalr right after it, in the
        next block if the label ends this one.  An entry that is not a whole
        text word raises."""
        tags, text = self._tags, self.memory.text
        end = TEXT_BASE + len(text)
        if entry % 4 or not TEXT_BASE <= entry < end:
            raise BadInstruction(f"pc={entry:#x}: fetch outside whole text words", entry)
        stop = entry + 4 * (_BLOCK_WORDS if limit < 0 else limit)
        if stop < end:
            end = stop
        effects, aware, access = self._effects, self._aware, self._access
        ops = []
        carriers = labels = 0
        term = pending = None
        cfi_entry = self.policy.mode == "cfi"
        pc = entry
        while term is None and pc < end:
            tag = tags.get(pc, _UNTAGGED)
            if tag is None and aware:
                carriers += 1
                pc += 4
                continue
            try:
                word = _WORD.unpack_from(text, pc - TEXT_BASE)[0]
                mnemonic, rd, rs1, rs2, imm, op, make = _predecode(word)
            except codec.BadEncoding as exc:
                if pc != entry:  # run up to it; the next block raises
                    break
                self.counters.tag_fetches += tag is None  # fetched before it faults
                raise BadInstruction(f"pc={pc:#x}: {exc}", pc) from None
            label = mnemonic == "lui" and rd == 0
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
                    elif effect == "BCF" and mnemonic not in _TERM_MNEMONICS:
                        # the block ends here, and falls through
                        term = _factory(("goto", "BCF"))(self, pc, rd, rs1, rs2, 4)
            if make is not None:
                if mnemonic in _TERM_MNEMONICS:
                    term = make(self, pc, rd, rs1, rs2, imm)
                else:
                    op = make(access, pc, rd, rs1, rs2, imm)
            if op is not None:
                ops.append(op)
            pc += 4
        if pending is not None:  # the label ends the block: its value waits for the next one
            ops.append(_factory("site label")(self, pc, 0, 0, 0, pending))
        fetches = (pc - entry) >> 2
        term = term or _factory("goto")(self, pc, 0, 0, 0, 0)
        block = (tuple(ops), fetches, fetches - carriers, labels, term, pc)
        # Unlimited blocks are cached once entered twice: code that runs once,
        # like a long straight-line driver, then leaves no objects behind for
        # the garbage collector to keep traversing.
        if limit < 0:
            if entry in self._entered:
                self._blocks[entry] = block
            self._entered.add(entry)
        return block

    # -- promotion ---------------------------------------------------------------
    def _sample(self, entry: int, fetches: int) -> None:
        """The block entered at `entry`, not a region member, crossed a
        sample point, `fetches` into this run.  A cached block is noted the
        first time, and at any later sample it joins the region as its
        newest member: a block that the region evicted joins again once
        sampled again.  Code that is never sampled pays nothing."""
        if entry not in self._blocks:
            return
        if entry not in self._sampled:
            self._sampled.add(entry)
            return
        self._promoted.pop(entry, None)
        self._promoted[entry] = None
        self._remake_region(self.counters.total + fetches)

    def _remake_region(self, fetched: int) -> None:
        """Make the region of the last _REGION_BLOCKS promoted blocks: each
        member's entry then leads to the region, and an evicted member runs
        cold.  A loop wider than a region makes the same regions over and
        over, so each is kept, and only a new one is charged to the compile
        budget, which may refuse it after `fetched` fetches."""
        members = tuple(self._promoted)[-_REGION_BLOCKS:]
        blocks = [self._hot.get(entry) or self._blocks[entry] for entry in members]
        region = self._regions.get(members)
        if region is None:
            words = sum(block[1] for block in blocks)
            if (self._words + words) * _SAMPLE_FETCHES > fetched * _INTERVAL_WORDS:
                return
            self._words += words
            if len(self._regions) >= _GENERATED_KEPT:
                self._regions.clear()
            region = self._regions[members] = _region(list(zip(members, blocks)), self._at)
        self._blocks.update(self._hot)
        self._hot.clear()
        for entry, block in zip(members, blocks):
            self._hot[entry] = block
            self._blocks[entry] = ((), _REGION, 0, 0, region, block[5])

    def _upto(self, exc, entry: int, fetches: int, retired: int, labels: int) -> tuple:
        """(pc, fetches, retired, labels) where exc stopped the block entered
        at `entry`, from the counts before it: the words before exc.pc ran,
        and the word at exc.pc counts as fetched if it is a carrier, and as
        seen if a label."""
        _, n, n_ret, n_lab, _, _ = self._translate(entry, ((exc.pc - entry) >> 2) + 1)
        insn = self._tags.get(exc.pc, _UNTAGGED) is not None  # not a carrier
        return exc.pc, fetches + n - insn, retired + n_ret - insn, labels + n_lab

    # -- main loop -----------------------------------------------------------
    def run(self):
        state, counters, policy = self.state, self.counters, self.policy
        if state.halted:
            return state, counters, policy
        regs, blocks, translate = state.regs, self._blocks, self._translate
        hot, at = self._hot, self._at
        budget = self.max_insns - counters.total
        mark = min(budget, _SAMPLE_FETCHES)  # the next sample point
        fetches = retired = labels = 0  # added to counters at exit
        pc = state.pc
        try:
            while True:
                ops, n, n_ret, n_lab, term, end = blocks.get(pc) or translate(pc)
                if n > mark - fetches:
                    if n == _REGION:  # a region member: it runs the region up to the budget
                        region, (ops, n, n_ret, n_lab, term, end) = term, hot[pc]
                        if n <= budget - fetches:
                            try:
                                try:
                                    region(regs, pc, budget - fetches)
                                finally:  # where it stopped, past a fault at the faulting member
                                    pc, left, n_ret, n_lab = at
                                    fetches, retired = budget - left, retired + n_ret
                                    labels += n_lab
                            except (PolicyViolation, BadInstruction) as exc:
                                pc, fetches, retired, labels = self._upto(
                                    exc, pc, fetches, retired, labels)
                                raise
                            if state.halted:
                                break
                            continue
                    if n > budget - fetches:  # run to the budget one word at a time
                        if fetches >= budget:
                            raise LimitExceeded(
                                f"fetched {counters.total + fetches} words without exiting")
                        ops, n, n_ret, n_lab, term, end = translate(pc, 1)
                    else:  # it crosses the mark, or a region ran past it
                        mark = min(budget, fetches + n + _SAMPLE_FETCHES)
                        self._sample(pc, fetches)
                try:
                    for op in ops:
                        op(regs)
                    next_pc = term(regs)
                except (PolicyViolation, BadInstruction) as exc:
                    pc, fetches, retired, labels = self._upto(exc, pc, fetches, retired, labels)
                    raise
                fetches += n
                retired += n_ret
                labels += n_lab
                if next_pc is None:
                    pc = end - 4  # the halting word ends its block
                    break
                pc = next_pc
        finally:
            state.pc = pc
            counters.retired += retired
            counters.tag_fetches += fetches - retired
            counters.labels_seen += labels
            policy.cl_addresses[:] = self._labels_counted
        return state, counters, policy


def run(image: Image, mode: str = "compat", max_insns: int = 10 ** 8):
    """Execute an image from its entry point.

    Returns (MachineState, ExecCounters, PolicyState); raises
    PolicyViolation, BadInstruction, or LimitExceeded.
    """
    return Emulator(image, mode=mode, max_insns=max_insns).run()
