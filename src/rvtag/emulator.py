"""RV64 interpreter over RVTI images.

Two modes: "compat" executes every word architecturally (carriers are no-op
encodings and custom-opcode carriers fault, exactly as tag-unaware hardware
would behave); "aware" consumes carrier words as metadata and enforces the
image's policy.  Counters split retired instructions from carrier fetches so
dynamic overhead can be measured; the fetch budget, max_insns, bounds both.

Memory is three bytearray segments on tagplan's fixed map: text, data, and
a stack that ends at STACK_TOP.  They are disjoint in every image that link
or read_image returns.  An access outside them is a MemFault.  The slot
schedule (tagplan.carrier_groups) is resolved once, at load, into a pc ->
tag dict where None marks a carrier.  Code runs as basic blocks, translated
on entry and cached by entry pc once entered twice: closures with their
operands bound, constant counts, and one terminator that returns the next
pc.  Aware-mode carriers and x0 no-ops cost nothing, and each policy check
is folded in at translation.
"""

from __future__ import annotations

import functools
import operator
import struct
import weakref
from dataclasses import dataclass, field

from . import codec, tagplan
from .emitlink import Image
from .errors import RvtagError
from .tagplan import STACK_SIZE, STACK_TOP

EXIT_SYSCALL = 93
WRITE_SYSCALL = 64

MASK64 = (1 << 64) - 1
_WORD = struct.Struct("<I")


class BadInstruction(RvtagError):
    """Fetched word is not a supported instruction, or pc went astray;
    pc is the store's when a program store wrote a malformed carrier."""

    def __init__(self, message: str, pc: int | None = None):
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

    text_base: int
    text: bytearray
    data_base: int
    data: bytearray
    stack: bytearray

    def __post_init__(self):
        self.segments = ((self.data_base, self.data), (STACK_TOP - len(self.stack), self.stack),
                         (self.text_base, self.text))

    def find(self, addr: int, size: int) -> tuple:
        """(segment, offset) of an access wholly inside one segment, else (None, 0)."""
        for base, segment in self.segments:
            if 0 <= addr - base <= len(segment) - size:
                return segment, addr - base
        return None, 0

    def read(self, addr: int, size: int) -> int:
        segment, offset = self.find(addr, size)
        if segment is None:
            raise KeyError(f"{size} bytes at {addr:#x} are outside the memory map")
        return int.from_bytes(segment[offset:offset + size], "little")


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
# per policy, the tags that have an effect, by the name of the effect
_EFFECTS = {"cfi": {tagplan.policy_tag("cfi", "CFL"): "CFL"},
            "unarith": {tagplan.policy_tag("unarith", "UN_ARTH"): "UN_ARTH"},
            "coverage": {tagplan.policy_tag("coverage", tag): tag for tag in ("CL", "CI", "BCF")}}


def _sext32(value: int) -> int:
    return ((value & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000


def _signed(value: int) -> int:
    return (value & MASK64) - ((value & (1 << 63)) << 1)


# -- ops: op(regs) runs one instruction.  Pure ones are made from the word
# alone, (rd, rs1, rs2, imm), and shared by every pc holding it; the rest
# also take (machine, pc).  Operands are bound as defaults, which are cheaper
# to make and to read than closure cells.

def _const(rd, value):
    def op(regs, rd=rd, value=value):
        regs[rd] = value
    return op


def _reg_op(fn):
    def make(rd, rs1, rs2, imm):
        def op(regs, rd=rd, rs1=rs1, rs2=rs2, fn=fn):
            regs[rd] = fn(regs[rs1], regs[rs2]) & MASK64
        return op
    return make


def _imm_op(fn):
    def make(rd, rs1, rs2, imm):
        def op(regs, rd=rd, rs1=rs1, imm=imm, fn=fn):
            regs[rd] = fn(regs[rs1], imm) & MASK64
        return op
    return make


def _loader(fmt):
    unpack, size = struct.Struct(fmt).unpack_from, struct.calcsize(fmt)

    def make(m, pc, rd, rs1, rs2, imm):
        def op(regs, rd=rd, rs1=rs1, imm=imm, find=m._find, pc=pc):
            addr = (regs[rs1] + imm) & MASK64
            segment, offset = find(addr, size)
            if segment is None:
                raise PolicyViolation("MemFault", pc, f"{size}-byte load at {addr:#x}: unmapped")
            regs[rd] = unpack(segment, offset)[0] & MASK64
        return op
    return make


def _storer(fmt):
    pack, size = struct.Struct(fmt).pack_into, struct.calcsize(fmt)
    mask = (1 << 8 * size) - 1

    def make(m, pc, rd, rs1, rs2, imm):
        def op(regs, rs1=rs1, rs2=rs2, imm=imm, find=m._find, text=m.memory.text,
               written=m._on_text_store, pc=pc):
            addr = (regs[rs1] + imm) & MASK64
            segment, offset = find(addr, size)
            if segment is None:
                raise PolicyViolation("MemFault", pc, f"{size}-byte store at {addr:#x}: unmapped")
            if segment is text and written is None:
                raise PolicyViolation("MemFault", pc, f"store to execute-only text at {addr:#x}")
            pack(segment, offset, regs[rs2] & mask)
            if segment is text:
                written()(addr, size, pc)
        return op
    return make


_OPS = {
    "lui": lambda rd, rs1, rs2, imm: _const(rd, imm & MASK64),
    "addi": _imm_op(operator.add), "xori": _imm_op(operator.xor),
    "ori": _imm_op(operator.or_), "andi": _imm_op(operator.and_),
    "slti": _imm_op(lambda a, imm: _signed(a) < imm),
    "sltiu": _imm_op(lambda a, imm: a < imm & MASK64),
    "slli": _imm_op(operator.lshift), "srli": _imm_op(operator.rshift),
    "srai": _imm_op(lambda a, imm: _signed(a) >> imm),
    "addiw": _imm_op(lambda a, imm: _sext32(a + imm)),
    "add": _reg_op(operator.add), "sub": _reg_op(operator.sub),
    "xor": _reg_op(operator.xor), "or": _reg_op(operator.or_),
    "and": _reg_op(operator.and_), "mul": _reg_op(operator.mul),
    "slt": _reg_op(lambda a, b: _signed(a) < _signed(b)), "sltu": _reg_op(operator.lt),
    "sll": _reg_op(lambda a, b: a << (b & 63)), "srl": _reg_op(lambda a, b: a >> (b & 63)),
    "sra": _reg_op(lambda a, b: _signed(a) >> (b & 63)),
    "addw": _reg_op(lambda a, b: _sext32(a + b)), "subw": _reg_op(lambda a, b: _sext32(a - b)),
}
_PC_OPS = {
    "auipc": lambda m, pc, rd, rs1, rs2, imm: _const(rd, (pc + imm) & MASK64),
    "lb": _loader("<b"), "lh": _loader("<h"), "lw": _loader("<i"), "ld": _loader("<Q"),
    "lbu": _loader("<B"), "lhu": _loader("<H"), "lwu": _loader("<I"),
    "sb": _storer("<B"), "sh": _storer("<H"), "sw": _storer("<I"), "sd": _storer("<Q"),
}


def _pending(policy, value):
    """The op of a CFL site label: its value is for the checked jalr after it."""
    def op(regs, policy=policy, value=value):
        policy.pending_cfl = value
    return op


def _cfi_entry(policy, pc, label, jalr):
    """The first op of every block under cfi: after a checked jalr, the check
    of the block's first non-carrier word, at pc (label is the value of a CFL
    label there, else None).  Only a checked jalr keeps a site label's value."""
    def op(regs, policy=policy, pc=pc, label=label, jalr=jalr):
        expected = policy.awaiting_entry
        if expected is not None:
            if label is None:
                raise PolicyViolation("CfiMissingEntryLabel", pc,
                                      "computed call landed on an unlabelled instruction")
            if label != expected:
                raise PolicyViolation("CfiMismatch", pc,
                                      f"entry label {label:#x} != call-site label {expected:#x}")
            policy.awaiting_entry = None
        if not jalr:
            policy.pending_cfl = None
    return op


# -- terminators: term(regs) ends a block and returns the next pc, None once halted

def _goto(target):
    return lambda regs, target=target: target


def _jump(m, pc, rd, rs1, rs2, imm, jalr=False):
    def term(regs, rd=rd, rs1=rs1, imm=imm, link=(pc + 4) & MASK64, target=(pc + imm) & MASK64,
             jalr=jalr):
        if jalr:
            target = (regs[rs1] + imm) & MASK64 & ~1
        if rd:
            regs[rd] = link
        return target
    return term


def _ecall(m, pc, rd, rs1, rs2, imm):
    # a7=93 exit with code a0, a7=64 write the byte in a0; anything else
    # also stops the machine so a bare ecall is a clean one-instruction exit.
    def term(regs, state=m.state, pc=pc):
        if regs[17] == WRITE_SYSCALL:
            state.stdout.append(regs[10] & 0xFF)
            return pc + 4
        state.halted = True
        state.exit_code = regs[10]
        state.stop_reason = "exit" if regs[17] == EXIT_SYSCALL else "ecall"
    return term


def _ebreak(m, pc, rd, rs1, rs2, imm):
    def term(regs, state=m.state):
        state.halted = True
        state.stop_reason = "ebreak"
    return term


def _branch(taken):
    def make(m, pc, rd, rs1, rs2, imm):
        return lambda regs, rs1=rs1, rs2=rs2, target=(pc + imm) & MASK64, fall=pc + 4: (
            target if taken(regs[rs1], regs[rs2]) else fall)
    return make


_TERMS = {
    "jal": _jump, "jalr": functools.partial(_jump, jalr=True), "ecall": _ecall, "ebreak": _ebreak,
    "beq": _branch(operator.eq), "bne": _branch(operator.ne),
    "blt": _branch(lambda a, b: _signed(a) < _signed(b)),
    "bge": _branch(lambda a, b: _signed(a) >= _signed(b)),
    "bltu": _branch(operator.lt), "bgeu": _branch(operator.ge),
}
# mnemonics whose only effect is the write to rd, so rd == x0 makes them no-ops
_RD_ONLY = codec.MNEMONICS - codec.BRANCH_MNEMONICS - codec.STORE_MNEMONICS - set(_TERMS)


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
        if mnemonic in _OPS:
            op = _OPS[mnemonic](rd, rs1, rs2, imm)
        else:
            make = _PC_OPS.get(mnemonic) or _TERMS[mnemonic]
    return mnemonic, rd, rs1, rs2, imm, op, make


class Emulator:
    def __init__(self, image: Image, mode: str = "compat", max_insns: int = 10 ** 8):
        """max_insns bounds every fetch: retired instructions plus carrier words."""
        if mode not in ("compat", "aware"):
            raise ValueError(f"unknown mode {mode!r}")
        self.image = image
        self.mode = mode
        self.max_insns = max_insns
        self.memory = Memory(image.text_base, bytearray(image.text), image.data_base,
                             bytearray(image.data), bytearray(STACK_SIZE))
        self.state = MachineState(pc=image.entry, memory=self.memory)
        self.counters = ExecCounters()
        self.policy = PolicyState(mode=image.policy if mode == "aware" else "none")
        self.state.regs[2] = STACK_TOP
        # Shared by the memory ops.  Stores to writable text call back through
        # a weak reference, so no op holds its machine in a reference cycle.
        self._find = self.memory.find
        self._text_writable = mode == "aware" and image.policy == "coverage"
        self._on_text_store = (weakref.WeakMethod(self._text_written)
                               if self._text_writable else None)
        self._blocks = {}
        self._entered = set()
        self._tags = {}
        self._labels_counted = {}  # policy.cl_addresses, in first-count order
        self._groups = list(tagplan.carrier_groups(image.tag_regions, image.text_end))
        self._resolve(self._groups)

    def _fetch(self, pc: int) -> int:
        segment, offset = self.memory.find(pc, 4)
        if segment is None:
            raise BadInstruction(f"pc={pc:#x}: fetch outside the memory map")
        return _WORD.unpack_from(segment, offset)[0]

    # -- slot schedule -----------------------------------------------------------
    def _resolve(self, groups, pc: int | None = None) -> None:
        """Enter carrier groups into the pc -> tag schedule (None = carrier);
        pc is that of the store that wrote them, if any.  Every carrier is a
        text word: link and read_image give whole-word text at TEXT_BASE."""
        tags = self._tags
        aware = self.mode == "aware"
        text, base = self.memory.text, self.image.text_base
        region = None
        for group_region, carrier_addr, group_end in groups:
            tags[carrier_addr] = None
            if not aware:
                continue
            if group_region is not region:
                region = group_region
                read = codec.tag_reader(region.carrier, region.coverage)
            word = _WORD.unpack_from(text, carrier_addr - base)[0]
            try:
                values = read(word)
            except codec.NotACarrier as exc:
                raise BadInstruction(f"tag slot {carrier_addr:#x}: {exc}", pc) from None
            tags.update(zip(range(carrier_addr + 4, group_end, 4), values))

    def _text_written(self, addr: int, size: int, pc: int) -> None:
        """After the store at pc wrote text (coverage mode only): re-resolve
        each group whose carrier it wrote, and drop every block over a
        written word or over a word of such a group."""
        groups = [group for group in self._groups if addr - 4 < group[1] < addr + size]
        self._resolve(groups, pc)
        spans = [(addr, addr + size)] + [(start, end) for _, start, end in groups]
        for entry in [entry for entry, block in self._blocks.items()
                      if any(lo < block[-1] and entry < hi for lo, hi in spans)]:
            del self._blocks[entry]

    # -- translation ---------------------------------------------------------------
    def _translate(self, entry: int, limit: int = -1) -> tuple:
        """The block entered at `entry`, of at most `limit` fetches if given:
        (ops, fetches, retired, labels, terminator, end).  It ends at a
        control transfer or a BCF-tagged word, and where text is writable,
        after a store.  A CFL label's value is only for a checked jalr right
        after it."""
        if entry % 4:
            raise BadInstruction(f"misaligned pc {entry:#x}")
        base, tags, text = self.image.text_base, self._tags, self.memory.text
        in_text = base <= entry < base + len(text)
        end = base + len(text) if in_text else entry + 4
        if limit >= 0:
            end = min(end, entry + 4 * limit)
        effects = _EFFECTS.get(self.policy.mode, {})
        ops = []
        carriers = labels = 0
        term = pending = None
        cfi_entry = self.policy.mode == "cfi"
        pc = entry
        while term is None and pc < end:
            tag = tags.get(pc, _UNTAGGED)
            if tag is None and self.mode == "aware":
                carriers += 1
                pc += 4
                continue
            try:
                word = _WORD.unpack_from(text, pc - base)[0] if in_text else self._fetch(pc)
                mnemonic, rd, rs1, rs2, imm, op, make = _predecode(word)
            except codec.BadEncoding as exc:
                if pc != entry:  # run up to it; the next block raises
                    break
                self.counters.tag_fetches += tag is None  # fetched before it faults
                raise BadInstruction(f"pc={pc:#x}: {exc}") from None
            label = mnemonic == "lui" and rd == 0
            if tag is None:
                carriers += 1
            elif label:
                labels += 1
            if make is not None:
                if mnemonic in _TERMS:
                    term = make(self, pc, rd, rs1, rs2, imm)
                else:
                    op = make(self, pc, rd, rs1, rs2, imm)
                    if self._text_writable and mnemonic in codec.STORE_MNEMONICS:
                        term = _goto(pc + 4)  # the next word may be the one stored
            if effects:
                effect = effects.get(tag)
                checked = effect == "CFL" and mnemonic == "jalr"
                site = imm if effect == "CFL" and label else None
                if cfi_entry:
                    ops.append(_cfi_entry(self.policy, pc, site, checked))
                    cfi_entry = False
                if pending is not None and checked:
                    ops.append(_pending(self.policy, pending))
                pending = site
                if effect is not None and pending is None:
                    op, term = self._policy_op(effect, pc, mnemonic, label, rs1, rs2, imm,
                                               op, term, ops)
            if op is not None:
                ops.append(op)
            pc += 4
        if pending is not None:  # the label ends the block: its value waits for the next one
            ops.append(_pending(self.policy, pending))
        fetches = (pc - entry) >> 2
        block = (tuple(ops), fetches, fetches - carriers, labels, term or _goto(pc), pc)
        # Unlimited blocks inside text are cached once entered twice: code that
        # runs once, like a long straight-line driver, then leaves no objects
        # behind for the garbage collector to keep traversing.
        if in_text and limit < 0:
            if entry in self._entered:
                self._blocks[entry] = block
            self._entered.add(entry)
        return block

    def _policy_op(self, effect, pc, mnemonic, label, rs1, rs2, imm, op, term, ops) -> tuple:
        """(op, terminator) of the word at pc, whose tag has `effect`."""
        policy = self.policy
        if effect == "CFL" and mnemonic == "jalr":
            def term(regs, policy=policy, pc=pc, jalr=term):
                if policy.pending_cfl is None:
                    raise PolicyViolation("CfiMissingSiteLabel", pc,
                                          "checked jalr without a site label")
                policy.awaiting_entry, policy.pending_cfl = policy.pending_cfl, None
                return jalr(regs)
        elif effect == "UN_ARTH" and mnemonic in codec.ADDSUB_MNEMONICS:
            width = 32 if mnemonic in ("addw", "subw", "addiw") else 64

            def op(regs, inner=op, pc=pc, rs1=rs1, rs2=rs2, imm=imm, mask=(1 << width) - 1,
                   sub=mnemonic in ("sub", "subw"), immediate=mnemonic in ("addi", "addiw")):
                a = regs[rs1] & mask
                b = (imm if immediate else regs[rs2]) & mask
                if a < b if sub else a + b > mask:
                    raise PolicyViolation("UnsignedOverflow", pc, f"{a:#x} - {b:#x} borrows" if sub
                                          else f"{a:#x} + {b:#x} carries out of {width} bits")
                if inner is not None:
                    inner(regs)
        elif effect == "CL" and label:
            def op(regs, text=self.memory.text, offset=pc - self.image.text_base, pc=pc,
                   counted=self._labels_counted):
                word = _WORD.unpack_from(text, offset)[0]
                if word >> 12 < 0xFFFFF:  # the write-back saturates; the block stays
                    _WORD.pack_into(text, offset, word + (1 << 12))
                if pc not in counted:
                    counted[pc] = None
        elif effect == "CI":
            def count(regs, counts=policy.ci_counts, pc=pc):
                counts[pc] = counts.get(pc, 0) + 1
            ops.append(count)
        elif effect == "BCF":  # the block ends here, and its terminator counts the edge
            def term(regs, jump=term or _goto(pc + 4), bcf=policy.bcf, pc=pc):
                next_pc = jump(regs)
                per_site = bcf.setdefault(pc, {})
                edge = pc if next_pc is None else next_pc
                per_site[edge] = per_site.get(edge, 0) + 1
                return next_pc
        return op, term

    # -- main loop -----------------------------------------------------------
    def run(self):
        state, counters, policy = self.state, self.counters, self.policy
        if state.halted:
            return state, counters, policy
        regs, blocks, translate = state.regs, self._blocks, self._translate
        budget = self.max_insns - counters.total
        fetches = retired = labels = 0  # added to counters at exit
        pc = state.pc
        try:
            while True:
                ops, n, n_ret, n_lab, term, end = blocks.get(pc) or translate(pc)
                if n > budget - fetches:  # run to the budget one word at a time
                    if fetches >= budget:
                        raise LimitExceeded(
                            f"fetched {counters.total + fetches} words without exiting")
                    ops, n, n_ret, n_lab, term, end = translate(pc, 1)
                try:
                    for op in ops:
                        op(regs)
                    next_pc = term(regs)
                except (PolicyViolation, BadInstruction) as exc:
                    # the words before the faulting one ran; it counts as
                    # fetched if it is a carrier, and as seen if a label
                    upto = translate(pc, ((exc.pc - pc) >> 2) + 1)
                    insn = self._tags.get(exc.pc, _UNTAGGED) is not None  # not a carrier
                    pc, fetches, retired = exc.pc, fetches + upto[1] - insn, retired + upto[2] - insn
                    labels += upto[3]
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
