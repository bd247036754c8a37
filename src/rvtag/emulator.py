"""RV64 interpreter over RVTI images.

Two modes: "compat" executes every word architecturally (carriers are no-op
encodings and custom-opcode carriers fault, exactly as tag-unaware hardware
would behave); "aware" consumes carrier words as metadata and enforces the
image's policy.  Counters split retired instructions from carrier fetches so
dynamic overhead can be measured.

The slot schedule (tagplan.carrier_groups) is resolved once, at load, into a
pc -> tag dict where None marks a carrier: compat mode enters carriers only,
aware mode unpacks each one.  Text is unpacked once into a word list, and
each pc decoded on its first fetch into a dispatch-table entry: a word tuple
(handler, rd, rs1, rs2, imm, mnemonic) shared by every pc holding that word,
and a kind that folds in the policy effect of the pc's tag, so a pc without
one skips enforcement.  A coverage-mode store to text refreshes the word list
and drops the entries it touches, a whole group's when it hits the carrier.
"""

from __future__ import annotations

import functools
import operator
import struct
from dataclasses import asdict, dataclass, field

from . import codec, tagplan
from .emitlink import Image
from .errors import RvtagError

STACK_TOP = 0x800000
EXIT_SYSCALL = 93
WRITE_SYSCALL = 64

MASK64 = (1 << 64) - 1
_ZEROS = (0,) * 8  # default byte of each unwritten address


class BadInstruction(RvtagError):
    """Fetched word is not a supported instruction, or pc went astray."""


class LimitExceeded(RvtagError):
    """Retired-instruction budget exhausted."""


class PolicyViolation(RvtagError):
    """Tag policy check failed; carries kind, pc, and a one-line detail."""

    def __init__(self, kind: str, pc: int, detail: str):
        super().__init__(f"{kind} at pc={pc:#x}: {detail}")
        self.kind = kind
        self.pc = pc
        self.detail = detail


@dataclass
class MachineState:
    pc: int = 0
    regs: list = field(default_factory=lambda: [0] * 32)
    memory: dict = field(default_factory=dict)
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


_CFL = tagplan.policy_tag("cfi", "CFL")
_UN_ARTH = tagplan.policy_tag("unarith", "UN_ARTH")
_CL, _CI, _BCF = (tagplan.policy_tag("coverage", name) for name in ("CL", "CI", "BCF"))
_UNTAGGED = -1  # schedule value of a pc outside every carrier group

# Table entry kinds: the policy effect of a pc's tag (_INSN: none), set at fill time.
_INSN, _LABEL, _CARRIER, _CFL_LABEL, _CFL_JALR, _UNSIGNED, _CL_LABEL, _CI_INSN, _BCF_EDGE = range(9)


def _sext32(value: int) -> int:
    return ((value & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000


def _signed(value: int) -> int:
    return (value & MASK64) - ((value & (1 << 63)) << 1)


# -- handlers: (machine, regs, pc, rd, rs1, rs2, imm) -> next pc, None once halted

def _nop(m, regs, pc, rd, rs1, rs2, imm):
    return pc + 4


def _label(m, regs, pc, rd, rs1, rs2, imm):
    """lui x0: a no-op whose raw immediate the policies read."""
    return pc + 4


def _auipc(m, regs, pc, rd, rs1, rs2, imm):
    regs[rd] = (pc + imm) & MASK64
    return pc + 4


def _jal(m, regs, pc, rd, rs1, rs2, imm):
    if rd:
        regs[rd] = (pc + 4) & MASK64
    return (pc + imm) & MASK64


def _jalr(m, regs, pc, rd, rs1, rs2, imm):
    target = (regs[rs1] + imm) & MASK64 & ~1
    if rd:
        regs[rd] = (pc + 4) & MASK64
    return target


def _ecall(m, regs, pc, rd, rs1, rs2, imm):
    # a7=93 exit with code a0, a7=64 write the byte in a0; anything else
    # also stops the machine so a bare ecall is a clean one-instruction exit.
    state = m.state
    if regs[17] == WRITE_SYSCALL:
        state.stdout.append(regs[10] & 0xFF)
        return pc + 4
    state.halted = True
    state.exit_code = regs[10]
    state.stop_reason = "exit" if regs[17] == EXIT_SYSCALL else "ecall"
    return None


def _ebreak(m, regs, pc, rd, rs1, rs2, imm):
    m.state.halted = True
    m.state.stop_reason = "ebreak"


def _reg_op(fn):
    def handler(m, regs, pc, rd, rs1, rs2, imm):
        regs[rd] = fn(regs[rs1], regs[rs2]) & MASK64
        return pc + 4
    return handler


def _imm_op(fn):
    def handler(m, regs, pc, rd, rs1, rs2, imm):
        regs[rd] = fn(regs[rs1], imm) & MASK64
        return pc + 4
    return handler


def _branch(taken):
    def handler(m, regs, pc, rd, rs1, rs2, imm):
        return (pc + imm) & MASK64 if taken(regs[rs1], regs[rs2]) else pc + 4
    return handler


def _loader(size, signed):
    sign = 1 << (8 * size - 1) if signed else 0

    def handler(m, regs, pc, rd, rs1, rs2, imm):
        regs[rd] = ((m._load((regs[rs1] + imm) & MASK64, size) ^ sign) - sign) & MASK64
        return pc + 4
    return handler


def _storer(size):
    def handler(m, regs, pc, rd, rs1, rs2, imm):
        m._store((regs[rs1] + imm) & MASK64, size, regs[rs2], pc)
        return pc + 4
    return handler


_HANDLERS = {
    "lui": _imm_op(lambda _, imm: imm), "auipc": _auipc, "jal": _jal, "jalr": _jalr,
    "ecall": _ecall, "ebreak": _ebreak,
    "beq": _branch(operator.eq), "bne": _branch(operator.ne),
    "blt": _branch(lambda a, b: _signed(a) < _signed(b)),
    "bge": _branch(lambda a, b: _signed(a) >= _signed(b)),
    "bltu": _branch(operator.lt), "bgeu": _branch(operator.ge),
    "lb": _loader(1, True), "lh": _loader(2, True), "lw": _loader(4, True),
    "ld": _loader(8, False), "lbu": _loader(1, False), "lhu": _loader(2, False),
    "lwu": _loader(4, False),
    "sb": _storer(1), "sh": _storer(2), "sw": _storer(4), "sd": _storer(8),
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
# mnemonics whose only effect is the write to rd, so rd == x0 makes them no-ops
_RD_ONLY = codec.MNEMONICS - codec.BRANCH_MNEMONICS - codec.STORE_MNEMONICS - {
    "jal", "jalr", "ecall", "ebreak"}
_SKIP = (_nop, 0, 0, 0, 0, None)  # an aware-mode carrier: metadata only


@functools.lru_cache(maxsize=65536)
def _predecode(word: int) -> tuple:
    """(handler, rd, rs1, rs2, imm, mnemonic) of a word, shared by every pc
    holding it.  lui/auipc immediates come shifted, but a label (lui x0)
    keeps its raw 20-bit immediate for the cfi compare."""
    insn = codec.decode(word)
    mnemonic, rd, imm = insn.mnemonic, insn.rd, insn.imm
    handler = _HANDLERS[mnemonic]
    if rd == 0 and mnemonic in _RD_ONLY:
        handler = _label if mnemonic == "lui" else _nop
    elif mnemonic in ("lui", "auipc"):
        imm = _sext32(imm << 12)
    return handler, rd, insn.rs1, insn.rs2, imm, mnemonic


def _kind(policy: str, tag: int, op: tuple) -> int:
    """Table kind of a non-carrier pc: which policy effect its tag has."""
    label = op[0] is _label
    if policy == "cfi" and tag == _CFL and (label or op[5] == "jalr"):
        return _CFL_LABEL if label else _CFL_JALR
    if policy == "unarith" and tag == _UN_ARTH and op[5] in codec.ADDSUB_MNEMONICS:
        return _UNSIGNED
    if policy == "coverage" and (tag == _CL and label or tag in (_CI, _BCF)):
        return {_CL: _CL_LABEL, _CI: _CI_INSN, _BCF: _BCF_EDGE}[tag]
    return _LABEL if label else _INSN


def _check_unsigned(regs, pc, rs1, rs2, imm, mnemonic) -> None:
    width = 32 if mnemonic in ("addw", "subw", "addiw") else 64
    mask = (1 << width) - 1
    a = regs[rs1] & mask
    b = (imm if mnemonic in ("addi", "addiw") else regs[rs2]) & mask
    if mnemonic in ("sub", "subw") and a < b:
        raise PolicyViolation("UnsignedOverflow", pc, f"{a:#x} - {b:#x} borrows")
    if mnemonic not in ("sub", "subw") and a + b > mask:
        raise PolicyViolation("UnsignedOverflow", pc, f"{a:#x} + {b:#x} carries out of {width} bits")


def _span(addr: int, size: int):  # the byte addresses of an access, wrapping at 2**64
    if addr + size <= MASK64 + 1:
        return range(addr, addr + size)
    return [(addr + i) & MASK64 for i in range(size)]


class Emulator:
    def __init__(self, image: Image, mode: str = "compat", max_insns: int = 10 ** 8):
        if mode not in ("compat", "aware"):
            raise ValueError(f"unknown mode {mode!r}")
        self.image = image
        self.mode = mode
        self.max_insns = max_insns
        self.state = MachineState(pc=image.entry)
        self.counters = ExecCounters()
        self.policy = PolicyState(mode=image.policy if mode == "aware" else "none")
        self.state.regs[2] = STACK_TOP

        memory = self.state.memory
        memory.update(zip(range(image.text_base, image.text_end), image.text))
        memory.update(zip(range(image.data_base, image.data_base + len(image.data)), image.data))

        # Whole text words, unpacked once; fetches outside them read memory.
        count = 0 if image.text_base % 4 else len(image.text) // 4
        self._words = list(struct.unpack_from(f"<{count}I", image.text))
        self._words_end = image.text_base + 4 * count
        self._text_writable = (mode == "aware" and image.policy == "coverage")
        self._tags = {}
        self._table = {}
        self._labels_counted = set()
        self._resolve(tagplan.carrier_groups(image.tag_regions, image.text_end))

    # -- memory ------------------------------------------------------------
    def _load(self, addr: int, size: int) -> int:
        return int.from_bytes(bytes(map(self.state.memory.get, _span(addr, size), _ZEROS)), "little")

    def _word(self, pc: int) -> int:
        if self.image.text_base <= pc < self._words_end:
            return self._words[(pc - self.image.text_base) >> 2]
        return self._load(pc, 4)

    def _store(self, addr: int, size: int, value: int, pc: int) -> None:
        image = self.image
        in_text = addr < image.text_end and addr + size > image.text_base
        if in_text and not self._text_writable:
            raise PolicyViolation("MemFault", pc, f"store to execute-only text at {addr:#x}")
        data = (value & ((1 << 8 * size) - 1)).to_bytes(size, "little")
        self.state.memory.update(zip(_span(addr, size), data))
        if not in_text:
            return
        # refresh the words written and drop their entries, then re-resolve
        # each group whose carrier was written and drop the group's entries
        base = image.text_base
        for word_pc in range(addr - (addr - base) % 4, addr + size, 4):
            self._table.pop(word_pc, None)
            if base <= word_pc < self._words_end:
                self._words[(word_pc - base) >> 2] = self._load(word_pc, 4)
        groups = [group for group in tagplan.carrier_groups(image.tag_regions, image.text_end)
                  if addr - 4 < group[1] < addr + size]
        self._resolve(groups)
        for _, carrier_addr, group_end in groups:
            for word_pc in range(carrier_addr, group_end, 4):
                self._table.pop(word_pc, None)

    # -- slot schedule and dispatch table -----------------------------------
    def _resolve(self, groups) -> None:
        """Enter carrier groups into the pc -> tag schedule (None = carrier)."""
        tags = self._tags
        aware = self.mode == "aware"
        for region, carrier_addr, group_end in groups:
            tags[carrier_addr] = None
            if not aware:
                continue
            read = codec.tag_reader(region.carrier, region.coverage)
            try:
                values = read(self._word(carrier_addr))
            except codec.NotACarrier as exc:
                raise BadInstruction(f"tag slot {carrier_addr:#x}: {exc}") from None
            tags.update(zip(range(carrier_addr + 4, group_end, 4), values))

    def _fill(self, pc: int) -> tuple:
        """The (kind, word tuple) entry of pc, kept if pc is a text word."""
        if pc % 4:
            raise BadInstruction(f"misaligned pc {pc:#x}")
        tag = self._tags.get(pc, _UNTAGGED)
        if tag is None and self.mode == "aware":
            entry = (_CARRIER, _SKIP)
        else:
            try:
                op = _predecode(self._word(pc))
            except codec.BadEncoding as exc:
                if tag is None:  # a carrier is counted as fetched before it runs
                    self.counters.tag_fetches += 1
                raise BadInstruction(f"pc={pc:#x}: {exc}") from None
            entry = (_CARRIER if tag is None else _kind(self.policy.mode, tag, op), op)
        if self.image.text_base <= pc < self._words_end:
            self._table[pc] = entry
        return entry

    # -- main loop -----------------------------------------------------------
    def run(self):
        state, counters, policy = self.state, self.counters, self.policy
        if state.halted:
            return state, counters, policy
        regs, table, limit = state.regs, self._table, self.max_insns - counters.retired
        retired = fetched = labels = 0  # added to counters at exit, as _fill adds its own
        # cfi: the step after a site label or a checked jalr is checked
        armed = policy.pending_cfl is not None or policy.awaiting_entry is not None
        pc = state.pc
        try:
            while True:
                if retired >= limit:
                    raise LimitExceeded(
                        f"retired {counters.retired + retired} instructions without exiting")
                kind, (handler, rd, rs1, rs2, imm, mnemonic) = table.get(pc) or self._fill(pc)
                if kind == _INSN and not armed:
                    next_pc = handler(self, regs, pc, rd, rs1, rs2, imm)
                    retired += 1
                elif kind == _CARRIER:  # aware mode's handler is _SKIP's no-op
                    fetched += 1
                    next_pc = handler(self, regs, pc, rd, rs1, rs2, imm)
                else:
                    if handler is _label:
                        labels += 1
                    if armed:
                        armed = False
                        expected = policy.awaiting_entry
                        if expected is not None and kind != _CFL_LABEL:
                            raise PolicyViolation(
                                "CfiMissingEntryLabel", pc,
                                "computed call landed on an unlabelled instruction")
                        if expected is not None and imm != expected:
                            raise PolicyViolation(
                                "CfiMismatch", pc,
                                f"entry label {imm:#x} != call-site label {expected:#x}")
                        policy.awaiting_entry = None
                    if kind == _CFL_LABEL:
                        policy.pending_cfl = imm
                        armed = True
                    elif kind == _CFL_JALR:
                        if policy.pending_cfl is None:
                            raise PolicyViolation(
                                "CfiMissingSiteLabel", pc, "checked jalr without a site label")
                        policy.awaiting_entry, policy.pending_cfl = policy.pending_cfl, None
                        armed = True
                    else:
                        policy.pending_cfl = None
                        if kind == _UNSIGNED:
                            _check_unsigned(regs, pc, rs1, rs2, imm, mnemonic)
                        elif kind == _CL_LABEL:
                            self._count_label(pc)
                        elif kind == _CI_INSN:
                            policy.ci_counts[pc] = policy.ci_counts.get(pc, 0) + 1
                    next_pc = handler(self, regs, pc, rd, rs1, rs2, imm)
                    retired += 1
                    if kind == _BCF_EDGE:
                        per_site = policy.bcf.setdefault(pc, {})
                        target = pc if next_pc is None else next_pc
                        per_site[target] = per_site.get(target, 0) + 1
                if next_pc is None:
                    break
                pc = next_pc
        finally:
            state.pc = pc
            counters.retired += retired
            counters.tag_fetches += fetched
            counters.labels_seen += labels
        return state, counters, policy

    def _count_label(self, pc: int) -> None:
        """CL write-back: bump the label's payload, saturating (its entry stays)."""
        word = self._word(pc)
        if word >> 12 < 0xFFFFF:
            word += 1 << 12
            self.state.memory.update(zip(range(pc, pc + 4), word.to_bytes(4, "little")))
            if self.image.text_base <= pc < self._words_end:
                self._words[(pc - self.image.text_base) >> 2] = word
        if pc not in self._labels_counted:
            self._labels_counted.add(pc)
            self.policy.cl_addresses.append(pc)


def run(image: Image, mode: str = "compat", max_insns: int = 10 ** 8):
    """Execute an image from its entry point.

    Returns (MachineState, ExecCounters, PolicyState); raises
    PolicyViolation, BadInstruction, or LimitExceeded.
    """
    return Emulator(image, mode=mode, max_insns=max_insns).run()


# ---------------------------------------------------------------------------
# Overhead reporting

@dataclass(frozen=True)
class Report:
    """Dynamic and static overhead of a tagged build over its baseline."""

    schema: str
    baseline_dynamic: int
    tagged_dynamic: int
    dynamic_overhead_pct: float
    baseline_text_bytes: int
    tagged_text_bytes: int
    static_overhead_pct: float
    tagged_labels_seen: int = 0

    def to_dict(self) -> dict:
        return asdict(self)

    def to_text(self) -> str:
        lines = [
            f"{'':20} {'baseline':>12} {'tagged':>12} {'overhead':>10}",
            f"{'dynamic fetches':20} {self.baseline_dynamic:>12} "
            f"{self.tagged_dynamic:>12} {self.dynamic_overhead_pct:>9.2f}%",
            f"{'text bytes':20} {self.baseline_text_bytes:>12} "
            f"{self.tagged_text_bytes:>12} {self.static_overhead_pct:>9.2f}%",
        ]
        return "\n".join(lines)


REPORT_SCHEMA = "rvtag-report-v1"


def _pct(baseline: int, tagged: int) -> float:
    if baseline == 0:
        return 0.0
    return (tagged - baseline) * 100.0 / baseline


def report(counters_baseline: ExecCounters, counters_tagged: ExecCounters,
           sizes: tuple) -> Report:
    """Overheads of a tagged run/build relative to its untagged baseline."""
    baseline_bytes, tagged_bytes = sizes
    return Report(
        schema=REPORT_SCHEMA,
        baseline_dynamic=counters_baseline.total,
        tagged_dynamic=counters_tagged.total,
        dynamic_overhead_pct=_pct(counters_baseline.total, counters_tagged.total),
        baseline_text_bytes=baseline_bytes,
        tagged_text_bytes=tagged_bytes,
        static_overhead_pct=_pct(baseline_bytes, tagged_bytes),
        tagged_labels_seen=counters_tagged.labels_seen,
    )
