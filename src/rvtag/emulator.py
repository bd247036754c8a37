"""RV64 interpreter over RVTI images.

Two modes: "compat" executes every word architecturally (carriers are no-op
encodings and custom-opcode carriers fault, exactly as tag-unaware hardware
would behave); "aware" consumes carrier words as metadata and enforces the
image's policy.  Counters split retired instructions from carrier fetches so
dynamic overhead can be measured.

The slot schedule (tagplan.carrier_groups) is resolved once, at load, into a
pc -> tag table where None marks a carrier.  Compat mode enters carriers only
and never parses a payload; aware mode unpacks each carrier once, again when
a store rewrites it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from . import codec, tagplan
from .codec import Insn
from .emitlink import Image
from .errors import RvtagError

STACK_TOP = 0x800000
EXIT_SYSCALL = 93
WRITE_SYSCALL = 64

MASK64 = (1 << 64) - 1


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


@functools.lru_cache(maxsize=65536)
def _decode(word: int) -> Insn:
    return codec.decode(word)


def _sext32(value: int) -> int:
    return ((value & 0xFFFFFFFF) ^ 0x80000000) - 0x80000000


def _signed(value: int) -> int:
    return (value & MASK64) - ((value & (1 << 63)) << 1)


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
        for i, byte in enumerate(image.text):
            memory[image.text_base + i] = byte
        for i, byte in enumerate(image.data):
            memory[image.data_base + i] = byte

        self._word_cache = {}
        self._text_writable = (mode == "aware" and image.policy == "coverage")
        self._slots = {}
        self._resolve(tagplan.carrier_groups(image.tag_regions, image.text_end))

    # -- memory ------------------------------------------------------------
    def _load(self, addr: int, size: int) -> int:
        memory = self.state.memory
        value = 0
        for i in range(size):
            value |= memory.get((addr + i) & MASK64, 0) << (8 * i)
        return value

    def _store(self, addr: int, size: int, value: int) -> None:
        addr &= MASK64
        image = self.image
        in_text = addr < image.text_end and addr + size > image.text_base
        if in_text and not self._text_writable:
            raise PolicyViolation("MemFault", self.state.pc,
                                  f"store to execute-only text at {addr:#x}")
        memory = self.state.memory
        for i in range(size):
            byte_addr = (addr + i) & MASK64
            memory[byte_addr] = (value >> (8 * i)) & 0xFF
            self._word_cache.pop(byte_addr & ~3, None)
        if in_text:  # re-resolve each group whose carrier word was written
            self._resolve(group for group in tagplan.carrier_groups(
                image.tag_regions, image.text_end) if addr - 4 < group[1] < addr + size)

    def _fetch(self, pc: int) -> int:
        word = self._word_cache.get(pc)
        if word is None:
            word = self._load(pc, 4)
            self._word_cache[pc] = word
        return word

    # -- slot schedule -------------------------------------------------------
    def _resolve(self, groups) -> None:
        """Enter carrier groups into the pc -> tag table (None = carrier)."""
        slots = self._slots
        aware = self.mode == "aware"
        for region, carrier_addr, group_end in groups:
            slots[carrier_addr] = None
            if not aware:
                continue
            try:
                pack = codec.unpack_tags(region.carrier, region.coverage,
                                         self._load(carrier_addr, 4))
            except codec.NotACarrier as exc:
                raise BadInstruction(f"tag slot {carrier_addr:#x}: {exc}") from None
            slots.update(zip(range(carrier_addr + 4, group_end, 4), pack.tags))

    # -- main loop -----------------------------------------------------------
    def run(self):
        state = self.state
        counters = self.counters
        slots = self._slots
        while not state.halted:
            if counters.retired >= self.max_insns:
                raise LimitExceeded(
                    f"retired {counters.retired} instructions without exiting")
            pc = state.pc
            if pc % 4:
                raise BadInstruction(f"misaligned pc {pc:#x}")
            if self.mode == "compat":
                # Tag-unaware hardware never parses carrier payloads; the
                # slot schedule is consulted only to split the counters.
                if pc in slots:
                    counters.tag_fetches += 1
                    self._execute(self._decode_at(pc), None)
                    continue
                insn = self._decode_at(pc)
                if insn.mnemonic == "lui" and insn.rd == 0:
                    counters.labels_seen += 1
                self._execute(insn, None)
                counters.retired += 1
                continue
            tag = slots.get(pc)
            if tag is None and pc in slots:
                counters.tag_fetches += 1
                state.pc = pc + 4  # metadata only, nothing retired
                continue
            insn = self._decode_at(pc)
            is_label = insn.mnemonic == "lui" and insn.rd == 0
            if is_label:
                counters.labels_seen += 1
            self._enforce(insn, tag, is_label)
        return state, counters, self.policy

    def _decode_at(self, pc: int) -> Insn:
        word = self._fetch(pc)
        try:
            return _decode(word)
        except codec.BadEncoding as exc:
            raise BadInstruction(f"pc={pc:#x}: {exc}") from None

    # -- policy enforcement ----------------------------------------------------
    def _enforce(self, insn: Insn, tag, is_label: bool) -> None:
        policy = self.policy
        state = self.state
        pc = state.pc
        if policy.mode == "cfi":
            if policy.awaiting_entry is not None:
                if is_label and tag == _CFL:
                    if insn.imm != policy.awaiting_entry:
                        raise PolicyViolation(
                            "CfiMismatch", pc,
                            f"entry label {insn.imm:#x} != call-site label "
                            f"{policy.awaiting_entry:#x}")
                    policy.awaiting_entry = None
                else:
                    raise PolicyViolation(
                        "CfiMissingEntryLabel", pc,
                        "computed call landed on an unlabelled instruction")
            if is_label and tag == _CFL:
                policy.pending_cfl = insn.imm
            elif insn.mnemonic == "jalr" and tag == _CFL:
                if policy.pending_cfl is None:
                    raise PolicyViolation(
                        "CfiMissingSiteLabel", pc, "checked jalr without a site label")
                policy.awaiting_entry = policy.pending_cfl
                policy.pending_cfl = None
            else:
                policy.pending_cfl = None
        elif policy.mode == "unarith":
            if tag == _UN_ARTH and insn.mnemonic in codec.ADDSUB_MNEMONICS:
                self._check_unsigned(insn)
        elif policy.mode == "coverage":
            if tag == _CL and is_label:
                self._count_label(pc)
            elif tag == _CI:
                policy.ci_counts[pc] = policy.ci_counts.get(pc, 0) + 1
            elif tag == _BCF:
                self._execute(insn, tag)
                self.counters.retired += 1
                per_site = policy.bcf.setdefault(pc, {})
                per_site[state.pc] = per_site.get(state.pc, 0) + 1
                return
        self._execute(insn, tag)
        self.counters.retired += 1

    def _check_unsigned(self, insn: Insn) -> None:
        regs = self.state.regs
        width = 32 if insn.mnemonic in ("addw", "subw", "addiw") else 64
        mask = (1 << width) - 1
        a = regs[insn.rs1] & mask
        if insn.mnemonic in ("addi", "addiw"):
            b = insn.imm & mask
        else:
            b = regs[insn.rs2] & mask
        if insn.mnemonic in ("sub", "subw"):
            overflow = a < b
            what = f"{a:#x} - {b:#x} borrows"
        else:
            overflow = a + b > mask
            what = f"{a:#x} + {b:#x} carries out of {width} bits"
        if overflow:
            raise PolicyViolation("UnsignedOverflow", self.state.pc, what)

    def _count_label(self, pc: int) -> None:
        """CL write-back: bump the label's 20-bit payload in text, saturating."""
        word = self._fetch(pc)
        count = (word >> 12) & 0xFFFFF
        if count < 0xFFFFF:
            new_word = (word & ~(0xFFFFF << 12)) | ((count + 1) << 12)
            for i in range(4):
                self.state.memory[pc + i] = (new_word >> (8 * i)) & 0xFF
            self._word_cache[pc] = new_word
        if pc not in self.policy.cl_addresses:
            self.policy.cl_addresses.append(pc)

    # -- instruction semantics ---------------------------------------------
    def _execute(self, insn: Insn, tag) -> None:
        state = self.state
        regs = state.regs
        pc = state.pc
        mn = insn.mnemonic
        next_pc = pc + 4

        if mn == "lui":
            value = _sext32(insn.imm << 12) & MASK64
            if insn.rd:
                regs[insn.rd] = value
        elif mn == "auipc":
            if insn.rd:
                regs[insn.rd] = (pc + _sext32(insn.imm << 12)) & MASK64
        elif mn == "jal":
            if insn.rd:
                regs[insn.rd] = next_pc & MASK64
            next_pc = (pc + insn.imm) & MASK64
        elif mn == "jalr":
            target = (regs[insn.rs1] + insn.imm) & MASK64 & ~1
            if insn.rd:
                regs[insn.rd] = (pc + 4) & MASK64
            next_pc = target
        elif mn in codec.BRANCH_MNEMONICS:
            a, b = regs[insn.rs1], regs[insn.rs2]
            taken = {
                "beq": a == b,
                "bne": a != b,
                "blt": _signed(a) < _signed(b),
                "bge": _signed(a) >= _signed(b),
                "bltu": a < b,
                "bgeu": a >= b,
            }[mn]
            if taken:
                next_pc = (pc + insn.imm) & MASK64
        elif mn in codec.LOAD_MNEMONICS:
            addr = (regs[insn.rs1] + insn.imm) & MASK64
            size = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2,
                    "lw": 4, "lwu": 4, "ld": 8}[mn]
            value = self._load(addr, size)
            if mn in ("lb", "lh", "lw"):
                sign = 1 << (8 * size - 1)
                value = (value ^ sign) - sign
            if insn.rd:
                regs[insn.rd] = value & MASK64
        elif mn in codec.STORE_MNEMONICS:
            addr = (regs[insn.rs1] + insn.imm) & MASK64
            size = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}[mn]
            self._store(addr, size, regs[insn.rs2])
        elif mn == "addi":
            if insn.rd:
                regs[insn.rd] = (regs[insn.rs1] + insn.imm) & MASK64
        elif mn == "addiw":
            if insn.rd:
                regs[insn.rd] = _sext32(regs[insn.rs1] + insn.imm) & MASK64
        elif mn == "slti":
            if insn.rd:
                regs[insn.rd] = 1 if _signed(regs[insn.rs1]) < insn.imm else 0
        elif mn == "sltiu":
            if insn.rd:
                regs[insn.rd] = 1 if regs[insn.rs1] < (insn.imm & MASK64) else 0
        elif mn == "xori":
            if insn.rd:
                regs[insn.rd] = (regs[insn.rs1] ^ (insn.imm & MASK64)) & MASK64
        elif mn == "ori":
            if insn.rd:
                regs[insn.rd] = (regs[insn.rs1] | (insn.imm & MASK64)) & MASK64
        elif mn == "andi":
            if insn.rd:
                regs[insn.rd] = (regs[insn.rs1] & (insn.imm & MASK64)) & MASK64
        elif mn == "slli":
            if insn.rd:
                regs[insn.rd] = (regs[insn.rs1] << insn.imm) & MASK64
        elif mn == "srli":
            if insn.rd:
                regs[insn.rd] = regs[insn.rs1] >> insn.imm
        elif mn == "srai":
            if insn.rd:
                regs[insn.rd] = (_signed(regs[insn.rs1]) >> insn.imm) & MASK64
        elif mn == "add":
            if insn.rd:
                regs[insn.rd] = (regs[insn.rs1] + regs[insn.rs2]) & MASK64
        elif mn == "sub":
            if insn.rd:
                regs[insn.rd] = (regs[insn.rs1] - regs[insn.rs2]) & MASK64
        elif mn == "addw":
            if insn.rd:
                regs[insn.rd] = _sext32(regs[insn.rs1] + regs[insn.rs2]) & MASK64
        elif mn == "subw":
            if insn.rd:
                regs[insn.rd] = _sext32(regs[insn.rs1] - regs[insn.rs2]) & MASK64
        elif mn == "sll":
            if insn.rd:
                regs[insn.rd] = (regs[insn.rs1] << (regs[insn.rs2] & 63)) & MASK64
        elif mn == "srl":
            if insn.rd:
                regs[insn.rd] = regs[insn.rs1] >> (regs[insn.rs2] & 63)
        elif mn == "sra":
            if insn.rd:
                regs[insn.rd] = (_signed(regs[insn.rs1]) >> (regs[insn.rs2] & 63)) & MASK64
        elif mn == "slt":
            if insn.rd:
                regs[insn.rd] = 1 if _signed(regs[insn.rs1]) < _signed(regs[insn.rs2]) else 0
        elif mn == "sltu":
            if insn.rd:
                regs[insn.rd] = 1 if regs[insn.rs1] < regs[insn.rs2] else 0
        elif mn == "xor":
            if insn.rd:
                regs[insn.rd] = regs[insn.rs1] ^ regs[insn.rs2]
        elif mn == "or":
            if insn.rd:
                regs[insn.rd] = regs[insn.rs1] | regs[insn.rs2]
        elif mn == "and":
            if insn.rd:
                regs[insn.rd] = regs[insn.rs1] & regs[insn.rs2]
        elif mn == "mul":
            if insn.rd:
                regs[insn.rd] = (regs[insn.rs1] * regs[insn.rs2]) & MASK64
        elif mn == "ecall":
            self._ecall()
        elif mn == "ebreak":
            state.halted = True
            state.stop_reason = "ebreak"
        else:  # pragma: no cover - decode() limits the mnemonic set
            raise BadInstruction(f"unhandled mnemonic {mn}")
        if not state.halted:
            state.pc = next_pc

    def _ecall(self) -> None:
        # a7=93 exit with code a0, a7=64 write the byte in a0; anything else
        # also stops the machine so a bare ecall is a clean one-instruction exit.
        state = self.state
        call = state.regs[17]
        if call == WRITE_SYSCALL:
            state.stdout.append(state.regs[10] & 0xFF)
            return
        state.halted = True
        state.exit_code = state.regs[10]
        state.stop_reason = "exit" if call == EXIT_SYSCALL else "ecall"


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
        return {
            "schema": self.schema,
            "baseline_dynamic": self.baseline_dynamic,
            "tagged_dynamic": self.tagged_dynamic,
            "dynamic_overhead_pct": self.dynamic_overhead_pct,
            "baseline_text_bytes": self.baseline_text_bytes,
            "tagged_text_bytes": self.tagged_text_bytes,
            "static_overhead_pct": self.static_overhead_pct,
            "tagged_labels_seen": self.tagged_labels_seen,
        }

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
