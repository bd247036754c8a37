"""Bit-exact encoding/decoding of the supported RV64 subset and tag-carrier words.

Every instruction is a 32-bit uncompressed word (low two bits 0b11).  Tag
carriers are architectural no-ops (lui x0 / addi x0,x0) or a custom-0 opcode
word; their immediate fields hold packed per-instruction tag values, lowest
slot in the lowest-order bits.

ENCODERS is the one per-mnemonic encoder table, built from _ISA: each entry
checks the register indexes, then the immediate, and packs the word.
encode_fields and link's word loop go through it; an unknown mnemonic raises
OperandRange.  The assembler checks a statement's immediate against
_IMM_BOUNDS itself and calls an encoder only to report a bad one.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

from .errors import BuildError


class OperandRange(BuildError):
    """An immediate or register index does not fit its encoding field."""


class PackOverflow(BuildError):
    """A tag list does not fit its layout: no such layout, a tag count other
    than the coverage, or a value wider than the per-tag bit width."""


class NotACarrier(BuildError):
    """A word's opcode/rd fields do not match the expected carrier pattern."""


# ---------------------------------------------------------------------------
# Instruction formats

OP_LUI = 0b0110111
OP_AUIPC = 0b0010111
OP_JAL = 0b1101111
OP_JALR = 0b1100111
OP_BRANCH = 0b1100011
OP_LOAD = 0b0000011
OP_STORE = 0b0100011
OP_IMM = 0b0010011
OP_IMM32 = 0b0011011
OP_REG = 0b0110011
OP_REG32 = 0b0111011
OP_SYSTEM = 0b1110011
OP_CUSTOM0 = 0b0001011

# mnemonic -> (format, opcode7, funct3, funct7)
_U, _J, _I, _B, _S, _R, _SHIFT, _SYS = range(8)

_ISA = {
    "lui":   (_U, OP_LUI, None, None),
    "auipc": (_U, OP_AUIPC, None, None),
    "jal":   (_J, OP_JAL, None, None),
    "jalr":  (_I, OP_JALR, 0b000, None),
    "beq":   (_B, OP_BRANCH, 0b000, None),
    "bne":   (_B, OP_BRANCH, 0b001, None),
    "blt":   (_B, OP_BRANCH, 0b100, None),
    "bge":   (_B, OP_BRANCH, 0b101, None),
    "bltu":  (_B, OP_BRANCH, 0b110, None),
    "bgeu":  (_B, OP_BRANCH, 0b111, None),
    "lb":    (_I, OP_LOAD, 0b000, None),
    "lh":    (_I, OP_LOAD, 0b001, None),
    "lw":    (_I, OP_LOAD, 0b010, None),
    "ld":    (_I, OP_LOAD, 0b011, None),
    "lbu":   (_I, OP_LOAD, 0b100, None),
    "lhu":   (_I, OP_LOAD, 0b101, None),
    "lwu":   (_I, OP_LOAD, 0b110, None),
    "sb":    (_S, OP_STORE, 0b000, None),
    "sh":    (_S, OP_STORE, 0b001, None),
    "sw":    (_S, OP_STORE, 0b010, None),
    "sd":    (_S, OP_STORE, 0b011, None),
    "addi":  (_I, OP_IMM, 0b000, None),
    "slti":  (_I, OP_IMM, 0b010, None),
    "sltiu": (_I, OP_IMM, 0b011, None),
    "xori":  (_I, OP_IMM, 0b100, None),
    "ori":   (_I, OP_IMM, 0b110, None),
    "andi":  (_I, OP_IMM, 0b111, None),
    "slli":  (_SHIFT, OP_IMM, 0b001, 0b000000),
    "srli":  (_SHIFT, OP_IMM, 0b101, 0b000000),
    "srai":  (_SHIFT, OP_IMM, 0b101, 0b010000),
    "addiw": (_I, OP_IMM32, 0b000, None),
    "add":   (_R, OP_REG, 0b000, 0b0000000),
    "sub":   (_R, OP_REG, 0b000, 0b0100000),
    "sll":   (_R, OP_REG, 0b001, 0b0000000),
    "slt":   (_R, OP_REG, 0b010, 0b0000000),
    "sltu":  (_R, OP_REG, 0b011, 0b0000000),
    "xor":   (_R, OP_REG, 0b100, 0b0000000),
    "srl":   (_R, OP_REG, 0b101, 0b0000000),
    "sra":   (_R, OP_REG, 0b101, 0b0100000),
    "or":    (_R, OP_REG, 0b110, 0b0000000),
    "and":   (_R, OP_REG, 0b111, 0b0000000),
    "mul":   (_R, OP_REG, 0b000, 0b0000001),
    "addw":  (_R, OP_REG32, 0b000, 0b0000000),
    "subw":  (_R, OP_REG32, 0b000, 0b0100000),
    "ecall":  (_SYS, OP_SYSTEM, 0b000, None),
    "ebreak": (_SYS, OP_SYSTEM, 0b000, None),
}

MNEMONICS = frozenset(_ISA)

# Subfamilies the policy passes and emulator care about.
BRANCH_MNEMONICS = frozenset({"beq", "bne", "blt", "bge", "bltu", "bgeu"})
TRANSFER_MNEMONICS = BRANCH_MNEMONICS | {"jal"}  # pc-relative control transfers
LOAD_MNEMONICS = frozenset({"lb", "lh", "lw", "ld", "lbu", "lhu", "lwu"})
STORE_MNEMONICS = frozenset({"sb", "sh", "sw", "sd"})
ADDSUB_MNEMONICS = frozenset({"add", "sub", "addw", "subw", "addi", "addiw"})

# Signed byte offsets a B-type branch and a J-type jal can encode.
BRANCH_REACH = (-4096, 4094)
JAL_REACH = (-(1 << 20), (1 << 20) - 2)


@dataclass(slots=True)
class Insn:
    """One decoded instruction.  Unused operand fields stay zero.

    Immediate conventions: U-type holds the raw 20-bit field (0..0xFFFFF);
    I/S-types hold the signed 12-bit value; B/J-types hold the signed byte
    offset from the instruction; shifts hold the shamt (0..63).

    Slotted, not frozen and so not hashable: nothing changes an Insn in
    place; a rewrite puts a new one in its TaggedInsn.
    """

    mnemonic: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0


def _check_fields(mnemonic, rd, rs1, rs2, imm, lo, hi, even) -> None:
    """Raise OperandRange for the first bad field: a register index, then the immediate."""
    for name, value in (("rd", rd), ("rs1", rs1), ("rs2", rs2)):
        if not 0 <= value <= 31:
            raise OperandRange(f"{name}={value} is not a register index (0..31)")
    if not lo <= imm <= hi:
        raise OperandRange(f"{mnemonic}: immediate {imm} outside [{lo}, {hi}]")
    if even and imm & 1:
        raise OperandRange(f"{mnemonic}: offset {imm} must be even")


# Immediate bounds per format, and 1 where it must be even; R and SYS have none.
_IMM_BOUNDS = {_I: (-2048, 2047, 0), _S: (-2048, 2047, 0), _SHIFT: (0, 63, 0),
               _U: (0, 0xFFFFF, 0), _B: (*BRANCH_REACH, 1), _J: (*JAL_REACH, 1)}


def _encoder(mnemonic, fmt, opcode, funct3, funct7):
    """encode(rd, rs1, rs2, imm) -> the word of one mnemonic.  It checks the
    register indexes, then the immediate, and ignores unused fields."""
    lo, hi, even = _IMM_BOUNDS.get(fmt, (0, 0, 0))
    fixed = (funct7 or 0) << (26 if fmt == _SHIFT else 25) | (funct3 or 0) << 12 | opcode
    fixed |= (mnemonic == "ebreak") << 20  # ecall's immediate is 0, ebreak's 1
    if fmt in (_I, _SHIFT):
        def encode(rd, rs1, rs2, imm):
            if (rd | rs1 | rs2) >> 5 or not lo <= imm <= hi:  # rare: find the bad field
                _check_fields(mnemonic, rd, rs1, rs2, imm, lo, hi, even)
            return (imm & 0xFFF) << 20 | rs1 << 15 | rd << 7 | fixed
    elif fmt == _R:
        def encode(rd, rs1, rs2, imm):
            if (rd | rs1 | rs2) >> 5:
                _check_fields(mnemonic, rd, rs1, rs2, 0, 0, 0, 0)
            return rs2 << 20 | rs1 << 15 | rd << 7 | fixed
    elif fmt == _S:
        def encode(rd, rs1, rs2, imm):
            if (rd | rs1 | rs2) >> 5 or not lo <= imm <= hi:
                _check_fields(mnemonic, rd, rs1, rs2, imm, lo, hi, even)
            return (imm & 0xFE0) << 20 | rs2 << 20 | rs1 << 15 | (imm & 0x1F) << 7 | fixed
    elif fmt == _U:
        def encode(rd, rs1, rs2, imm):
            if (rd | rs1 | rs2) >> 5 or not lo <= imm <= hi:
                _check_fields(mnemonic, rd, rs1, rs2, imm, lo, hi, even)
            return imm << 12 | rd << 7 | fixed
    elif fmt == _B:
        def encode(rd, rs1, rs2, imm):
            if (rd | rs1 | rs2) >> 5 or not lo <= imm <= hi or imm & 1:
                _check_fields(mnemonic, rd, rs1, rs2, imm, lo, hi, even)
            return ((imm & 0x1000) << 19 | (imm & 0x7E0) << 20 | rs2 << 20 | rs1 << 15
                    | (imm & 0x1E) << 7 | (imm & 0x800) >> 4 | fixed)
    elif fmt == _J:
        def encode(rd, rs1, rs2, imm):
            if (rd | rs1 | rs2) >> 5 or not lo <= imm <= hi or imm & 1:
                _check_fields(mnemonic, rd, rs1, rs2, imm, lo, hi, even)
            return ((imm & 0x100000) << 11 | (imm & 0x7FE) << 20 | (imm & 0x800) << 9
                    | (imm & 0xFF000) | rd << 7 | fixed)
    else:  # _SYS
        def encode(rd, rs1, rs2, imm):
            if (rd | rs1 | rs2) >> 5:
                _check_fields(mnemonic, rd, rs1, rs2, 0, 0, 0, 0)
            return fixed
    return encode


class _EncoderTable(dict):
    def __missing__(self, mnemonic):
        raise OperandRange(f"unsupported mnemonic {mnemonic!r}")


# mnemonic -> encode(rd, rs1, rs2, imm), the one encoder of each instruction.
ENCODERS = _EncoderTable({mnemonic: _encoder(mnemonic, *spec) for mnemonic, spec in _ISA.items()})


def encode(insn: Insn) -> int:
    """Encode one instruction to its unique 32-bit word."""
    return ENCODERS[insn.mnemonic](insn.rd, insn.rs1, insn.rs2, insn.imm)


def encode_fields(mnemonic: str, rd: int = 0, rs1: int = 0, rs2: int = 0, imm: int = 0) -> int:
    """Encode one instruction from its fields, with Insn's conventions."""
    return ENCODERS[mnemonic](rd, rs1, rs2, imm)


def _sext(value: int, bits: int) -> int:
    sign = 1 << (bits - 1)
    return (value & (sign - 1)) - (value & sign)


def hi_lo(value: int) -> tuple:
    """Split `value` into a U-type field and the signed 12-bit immediate that
    lui/auipc + addi add back: (hi << 12) + lo == value modulo 2**32."""
    return ((value + 0x800) >> 12) & 0xFFFFF, ((value + 0x800) & 0xFFF) - 0x800


class BadEncoding(BuildError):
    """The word is not a valid encoding of any supported instruction."""


# (opcode, funct3, funct7) -> mnemonic, None marking a field that a format
# lacks.  A shift's funct6 is funct7 without the top bit of its shamt, so a
# shift has a key for each value of that bit.  ecall and ebreak are whole words.
_DECODE = {(opcode, funct3, funct7): mnemonic
           for mnemonic, (fmt, opcode, funct3, funct7) in _ISA.items()
           if fmt not in (_SHIFT, _SYS)}
_DECODE.update(((opcode, funct3, funct6 << 1 | top), mnemonic)
               for mnemonic, (fmt, opcode, funct3, funct6) in _ISA.items() if fmt == _SHIFT
               for top in (0, 1))
_SYSTEM_WORDS = {ENCODERS[mnemonic](0, 0, 0, 0): mnemonic for mnemonic in ("ecall", "ebreak")}


def decode(word: int) -> Insn:
    """Decode a 32-bit word; inverse of encode on the supported subset."""
    if not 0 <= word <= 0xFFFFFFFF:
        raise BadEncoding(f"word {word:#x} is not 32 bits")
    if word & 0b11 != 0b11:
        raise BadEncoding(f"word {word:#010x} is a compressed encoding")
    if word in _SYSTEM_WORDS:
        return Insn(_SYSTEM_WORDS[word])
    opcode = word & 0x7F
    funct3 = (word >> 12) & 0x7
    funct7 = word >> 25
    mnemonic = (_DECODE.get((opcode, None, None)) or _DECODE.get((opcode, funct3, None))
                or _DECODE.get((opcode, funct3, funct7)))
    if mnemonic is None:
        raise BadEncoding(f"word {word:#010x}: opcode {opcode:#09b}, funct3 {funct3:#05b}, "
                          f"funct7 {funct7:#09b} unsupported")
    fmt = _ISA[mnemonic][0]
    rd = (word >> 7) & 0x1F
    rs1 = (word >> 15) & 0x1F
    rs2 = (word >> 20) & 0x1F
    if fmt == _U:
        return Insn(mnemonic, rd=rd, imm=word >> 12)
    if fmt == _J:
        imm = (((word >> 31) & 1) << 20) | (((word >> 12) & 0xFF) << 12)
        imm |= (((word >> 20) & 1) << 11) | (((word >> 21) & 0x3FF) << 1)
        return Insn(mnemonic, rd=rd, imm=_sext(imm, 21))
    if fmt == _B:
        imm = (((word >> 31) & 1) << 12) | (((word >> 7) & 1) << 11)
        imm |= (((word >> 25) & 0x3F) << 5) | (((word >> 8) & 0xF) << 1)
        return Insn(mnemonic, rs1=rs1, rs2=rs2, imm=_sext(imm, 13))
    if fmt == _S:
        return Insn(mnemonic, rs1=rs1, rs2=rs2, imm=_sext(funct7 << 5 | rd, 12))
    if fmt == _I:
        return Insn(mnemonic, rd=rd, rs1=rs1, imm=_sext(word >> 20, 12))
    if fmt == _SHIFT:
        return Insn(mnemonic, rd=rd, rs1=rs1, imm=(word >> 20) & 0x3F)
    return Insn(mnemonic, rd=rd, rs1=rs1, rs2=rs2)  # _R


# ---------------------------------------------------------------------------
# Tag carriers

class TagCarrier(enum.Enum):
    LUI_NOP = "lui"
    ADDI_NOP = "addi"
    CUSTOM = "custom"

    @property
    def backward_compatible(self) -> bool:
        return self is not TagCarrier.CUSTOM


# Per-tag bit widths by (carrier, coverage); missing cells are not available.
TAG_BITS = {
    (TagCarrier.ADDI_NOP, 1): 12,
    (TagCarrier.ADDI_NOP, 3): 4,
    (TagCarrier.ADDI_NOP, 7): 1,
    (TagCarrier.LUI_NOP, 1): 20,
    (TagCarrier.LUI_NOP, 3): 6,
    (TagCarrier.LUI_NOP, 7): 2,
    (TagCarrier.LUI_NOP, 15): 1,
    (TagCarrier.CUSTOM, 1): 15,
    (TagCarrier.CUSTOM, 3): 8,
    (TagCarrier.CUSTOM, 7): 3,
    (TagCarrier.CUSTOM, 15): 1,
}

COVERAGE_VALUES = (1, 3, 7, 15, 31)


# Per carrier: the mask and value of its fixed fields, and the payload's shift.
_CARRIER_FIELDS = {
    TagCarrier.LUI_NOP: (0xFFF, OP_LUI, 12, "a lui x0 word"),
    TagCarrier.ADDI_NOP: (0xFFFFF, OP_IMM, 20, "an addi x0,x0 word"),
    TagCarrier.CUSTOM: (0x7F, OP_CUSTOM0, 7, "a custom-0 word"),
}


@functools.lru_cache(maxsize=None)
def _layout(carrier: TagCarrier, coverage: int):
    """(bits, tag mask, payload shifts) of one (carrier, coverage) layout."""
    bits = TAG_BITS.get((carrier, coverage))
    if bits is None:
        raise PackOverflow(f"{carrier.value} has no coverage-{coverage} layout")
    shift = _CARRIER_FIELDS[carrier][2]
    return bits, (1 << bits) - 1, range(shift, shift + coverage * bits, bits)


@functools.lru_cache(maxsize=None)
def tag_reader(carrier: TagCarrier, coverage: int):
    """read(word) -> the coverage-many tag values of one carrier layout.

    Raises PackOverflow for a pair with no layout; read raises NotACarrier
    for a word whose fixed fields do not match the carrier.
    """
    _, tag_mask, shifts = _layout(carrier, coverage)
    fixed_mask, fixed, _, what = _CARRIER_FIELDS[carrier]

    def read(word: int) -> tuple:
        if word & fixed_mask != fixed:
            raise NotACarrier(f"{word:#010x} is not {what}")
        return tuple([(word >> s) & tag_mask for s in shifts])
    return read


@functools.lru_cache(maxsize=None)
def tag_packer(carrier: TagCarrier, coverage: int):
    """pack(tags) -> the carrier word for exactly coverage-many tag values:
    with b = TAG_BITS[(carrier, coverage)] bits per tag, tag i sits in
    payload bits [i*b, (i+1)*b).  The mirror of tag_reader.

    Raises PackOverflow for a pair with no layout; pack raises it for a tag
    list of another length and for a tag that does not fit b bits.
    """
    bits, tag_mask, shifts = _layout(carrier, coverage)
    fixed = _CARRIER_FIELDS[carrier][1]

    def pack(tags) -> int:
        if len(tags) != coverage:
            raise PackOverflow(f"pack holds {len(tags)} tags, coverage is {coverage}")
        word = fixed
        for tag, s in zip(tags, shifts):
            if not 0 <= tag <= tag_mask:
                raise PackOverflow(f"tag value {tag} exceeds {bits} bits")
            word |= tag << s
        return word
    return pack
