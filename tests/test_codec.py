import hashlib
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvtag import codec
from rvtag.codec import (
    Insn,
    NotACarrier,
    OperandRange,
    PackOverflow,
    TagCarrier,
    TAG_BITS,
    decode,
    encode,
    tag_packer,
    tag_reader,
)

# Hand-derived against the base ISA field layouts.
KNOWN_WORDS = [
    (Insn("addi", rd=0, rs1=0, imm=0), 0x00000013),
    (Insn("lui", rd=0, imm=0), 0x00000037),
    (Insn("lui", rd=0, imm=0x2001), 0x02001037),
    (Insn("add", rd=10, rs1=11, rs2=12), 0x00C58533),
    (Insn("sd", rs1=2, rs2=10, imm=8), 0x00A13423),
    (Insn("srai", rd=10, rs1=10, imm=3), 0x40355513),
    (Insn("jal", rd=0, imm=0), 0x0000006F),
    (Insn("beq", rs1=0, rs2=0, imm=0), 0x00000063),
    (Insn("ecall"), 0x00000073),
    (Insn("ebreak"), 0x00100073),
    (Insn("jalr", rd=1, rs1=5, imm=0), 0x000280E7),
    (Insn("auipc", rd=5, imm=1), 0x00001297),
    (Insn("lw", rd=6, rs1=10, imm=-4), 0xFFC52303),
    (Insn("bne", rs1=5, rs2=0, imm=-8), 0xFE029CE3),
    (Insn("mul", rd=12, rs1=13, rs2=14), 0x02E68633),
    (Insn("subw", rd=7, rs1=8, rs2=9), 0x409403BB),
]


@pytest.mark.parametrize("insn,word", KNOWN_WORDS)
def test_known_encodings(insn, word):
    assert encode(insn) == word


@pytest.mark.parametrize("insn,word", KNOWN_WORDS)
def test_known_decodings(insn, word):
    assert decode(word) == insn


def test_encode_rejects_out_of_range():
    with pytest.raises(OperandRange):
        encode(Insn("lui", rd=1, imm=1 << 20))
    with pytest.raises(OperandRange):
        encode(Insn("addi", rd=1, rs1=1, imm=2048))
    with pytest.raises(OperandRange):
        encode(Insn("beq", imm=1))  # odd branch offset
    with pytest.raises(OperandRange):
        encode(Insn("beq", imm=4096))
    with pytest.raises(OperandRange):
        encode(Insn("slli", rd=1, rs1=1, imm=64))
    with pytest.raises(OperandRange):
        encode(Insn("add", rd=32, rs1=0, rs2=0))


def test_decode_rejects_compressed_and_unknown():
    with pytest.raises(codec.BadEncoding):
        decode(0x00000000)
    with pytest.raises(codec.BadEncoding):
        decode(0x0001)  # low bits not 0b11
    with pytest.raises(codec.BadEncoding):
        decode(0xFFFFFFFF)


_REG = st.integers(min_value=0, max_value=31)


def _operand_strategy(mnemonic):
    fmt = codec._ISA[mnemonic][0]
    if fmt == codec._U:
        return st.builds(Insn, st.just(mnemonic), rd=_REG,
                         imm=st.integers(0, (1 << 20) - 1))
    if fmt == codec._J:
        return st.builds(Insn, st.just(mnemonic), rd=_REG,
                         imm=st.integers(-(1 << 19), (1 << 19) - 1).map(lambda v: v * 2))
    if fmt == codec._B:
        return st.builds(Insn, st.just(mnemonic), rs1=_REG, rs2=_REG,
                         imm=st.integers(-2048, 2047).map(lambda v: v * 2))
    if fmt == codec._S:
        return st.builds(Insn, st.just(mnemonic), rs1=_REG, rs2=_REG,
                         imm=st.integers(-2048, 2047))
    if fmt == codec._SHIFT:
        return st.builds(Insn, st.just(mnemonic), rd=_REG, rs1=_REG,
                         imm=st.integers(0, 63))
    if fmt == codec._R:
        return st.builds(Insn, st.just(mnemonic), rd=_REG, rs1=_REG, rs2=_REG)
    if fmt == codec._SYS:
        return st.just(Insn(mnemonic))
    return st.builds(Insn, st.just(mnemonic), rd=_REG, rs1=_REG,
                     imm=st.integers(-2048, 2047))


@settings(max_examples=300)
@given(st.sampled_from(sorted(codec.MNEMONICS)).flatmap(_operand_strategy))
def test_encode_decode_round_trip(insn):
    assert decode(encode(insn)) == insn


# ---------------------------------------------------------------------------
# Table conformance

TABLE_ORACLE = {
    ("addi", 1): 12, ("addi", 3): 4, ("addi", 7): 1,
    ("lui", 1): 20, ("lui", 3): 6, ("lui", 7): 2, ("lui", 15): 1,
    ("custom", 1): 15, ("custom", 3): 8, ("custom", 7): 3, ("custom", 15): 1,
}


def test_carrier_table_matches_published_layout():
    by_name = {"addi": TagCarrier.ADDI_NOP, "lui": TagCarrier.LUI_NOP,
               "custom": TagCarrier.CUSTOM}
    for (name, coverage), bits in TABLE_ORACLE.items():
        assert TAG_BITS[(by_name[name], coverage)] == bits
    for carrier in TagCarrier:
        for coverage in codec.COVERAGE_VALUES:
            key = (carrier, coverage)
            if (carrier.value, coverage) in TABLE_ORACLE:
                assert key in TAG_BITS
            else:
                assert key not in TAG_BITS


def test_carrier_attributes():
    assert TagCarrier.LUI_NOP.backward_compatible
    assert TagCarrier.ADDI_NOP.backward_compatible
    assert not TagCarrier.CUSTOM.backward_compatible


# ---------------------------------------------------------------------------
# Packing

def test_pack_lui_coverage3():
    assert tag_packer(TagCarrier.LUI_NOP, 3)((1, 0, 2)) == 0x02001037


def test_pack_lui_all_zero_is_canonical_nop():
    assert tag_packer(TagCarrier.LUI_NOP, 15)((0,) * 15) == 0x00000037


def test_unpack_examples():
    assert tag_reader(TagCarrier.LUI_NOP, 3)(0x02001037) == (1, 0, 2)
    assert tag_reader(TagCarrier.LUI_NOP, 7)(0x00000037) == (0,) * 7


def test_unpack_rejects_wrong_carrier():
    with pytest.raises(NotACarrier, match="0x00000013 is not a lui x0 word"):
        tag_reader(TagCarrier.LUI_NOP, 3)(0x00000013)  # addi nop, not lui
    with pytest.raises(NotACarrier):
        tag_reader(TagCarrier.LUI_NOP, 3)(encode(Insn("lui", rd=1, imm=0)))
    with pytest.raises(NotACarrier):
        tag_reader(TagCarrier.ADDI_NOP, 3)(0x00000037)


def test_pack_rejects_oversized_tags():
    # the width comes from TAG_BITS: 6 bits for lui N=3, 4 bits for addi N=3
    assert tag_packer(TagCarrier.LUI_NOP, 3)((63, 0, 0))
    with pytest.raises(PackOverflow):
        tag_packer(TagCarrier.LUI_NOP, 3)((64, 0, 0))
    with pytest.raises(PackOverflow):
        tag_packer(TagCarrier.ADDI_NOP, 3)((16, 0, 0))
    with pytest.raises(PackOverflow):  # addi has no coverage-15 layout
        tag_packer(TagCarrier.ADDI_NOP, 15)


@pytest.mark.parametrize("tags", [(1, 2, 3, 4), (1,), ()])
def test_pack_rejects_a_tag_list_of_another_length(tags):
    pack = tag_packer(TagCarrier.LUI_NOP, 3)
    with pytest.raises(PackOverflow, match=f"pack holds {len(tags)} tags, coverage is 3"):
        pack(tags)


def test_addi_carrier_writes_only_x0():
    word = tag_packer(TagCarrier.ADDI_NOP, 3)((5, 9, 2))
    insn = decode(word)
    assert insn.mnemonic == "addi" and insn.rd == 0 and insn.rs1 == 0


def test_custom_carrier_opcode():
    word = tag_packer(TagCarrier.CUSTOM, 1)((0x7FFF,))
    assert word & 0x7F == codec.OP_CUSTOM0
    assert tag_reader(TagCarrier.CUSTOM, 1)(word) == (0x7FFF,)


@settings(max_examples=250)
@given(st.sampled_from(sorted(TAG_BITS.items(), key=lambda kv: (kv[0][0].value, kv[0][1])))
       .flatmap(lambda kv: st.tuples(
           st.just(kv[0][0]), st.just(kv[0][1]), st.just(kv[1]),
           st.lists(st.integers(0, (1 << kv[1]) - 1),
                    min_size=kv[0][1], max_size=kv[0][1]))))
def test_pack_unpack_round_trip(case):
    carrier, coverage, bits, tags = case
    word = tag_packer(carrier, coverage)(tags)
    assert tag_reader(carrier, coverage)(word) == tuple(tags)


def test_pack_unpack_round_trip_1000_random():
    import random

    rng = random.Random(1842)
    layouts = sorted(TAG_BITS.items(), key=lambda kv: (kv[0][0].value, kv[0][1]))
    for _ in range(1000):
        (carrier, coverage), bits = rng.choice(layouts)
        tags = tuple(rng.randrange(1 << bits) for _ in range(coverage))
        assert tag_reader(carrier, coverage)(tag_packer(carrier, coverage)(tags)) == tags


def test_tag_packer_and_reader_round_trip_every_layout():
    for (carrier, coverage), bits in TAG_BITS.items():
        pack, read = codec.tag_packer(carrier, coverage), codec.tag_reader(carrier, coverage)
        top = (1 << bits) - 1
        for tags in ((0,) * coverage, (top,) * coverage,
                     tuple(top if i % 2 else i % (top + 1) for i in range(coverage))):
            assert read(pack(tags)) == tags
        for oversize in (top + 1, -1):
            with pytest.raises(PackOverflow, match=f"tag value {oversize} exceeds {bits} bits"):
                pack((0,) * (coverage - 1) + (oversize,))
    with pytest.raises(PackOverflow, match="addi has no coverage-15 layout"):
        codec.tag_packer(TagCarrier.ADDI_NOP, 15)


def test_encode_fields_matches_encode_and_names_the_bad_field():
    for insn, word in KNOWN_WORDS:
        assert codec.encode_fields(insn.mnemonic, insn.rd, insn.rs1, insn.rs2, insn.imm) == word
    for fields, message in (
            (("add", 32, 0, 0), "rd=32 is not a register index"),
            (("add", 0, 40, -1), "rs1=40 is not a register index"),
            (("sd", 0, 2, -1, 8), "rs2=-1 is not a register index"),
            (("beq", 0, 0, 0, 3), "beq: offset 3 must be even"),
            (("mret",), "unsupported mnemonic 'mret'")):
        with pytest.raises(OperandRange, match=re.escape(message)):
            codec.encode_fields(*fields)


# Immediates at, inside and one past every format's bounds.
_IMM_EDGES = sorted({edge + step
                     for bounds in ((-2048, 2047), (0, 0xFFFFF), (0, 63),
                                    codec.BRANCH_REACH, codec.JAL_REACH)
                     for edge in bounds for step in (-1, 0, 1)} | {0, 1, 2, 3})


def _encoding_draws():
    """Every (mnemonic, edge immediate, register set) once, then 100k seeded
    draws; mnemonics include unknown ones, registers -1/0/31/32."""
    mnemonics = sorted(codec.MNEMONICS) + ["mret", "ADDI", "li", ""]
    for mnemonic in mnemonics:
        for imm in _IMM_EDGES:
            for regs in ((0, 0, 0), (31, 31, 31), (32, 0, 0), (0, -1, 0), (0, 0, 32)):
                yield (mnemonic, *regs, imm)
    rng = random.Random(20221)
    for _ in range(100_000):
        regs = [rng.choice((-1, 0, 31, 32)) if rng.random() < 0.1 else rng.randrange(32)
                for _ in range(3)]
        imm = (rng.choice(_IMM_EDGES) if rng.random() < 0.5
               else rng.randrange(-(1 << 21), 1 << 21))
        yield (rng.choice(mnemonics), *regs, imm)


# sha256 over the draws below, computed with the encoder that dispatched on
# the instruction format in one if-chain.
ENCODING_DIGEST = "45114ecc2178c7415ea66c4860be32373f74941538afb648c5a9d16f804f19c3"


def test_encoding_is_pinned():
    digest = hashlib.sha256()
    for fields in _encoding_draws():
        try:
            record = repr(codec.encode_fields(*fields))
        except OperandRange as exc:
            record = f"{type(exc).__name__}: {exc}"
        digest.update(f"{fields} {record}\n".encode())
    assert digest.hexdigest() == ENCODING_DIGEST
