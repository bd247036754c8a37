import dataclasses

import pytest

from rvtag import codec
from rvtag.emitlink import (
    DATA_BASE,
    FormatError,
    Image,
    PairTooFar,
    RelocOutOfRange,
    TEXT_BASE,
    adjust_symbols,
    emit_tags,
    link,
    read_image,
    scan_labels,
    write_image,
)
from rvtag.frontend import UndefinedSymbol, assemble
from rvtag.instrument import insert_label
from rvtag.pipeline import build_image
from rvtag.tagplan import insn_address, landing_offset, make_config, remap_offset

N3 = make_config(carrier="lui", coverage=3)
N7 = make_config(carrier="lui", coverage=7)
CFI3 = make_config(carrier="lui", coverage=3, policy="cfi")

ASM_EX = (
    "loop_start:\n"
    "    addi t1, t1, 1\n"
    "    addi t2, t2, 2\n"
    "    addi t3, t3, 3\n"
    "    j loop_start\n"
)


def words_of(image, base=None, count=None):
    base = image.text_base if base is None else base
    off = base - image.text_base
    blob = image.text[off:off + 4 * count if count else None]
    return [int.from_bytes(blob[i:i + 4], "little") for i in range(0, len(blob), 4)]


# ---------------------------------------------------------------------------
# emit_tags

def test_emit_counts_four_insns():
    program = assemble(ASM_EX)
    emitted = emit_tags(program, N3)
    insns = emitted.fragments[0].insns
    assert len(insns) == 6
    kinds = [ti.is_carrier for ti in insns]
    assert kinds == [True, False, False, False, True, False]


def test_emit_empty_fragment_unchanged():
    program = assemble("main:\n    ecall\n.globl stub\nstub:\n")
    emitted = emit_tags(program, N3)
    assert emitted.fragments[1].insns == []


def test_emit_nine_insns_all_default():
    source = "f:\n" + "    addi a0, a0, 1\n" * 9
    program = assemble(source)
    emitted = emit_tags(program, N3)
    insns = emitted.fragments[0].insns
    assert len(insns) == 12
    carriers = [ti.carrier_word for ti in insns if ti.is_carrier]
    assert carriers == [0x00000037] * 3  # every tag word is lui x0, 0


def test_emit_rewrites_local_branch_over_carrier():
    program = assemble(ASM_EX)
    emitted = emit_tags(program, N3)
    jal = emitted.fragments[0].insns[5].insn
    # jal sits at tagged offset 20; loop_start lands on the carrier at 0
    assert jal.imm == -20


def test_emit_does_not_mutate_input():
    program = assemble(ASM_EX)
    before = [ti.insn for ti in program.fragments[0].insns]
    emit_tags(program, N3)
    assert [ti.insn for ti in program.fragments[0].insns] == before


def test_emit_relocation_offsets_move_to_instruction_addresses():
    program = assemble("main:\n    nop\n    nop\n    nop\n    call f\n    ecall\n"
                       ".globl f\nf:\n    ret\n")
    emitted = emit_tags(program, N3)
    relocs = {r.kind: r.offset for r in emitted.fragments[0].relocations}
    # auipc at untagged 12 -> word address 20; jalr at 16 -> 24
    assert relocs == {"Hi20": insn_address(12, 3), "Lo12I": insn_address(16, 3)}


def test_emit_keeps_every_tagged_insn_field():
    # every field but insn is copied through; set each one off its default
    program = assemble("main:\n    addi a0, a0, 1\n    beq a0, a1, main\n")
    values = dict(tag=1, lineage=7, is_label=True, label_value=0x5A3,
                  annotations=frozenset({"count"}), calltype="i64(i64)",
                  carrier_word=0x1037)
    fields = {f.name for f in dataclasses.fields(program.fragments[0].insns[0])} - {"insn"}
    assert fields == set(values)  # a new TaggedInsn field needs a value here
    for tagged in program.fragments[0].insns:
        for name, value in values.items():
            setattr(tagged, name, value)
    emitted = emit_tags(program, N3)
    copies = emitted.fragments[0].insns[1:]
    assert len(copies) == 2
    for copy in copies:
        assert {name: getattr(copy, name) for name in values} == values
    assert copies[1].insn.imm == -8  # the branch is still rewritten


# ---------------------------------------------------------------------------
# adjust_symbols

def test_fragment_base_accumulation():
    source = ("f:\n" + "    addi a0, a0, 1\n" * 10 +
              ".globl g\ng:\n    ret\n")
    program = assemble(source)
    layout = adjust_symbols(program, N3)
    # 10 insns + 4 carriers = 56 bytes, aligned to 64
    assert layout.fragment_bases["g"] == TEXT_BASE + 64
    assert layout.symbols["g"] == TEXT_BASE + 64


def test_symbols_land_on_first_carrier():
    program = assemble("main:\n    ecall\n")
    layout = adjust_symbols(program, N3)
    assert layout.symbols["main"] == TEXT_BASE
    untagged = adjust_symbols(program, None)
    assert untagged.symbols["main"] == TEXT_BASE


def test_data_symbols_not_remapped():
    program = assemble("main:\n    ecall\n.data\nbuf:\n    .zero 16\nend:\n    .word 1\n")
    layout = adjust_symbols(program, N3)
    assert layout.symbols["buf"] == DATA_BASE
    assert layout.symbols["end"] == DATA_BASE + 16


# ---------------------------------------------------------------------------
# link

def test_asm_ex_sizes():
    baseline = build_image(ASM_EX, N3, tagged=False)
    tagged = build_image(ASM_EX, N3, tagged=True)
    assert len(baseline.text) == 16
    assert len(tagged.text) == 24


def test_size_law_multi_fragment():
    source = (
        "f:\n" + "    addi a0, a0, 1\n" * 10 +
        ".globl g\ng:\n" + "    addi a1, a1, 1\n" * 4 + "    ret\n"
    )
    tagged = build_image(source, N3, tagged=True)
    # f: 4*(10+4)=56 -> pad 64; g: 4*(5+2)=28; total 92
    assert len(tagged.text) == 64 + 28
    # padding between fragments stays zero
    assert tagged.text[56:64] == bytes(8)


def test_cross_fragment_branch_lands_on_entry_carrier():
    source = (
        "main:\n    j g\n"
        ".globl g\ng:\n    ret\n"
    )
    image = build_image(source, N3, tagged=True)
    words = words_of(image)
    jal = codec.decode(words[1])  # word 0 is main's carrier
    site = image.text_base + 4
    g_base = image.text_base + 16  # main: 2 words -> 8 bytes -> align 16
    assert site + jal.imm == g_base
    region_starts = [r.start for r in image.tag_regions]
    assert g_base in region_starts


def test_entry_points_at_first_carrier():
    image = build_image(ASM_EX, N3, tagged=True)
    assert image.entry == image.text_base
    carrier = codec.decode(words_of(image)[0])
    assert carrier.mnemonic == "lui" and carrier.rd == 0


def test_hi_lo_resolution_against_data():
    source = (
        "main:\n"
        "    la a0, buf\n"
        "    ecall\n"
        ".data\n"
        "buf:\n"
        "    .zero 8\n"
    )
    for config, tagged in ((N3, True), (N3, False), (N7, True)):
        image = build_image(source, config, tagged=tagged)
        words = words_of(image)
        decoded = [codec.decode(w) for w in words]
        auipc = next(i for i, d in enumerate(decoded) if d.mnemonic == "auipc")
        addi = next(i for i, d in enumerate(decoded)
                    if d.mnemonic == "addi" and d.rd == 10)
        site = image.text_base + 4 * auipc
        hi = decoded[auipc].imm
        lo = decoded[addi].imm
        target = site + (((hi << 12) ^ 0x80000000) - 0x80000000) + lo
        assert target == DATA_BASE


def hi_lo_target(image, fragment_base=None):
    words = words_of(image)
    decoded = []
    for word in words:
        try:
            decoded.append(codec.decode(word))
        except codec.BadEncoding:
            decoded.append(None)
    auipc_index = next(i for i, d in enumerate(decoded)
                       if d is not None and d.mnemonic == "auipc")
    jalr_index = next(i for i, d in enumerate(decoded)
                      if d is not None and d.mnemonic == "jalr" and d.rd == 1)
    site = image.text_base + 4 * auipc_index
    hi = decoded[auipc_index].imm
    lo = decoded[jalr_index].imm
    return site + (((hi << 12) ^ 0x80000000) - 0x80000000) + lo, jalr_index - auipc_index - 1


CALL_AFTER_CALLEE = (
    ".globl callee\n"
    ".entry main\n"
    "callee:\n"
    '    .signature "i64(i64)"\n'
    "    ret\n"
    ".globl main\n"
    "main:\n"
    '    .signature "i64()"\n'
    "    call callee\n"
    "    li a7, 93\n"
    "    ecall\n"
)


def test_hi_lo_interposition_0_to_3_words():
    """Same call site resolved with 0..3 interposed words reaches the same
    callee address; 4 interposed words is rejected."""
    targets = {}
    gaps = {}

    # 0 interposed: untagged, no labels
    image = build_image(CALL_AFTER_CALLEE, N3, tagged=False)
    targets[0], gaps[0] = hi_lo_target(image)

    # 1 interposed: untagged with one label between the pair
    program = assemble(CALL_AFTER_CALLEE)
    insert_label(program, (1, 1), 0x11, 0)
    image = link(program, N3, tagged=False)
    targets[1], gaps[1] = hi_lo_target(image)

    # 2 interposed: two labels
    program = assemble(CALL_AFTER_CALLEE)
    insert_label(program, (1, 1), 0x11, 0)
    insert_label(program, (1, 1), 0x22, 0)
    image = link(program, N3, tagged=False)
    targets[2], gaps[2] = hi_lo_target(image)

    # 3 interposed: two labels plus a carrier between the pair (N=3: main's
    # auipc at untagged index 1 ends group 0 after label insertion)
    program = assemble(CALL_AFTER_CALLEE)
    insert_label(program, (1, 1), 0x11, 0)
    insert_label(program, (1, 1), 0x22, 0)
    image = link(program, N3, tagged=True)
    targets[3], gaps[3] = hi_lo_target(image)

    assert gaps == {0: 0, 1: 1, 2: 2, 3: 3}
    # callee sits first, so its entry is bit-identical across all variants
    # (tagged entry = base + landing_offset(0) = base as well)
    assert landing_offset(0, 3) == 0
    assert targets == {0: TEXT_BASE, 1: TEXT_BASE, 2: TEXT_BASE, 3: TEXT_BASE}

    # 4 interposed words exceed the linker window
    program = assemble(CALL_AFTER_CALLEE)
    for value in (0x11, 0x22, 0x33, 0x44):
        insert_label(program, (1, 1), value, 0)
    with pytest.raises(PairTooFar):
        link(program, N3, tagged=False)


def test_max_pair_gap_configurable():
    program = assemble(CALL_AFTER_CALLEE)
    for value in (0x11, 0x22, 0x33, 0x44):
        insert_label(program, (1, 1), value, 0)
    image = link(program, N3, tagged=False, max_pair_gap=4)
    target, gap = hi_lo_target(image)
    assert gap == 4 and target == TEXT_BASE


def test_branch_out_of_range_rejected():
    # untagged distance 4 + 1200*4 = 4804 already exceeds the B-type range
    body = "    addi a0, a0, 1\n" * 1200
    source = "main:\n    beq a0, a1, far\n" + body + "far:\n    ecall\n"
    with pytest.raises(RelocOutOfRange):
        build_image(source, N3, tagged=False)


def test_branch_in_range_untagged_but_not_tagged():
    # 996 instructions: untagged distance 3988 fits; remapped 5316 does not
    body = "    addi a0, a0, 1\n" * 996
    source = "main:\n    beq a0, a1, far\n" + body + "far:\n    ecall\n"
    baseline = build_image(source, N3, tagged=False)
    assert baseline is not None
    with pytest.raises(RelocOutOfRange):
        build_image(source, N3, tagged=True)


def test_undefined_symbol_at_link():
    program = assemble("main:\n    call missing\n    ecall\n")
    with pytest.raises(UndefinedSymbol):
        link(program, N3, tagged=True)


def test_placement_law_every_instruction():
    """Exhaustive placement check: instruction at untagged offset o sits at
    remap(o) + 4; carriers sit at the slot addresses."""
    source = (
        "f:\n" + "    addi a0, a0, 1\n" * 11 + "    ret\n"
        ".globl g\ng:\n" + "    addi a1, a1, 1\n" * 5 + "    ret\n"
    )
    program = assemble(source)
    for config in (N3, N7, make_config(carrier="lui", coverage=15)):
        image = build_image(source, config, tagged=True)
        layout = adjust_symbols(program, config)
        for frag in program.fragments:
            base = layout.fragment_bases[frag.name]
            for index, tagged_insn in enumerate(frag.insns):
                addr = base + remap_offset(4 * index, config.coverage) + 4
                off = addr - image.text_base
                word = int.from_bytes(image.text[off:off + 4], "little")
                assert word == codec.encode(tagged_insn.insn)


# ---------------------------------------------------------------------------
# image io

def test_image_round_trip(tmp_path):
    image = build_image(CALL_AFTER_CALLEE, CFI3, tagged=True,
                        cfi_label_direct_calls=True)
    path = tmp_path / "out.rvti"
    write_image(image, path)
    again = read_image(path)
    assert again == image
    assert again.label_addrs  # labels recovered by scanning


def test_image_round_trip_untagged(tmp_path):
    image = build_image(ASM_EX, N3, tagged=False)
    path = tmp_path / "base.rvti"
    write_image(image, path)
    again = read_image(path)
    assert again == image
    assert again.tag_regions == ()
    assert again.policy == "none"


def test_image_format_errors(tmp_path):
    image = build_image(ASM_EX, N3, tagged=True)
    path = tmp_path / "x.rvti"
    write_image(image, path)
    blob = path.read_bytes()

    bad_magic = tmp_path / "bad_magic.rvti"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(FormatError):
        read_image(bad_magic)

    truncated = tmp_path / "short.rvti"
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FormatError):
        read_image(truncated)

    bad_version = tmp_path / "version.rvti"
    bad_version.write_bytes(blob[:4] + b"\x09\x00" + blob[6:])
    with pytest.raises(FormatError):
        read_image(bad_version)


# Each case turns the image's first two (valid) regions into a bad table.
BAD_REGION_TABLES = {
    "start_below_text": lambda image, a, b: (
        dataclasses.replace(a, start=0, group_count=2 ** 32 - 1), b),
    "start_at_text_end": lambda image, a, b: (
        a, dataclasses.replace(b, start=image.text_end)),
    "start_misaligned": lambda image, a, b: (
        a, dataclasses.replace(b, start=b.start + 2)),
    "starts_not_increasing": lambda image, a, b: (b, a),
    "layout_not_available": lambda image, a, b: (
        dataclasses.replace(a, carrier=codec.TagCarrier.ADDI_NOP, coverage=15), b),
}


@pytest.mark.parametrize("case", sorted(BAD_REGION_TABLES))
def test_image_region_table_validated(tmp_path, case):
    image = build_image(CALL_AFTER_CALLEE, CFI3, tagged=True,
                        cfi_label_direct_calls=True)
    regions = BAD_REGION_TABLES[case](image, *image.tag_regions[:2])
    path = tmp_path / "bad.rvti"
    write_image(dataclasses.replace(image, tag_regions=regions), path)
    with pytest.raises(FormatError):
        read_image(path)


def test_scan_labels_matches_link_records():
    source = (
        ".globl main\n.entry main\nmain:\n"
        '    .signature "i64()"\n'
        "    la t1, callee\n"
        '    .calltype "i64(i64)"\n'
        "    jalr ra, t1, 0\n"
        "    li a7, 93\n"
        "    ecall\n"
        ".globl callee\ncallee:\n"
        '    .signature "i64(i64)"\n'
        "    addi a0, a0, 7\n"
        "    ret\n"
    )
    image = build_image(source, CFI3, tagged=True)
    assert scan_labels(image) == image.label_addrs
    assert all(kind == "cfl" for _, kind in image.label_addrs)
    assert len(image.label_addrs) == 3  # main entry, site label, callee entry


def test_scan_labels_matches_on_corpus():
    from rvtag.corpus import generate_corpus

    for coverage in (3, 7, 15):
        config = make_config(carrier="lui", coverage=coverage, policy="cfi")
        for text in generate_corpus(77, 6):
            image = build_image(text, config, tagged=True,
                                cfi_label_direct_calls=True)
            assert scan_labels(image) == image.label_addrs
