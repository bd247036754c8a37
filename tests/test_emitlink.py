import copy
import dataclasses
import hashlib
import os

import pytest

from rvtag import codec
from rvtag.codec import PackOverflow
from rvtag.emitlink import (
    DATA_BASE,
    STACK_SIZE,
    STACK_TOP,
    FormatError,
    Image,
    PairTooFar,
    RelocOutOfRange,
    TEXT_BASE,
    link,
    read_image,
    replace_file,
    scan_labels,
    write_image,
)
from rvtag.emulator import PolicyViolation, run
from rvtag.errors import BuildError
from rvtag.frontend import UndefinedSymbol, assemble
from rvtag.instrument import insert_label
from rvtag.pipeline import apply_policy, assemble_sources, build_image
from rvtag.tagplan import (
    POLICIES,
    ConfigError,
    Misaligned,
    carrier_groups,
    insn_address,
    landing_offset,
    make_config,
    remap_offset,
    tagged_size,
)

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
# link: carriers, local branches, relocation sites

def test_emit_counts_four_insns():
    image = build_image(ASM_EX, N3, tagged=True)
    words = words_of(image)
    assert [codec.decode(w).mnemonic for w in words] == [
        "lui", "addi", "addi", "addi", "lui", "jal"]
    carriers = [addr for _, addr, _ in carrier_groups(image.tag_regions, image.text_end)]
    assert carriers == [TEXT_BASE, TEXT_BASE + 16]


def test_emit_packs_each_group_and_pads_with_default_tag():
    config = make_config(carrier="lui", coverage=3, tags=(("N", 0), ("X", 2)),
                         default_tag="X")
    program = assemble(ASM_EX)
    program.fragments[0].insns[1].tag = 0
    words = words_of(link(program, config))
    # group 0: (X, N, X); group 1: the jal's X, then two pads of X
    pack = codec.tag_packer(config.carrier, 3)
    assert words[0] == pack((2, 0, 2))
    assert words[4] == pack((2, 2, 2))


def test_emit_empty_fragment_unchanged():
    image = link(assemble("main:\n    ecall\n.globl stub\nstub:\n"), N3)
    # main: carrier + ecall, then zero fill up to stub's aligned base, and no
    # words or tag region for stub itself
    assert len(image.text) == 16 and image.text[8:] == bytes(8)
    assert [r.start for r in image.tag_regions] == [TEXT_BASE]


def test_emit_nine_insns_all_default():
    source = "f:\n" + "    addi a0, a0, 1\n" * 9
    words = words_of(build_image(source, N3, tagged=True))
    assert len(words) == 12
    assert words[0::4] == [0x00000037] * 3  # every tag word is lui x0, 0


def test_emit_rewrites_local_branch_over_carrier():
    jal = codec.decode(words_of(build_image(ASM_EX, N3, tagged=True))[5])
    # jal sits at tagged offset 20; loop_start lands on the carrier at 0
    assert jal.mnemonic == "jal" and jal.imm == -20


def test_emit_does_not_mutate_input():
    for source, config in ((ASM_EX, N3), (CALL_AFTER_CALLEE, CFI3)):
        program = assemble(source)
        apply_policy(program, config, cfi_label_direct_calls=True)
        before = copy.deepcopy(program)
        link(program, config, tagged=True)
        link(program, config, tagged=False)
        assert program == before


def test_emit_relocation_offsets_move_to_instruction_addresses():
    image = build_image("main:\n    nop\n    nop\n    nop\n    call f\n    ecall\n"
                        ".globl f\nf:\n    ret\n", N3, tagged=True)
    words = words_of(image)
    # auipc at untagged 12 -> word address 20; jalr at 16 -> 24
    auipc = codec.decode(words[insn_address(12, 3) // 4])
    jalr = codec.decode(words[insn_address(16, 3) // 4])
    assert (auipc.mnemonic, jalr.mnemonic) == ("auipc", "jalr")
    f_base = TEXT_BASE + 32  # main: 6 insns + 2 carriers -> 32 bytes
    assert TEXT_BASE + insn_address(12, 3) + (auipc.imm << 12) + jalr.imm == f_base


# ---------------------------------------------------------------------------
# link: fragment bases and symbols

def test_fragment_base_accumulation():
    source = (".entry g\nf:\n" + "    addi a0, a0, 1\n" * 10 +
              ".globl g\ng:\n    ret\n")
    image = build_image(source, N3, tagged=True)
    # 10 insns + 4 carriers = 56 bytes, aligned to 64
    assert [r.start for r in image.tag_regions] == [TEXT_BASE, TEXT_BASE + 64]
    assert image.entry == TEXT_BASE + 64
    # untagged: 40 bytes, aligned to 48
    assert build_image(source, N3, tagged=False).entry == TEXT_BASE + 48


def test_symbols_land_on_first_carrier():
    assert landing_offset(0, 3) == 0
    for tagged in (True, False):
        assert build_image("main:\n    ecall\n", N3, tagged=tagged).entry == TEXT_BASE


def test_data_symbols_not_remapped():
    source = ("main:\n    la a0, buf\n    la a1, end\n    ecall\n"
              ".data\nbuf:\n    .zero 16\nend:\n    .word 1\n")
    words = words_of(build_image(source, N3, tagged=True))
    targets = []
    for hi, lo in ((0, 4), (8, 12)):  # a carrier sits inside the second pair
        auipc = codec.decode(words[insn_address(hi, 3) // 4])
        addi = codec.decode(words[insn_address(lo, 3) // 4])
        targets.append(TEXT_BASE + insn_address(hi, 3) + (auipc.imm << 12) + addi.imm)
    assert targets == [DATA_BASE, DATA_BASE + 16]


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

    # so do 3 labels once a carrier lands between the pair
    program = assemble(CALL_AFTER_CALLEE)
    for value in (0x11, 0x22, 0x33):
        insert_label(program, (1, 1), value, 0)
    assert hi_lo_target(link(program, N3, tagged=False))[1] == 3
    with pytest.raises(PairTooFar, match="4 words"):
        link(program, N3, tagged=True)


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


def test_relocation_errors_come_before_encoding_errors():
    # tagged at N=1 the beq no longer reaches `end`, but the fragment's
    # undefined call is what both builds report first
    source = ("main: beq a0, a1, end\n" + "    addi a0, a0, 1\n" * 1000
              + "end: call nowhere\n    ecall\n")
    config = make_config(carrier="lui", coverage=1)
    errors = []
    for tagged in (False, True):
        with pytest.raises(BuildError) as info:
            build_image(source, config, tagged=tagged)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1] == (
        UndefinedSymbol, "'main' references undefined symbol 'nowhere'")


PAIRS = ("main:\n    call f\n    la a0, buf\n    ecall\n"
         ".globl f\nf:\n    ret\n.data\nbuf:\n    .zero 8\n")


def _with_relocations(edit):
    """PAIRS assembled, main's relocations [Hi20 1, Lo12I 1, Hi20 2, Lo12I 2]
    passed through `edit`."""
    program = assemble(PAIRS)
    main = program.fragments[0]
    assert [(r.kind, r.pair_id) for r in main.relocations] == [
        ("Hi20", 1), ("Lo12I", 1), ("Hi20", 2), ("Lo12I", 2)]
    main.relocations = edit(main.relocations)
    return program


def _moved(reloc, **changes):
    return dataclasses.replace(reloc, **changes)


@pytest.mark.parametrize("edit, error, message", [
    (lambda r: [_moved(r[0], pair_id=None), *r[1:]],
     BuildError, "Hi20 relocation without pair id"),
    (lambda r: [*r[:3], _moved(r[3], pair_id=None)],
     BuildError, "Lo12I relocation without pair id"),
    (lambda r: [r[0], *r[2:]], BuildError, "incomplete HI/LO pair 1"),
    (lambda r: r[1:], BuildError, "incomplete HI/LO pair 1"),
    (lambda r: r[:3], BuildError, "incomplete HI/LO pair 2"),
    (lambda r: [*r[:2], _moved(r[2], offset=12), _moved(r[3], offset=8)],
     BuildError, "HI/LO pair 2 out of order"),
    # pair errors come by pair id, whatever the order of the list
    (lambda r: [_moved(r[2], offset=12), _moved(r[3], offset=8), r[1]],
     BuildError, "incomplete HI/LO pair 1"),
    (lambda r: [_moved(r[3], offset=0), _moved(r[2], offset=4),
                _moved(r[1], offset=8), _moved(r[0], offset=12)],
     BuildError, "HI/LO pair 1 out of order"),
    # and after every undefined symbol of the fragment
    (lambda r: [r[0], r[2], _moved(r[3], target="nowhere")],
     UndefinedSymbol, "'main' references undefined symbol 'nowhere'"),
])
def test_link_rejects_malformed_hi_lo_pairs(edit, error, message):
    for tagged in (False, True):
        with pytest.raises(BuildError) as info:
            link(_with_relocations(edit), N3, tagged=tagged)
        assert (type(info.value), str(info.value)) == (error, message)


def test_link_rejects_a_misaligned_relocation_offset_when_tagged():
    # the Lo12I site maps first, so its offset is the one named
    program = _with_relocations(lambda r: [_moved(r[0], offset=2), _moved(r[1], offset=6),
                                           *r[2:]])
    with pytest.raises(Misaligned, match="offset 6 is not a multiple of 4"):
        link(program, N3)
    program = _with_relocations(lambda r: [*r[:3], _moved(r[3], offset=14)])
    with pytest.raises(Misaligned, match="offset 14 is not a multiple of 4"):
        link(program, N3)


def test_link_rejects_an_oversize_tag_after_groups_that_packed():
    # f's three groups and g's first carry the same tags; g's second does not fit
    program = assemble("f:\n" + "    addi a0, a0, 1\n" * 9
                       + ".globl g\ng:\n" + "    addi a1, a1, 1\n" * 6)
    program.fragments[1].insns[4].tag = 64
    with pytest.raises(PackOverflow, match="tag value 64 exceeds 6 bits"):
        link(program, N3)
    program.fragments[1].insns[4].tag = 63
    words = words_of(link(program, N3))
    pack = codec.tag_packer(N3.carrier, 3)
    assert words[0:12:4] == [pack((0, 0, 0))] * 3
    assert words[12:20:4] == [pack((0, 0, 0)), pack((0, 63, 0))]


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
        base = TEXT_BASE
        for frag in program.fragments:
            for index, tagged_insn in enumerate(frag.insns):
                addr = base + remap_offset(4 * index, config.coverage) + 4
                off = addr - image.text_base
                word = int.from_bytes(image.text[off:off + 4], "little")
                assert word == codec.encode(tagged_insn.insn)
            base += -(-tagged_size(len(frag.insns), config.coverage) // 16) * 16


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


def test_every_truncated_image_is_reported_as_truncated(tmp_path):
    # cuts inside the header, a segment's bytes and the region table alike
    image = build_image(ASM_EX + ".data\nbuf:\n    .zero 8\n", N3, tagged=True)
    path = tmp_path / "x.rvti"
    write_image(image, path)
    blob = path.read_bytes()
    for cut in range(len(blob)):
        path.write_bytes(blob[:cut])
        with pytest.raises(FormatError, match="^truncated image file$"):
            read_image(path)
    path.write_bytes(blob)
    assert read_image(path) == image


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

    # v1 defines no flag bit above the policy's and no region pad
    flags = int.from_bytes(blob[6:8], "little")
    assert image.tag_regions
    reserved = {
        "reserved flag bits 0xfff0 are set": blob[:6] + (flags | 0xFFF0).to_bytes(2, "little")
        + blob[8:],
        "reserved flag bits 0x10 are set": blob[:6] + (flags | 0x10).to_bytes(2, "little")
        + blob[8:],
        f"region {image.tag_regions[-1].start:#x}: pad 0xffff is not zero": blob[:-2] + b"\xff\xff",
    }
    for message, data in reserved.items():
        path = tmp_path / "reserved.rvti"
        path.write_bytes(data)
        with pytest.raises(FormatError, match=message):
            read_image(path)

    # flag bits 0-1 follow from the region table: bit0 is set if there is a
    # region, and bit1 unless a region has the custom carrier, which a
    # tag-unaware machine faults on
    custom = build_image(ASM_EX, make_config(carrier="custom", coverage=3), tagged=True)
    write_image(custom, path)
    custom_blob = path.read_bytes()
    custom_flags = int.from_bytes(custom_blob[6:8], "little")
    assert (flags & 3, custom_flags & 3) == (3, 1)
    # a tagged unit whose fragments are all empty has no region, so it has
    # no tags: bit0 is clear, as in an untagged image
    empty = build_image("main:\n", N3, tagged=True)
    assert not empty.tags_present and empty.backward_compatible
    write_image(empty, path)
    assert read_image(path) == empty
    empty_blob = path.read_bytes()
    empty_flags = int.from_bytes(empty_blob[6:8], "little")
    assert empty_flags & 3 == 2
    contradictions = [  # (file, its flags, bits 0-1 that its region table implies)
        (blob, flags & ~1, 3),  # bit0 clear, with regions
        (blob, flags & ~2, 3),  # bit1 clear, with only lui regions
        (custom_blob, custom_flags | 2, 1),  # bit1 set, with a custom region
        (empty_blob, empty_flags | 1, 2),  # bit0 set, with no region
    ]
    for data, bad, implied in contradictions:
        path.write_bytes(data[:6] + bad.to_bytes(2, "little") + data[8:])
        with pytest.raises(FormatError, match=f"^flag bits 0-1 are {bad & 3:#04b}, but the "
                                              f"region table implies {implied:#04b}$"):
            read_image(path)

    trailing = tmp_path / "trailing.rvti"
    trailing.write_bytes(blob + b"junk")
    with pytest.raises(FormatError, match="4 trailing bytes"):
        read_image(trailing)

    # Header cases: the memory map is fixed.  text_base sits at byte 16,
    # text_len at 24; data_base and data_len follow the text.
    text_len = len(image.text)
    data_at = 28 + text_len
    headers = {
        "unaligned text base": blob[:16] + (TEXT_BASE + 2).to_bytes(8, "little") + blob[24:],
        "text base moved": blob[:16] + (TEXT_BASE + 16).to_bytes(8, "little") + blob[24:],
        "odd text length": (blob[:24] + (text_len - 2).to_bytes(4, "little")
                            + blob[28:data_at - 2] + blob[data_at:]),
        "text over data": blob[:24] + (DATA_BASE - TEXT_BASE + 4).to_bytes(4, "little"),
        "data over text": blob[:data_at] + TEXT_BASE.to_bytes(8, "little") + blob[data_at + 8:],
        "data over the stack": (blob[:data_at + 8]
                                + (STACK_TOP - STACK_SIZE - DATA_BASE + 1).to_bytes(4, "little")),
    }
    messages = {
        "odd text length": f"text length {text_len - 2} is not a whole number of words",
        "data over the stack": "is outside \\[0x20000, 0x7fc000\\) of the memory map",
    }
    for case, header in headers.items():
        path = tmp_path / "header.rvti"
        path.write_bytes(header)
        with pytest.raises(FormatError, match=messages.get(case, "of the memory map")):
            read_image(path)


STORE_TO_TEXT = ("main:\n    li a0, 5\n    lui a1, 0x10\n    sw a0, 0(a1)\n    lw a0, 0(a1)\n"
                 "    li a7, 93\n    ecall\n.data\nbuf:\n    .zero 64\n")


def test_an_image_cannot_move_its_data_over_text():
    image = build_image(STORE_TO_TEXT, N7, tagged=True)
    with pytest.raises(PolicyViolation, match="store to execute-only text at 0x10000"):
        run(image)
    # the bases are class constants, not fields; a file that moves data over
    # text is the "data over text" case of the RVTI header test
    with pytest.raises(TypeError):
        dataclasses.replace(image, data_base=image.text_base)


def test_link_keeps_text_and_data_inside_their_segments():
    stack_bottom = STACK_TOP - STACK_SIZE
    full = build_image(f"main:\n    ecall\n.data\nbuf:\n    .zero {stack_bottom - DATA_BASE}\n",
                       N3, tagged=False)
    assert DATA_BASE + len(full.data) == stack_bottom
    # the assembler rejects such data first; link bounds a Program built by hand
    program = dataclasses.replace(assemble("main:\n    ecall\n"), data=bytearray(8388608))
    with pytest.raises(BuildError, match="data \\(8388608 bytes at 0x20000\\) overruns stack "
                                         "bottom 0x7fc000"):
        link(program, N3, tagged=False)
    nops = "main:\n" + "    nop\n" * ((DATA_BASE - TEXT_BASE) // 4) + "    ecall\n"
    with pytest.raises(BuildError, match="text \\(65540 bytes at 0x10000\\) overruns data base"):
        build_image(nops, N3, tagged=False)


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


def _groups_to_reach(region, bound):
    """The largest group count whose last carrier starts before `bound`."""
    stride = 4 * (region.coverage + 1)
    return -(-(bound - region.start) // stride)


@pytest.mark.parametrize("last", [False, True])
def test_image_region_group_count_validated(tmp_path, last):
    # a region's last carrier must start before the next region, and the
    # last region's before the end of text; zero groups is no region at all
    image = build_image(CALL_AFTER_CALLEE, CFI3, tagged=True,
                        cfi_label_direct_calls=True)
    a, b = image.tag_regions[:2]
    region, bound = (b, image.text_end) if last else (a, b.start)
    path = tmp_path / "bad.rvti"

    def table_with(group_count):
        grown = dataclasses.replace(region, group_count=group_count)
        write_image(dataclasses.replace(image, tag_regions=(grown, b) if region is a
                                        else (a, grown)), path)

    most = _groups_to_reach(region, bound)
    assert most >= region.group_count
    table_with(most)
    assert read_image(path).tag_regions[1 if last else 0].group_count == most
    table_with(most + 1)
    with pytest.raises(FormatError, match=f"groups of 16 bytes run past {bound:#x}"):
        read_image(path)
    table_with(2 ** 32 - 1)
    with pytest.raises(FormatError, match="run past"):
        read_image(path)
    table_with(0)
    with pytest.raises(FormatError, match=f"region {region.start:#x} has no carrier groups"):
        read_image(path)


# ---------------------------------------------------------------------------
# writing outputs: a new file in place of a regular one

def test_shorter_image_over_a_longer_one_reads_back_equal(tmp_path):
    longer = build_image(CALL_AFTER_CALLEE, CFI3, tagged=True, cfi_label_direct_calls=True)
    shorter = build_image(ASM_EX, N3, tagged=False)
    path = tmp_path / "out.rvti"
    write_image(longer, path)
    size = path.stat().st_size
    write_image(shorter, path)
    assert path.stat().st_size < size
    assert read_image(path) == shorter  # no trailing bytes of the longer one


def test_output_replaces_a_regular_file_by_a_new_one(tmp_path):
    path, other = tmp_path / "out.rvti", tmp_path / "other.rvti"
    path.write_bytes(b"old image")
    os.link(path, other)
    old_inode = path.stat().st_ino
    image = build_image(ASM_EX, N3, tagged=True)
    write_image(image, path)
    assert read_image(path) == image
    assert path.stat().st_ino != old_inode
    assert other.read_bytes() == b"old image"  # another hard link keeps the old file


def test_output_through_a_symlink_writes_its_target(tmp_path):
    target, link_path = tmp_path / "target.rvti", tmp_path / "link.rvti"
    target.write_bytes(b"old image, longer than the new one" * 20)
    link_path.symlink_to(target)
    image = build_image(ASM_EX, N3, tagged=True)
    write_image(image, link_path)
    assert link_path.is_symlink() and os.readlink(link_path) == str(target)
    assert read_image(target) == image


def test_output_never_unlinks_what_is_not_a_regular_file(tmp_path, monkeypatch):
    def forbidden(path, *args, **kwargs):
        raise AssertionError(f"unlinked {path}")

    monkeypatch.setattr(os, "unlink", forbidden)
    replace_file(os.devnull, b"written, never removed")
    directory = tmp_path / "dir.rvti"
    directory.mkdir()
    with pytest.raises(IsADirectoryError):
        replace_file(directory, b"")
    assert directory.is_dir()


def labels_from_metadata(program, config):
    """Oracle for scan_labels: every is_label slot that carries the policy's
    label tag, at its final address in the link of `program`."""
    label_tag, kind = {"cfi": (1, "cfl"), "coverage": (0, "cl")}[config.policy]
    found, base = [], TEXT_BASE
    for fragment in program.fragments:
        found += [(base + insn_address(4 * i, config.coverage), kind)
                  for i, slot in enumerate(fragment.insns)
                  if slot.is_label and slot.tag == label_tag]
        base += -(-tagged_size(len(fragment.insns), config.coverage) // 16) * 16
    return tuple(found)


def link_with_policy(sources, config):
    program = apply_policy(assemble_sources(sources), config, cfi_label_direct_calls=True)
    return program, link(program, config)


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
    program = apply_policy(assemble_sources(source), CFI3)
    image = link(program, CFI3)
    assert image.label_addrs == scan_labels(image) == labels_from_metadata(program, CFI3)
    assert all(kind == "cfl" for _, kind in image.label_addrs)
    assert len(image.label_addrs) == 3  # main entry, site label, callee entry


def test_scan_labels_matches_on_corpus():
    from rvtag.corpus import generate_corpus

    configs = [make_config(carrier="lui", coverage=coverage, policy="cfi")
               for coverage in (3, 7, 15)]
    configs.append(make_config(carrier="lui", coverage=7, policy="coverage"))
    for config in configs:
        for text in generate_corpus(77, 6):
            program, image = link_with_policy(text, config)
            assert image.label_addrs == labels_from_metadata(program, config)


def test_label_addrs_follow_the_text():
    # a label word overwritten after the link is no label: the addresses
    # come from the words, so nothing recorded at link time goes stale
    _, image = link_with_policy(CALL_AFTER_CALLEE, CFI3)
    addr, kind = image.label_addrs[1]
    assert kind == "cfl"
    offset = addr - image.text_base
    nop = codec.encode(codec.Insn("addi", rd=0, rs1=0, imm=0)).to_bytes(4, "little")
    edited = dataclasses.replace(
        image, text=image.text[:offset] + nop + image.text[offset + 4:])
    assert edited.label_addrs == image.label_addrs[:1] + image.label_addrs[2:]


# ---------------------------------------------------------------------------
# layout pin

def _buildable_cells():
    cells = []
    for carrier, coverage in sorted(codec.TAG_BITS, key=lambda k: (k[0].value, k[1])):
        for policy in POLICIES:
            try:
                cells.append(make_config(carrier=carrier.value, coverage=coverage,
                                         policy=policy))
            except ConfigError:
                continue
    return cells


# sha256 over every linked layout below, computed with the linker that
# placed words by indexing a carrier-interleaved copy of the program.
LAYOUT_DIGEST = "69188e6688e22943b8a2c69e1f883bff3a66f4bbc4f607c0808775d645503748"


def test_link_layout_is_pinned():
    from rvtag.corpus import generate_corpus

    cells = _buildable_cells()
    assert len(cells) == 35
    digest = hashlib.sha256()
    for text in generate_corpus(7, 8):
        for config in cells:
            image = build_image(text, config, tagged=True, cfi_label_direct_calls=True)
            digest.update(repr((image.text, image.entry, image.tag_regions,
                                image.label_addrs)).encode())
        image = build_image(text, cells[0], tagged=False)
        digest.update(repr((image.text, image.entry, image.tag_regions,
                            image.label_addrs)).encode())
    assert digest.hexdigest() == LAYOUT_DIGEST
