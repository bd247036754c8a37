import copy
import dataclasses
import hashlib
import random

import pytest

from rvtag import codec, emulator
from rvtag.codec import Insn, TagCarrier, tag_packer
from rvtag.emitlink import DATA_BASE, link
from rvtag.emulator import (
    BadInstruction,
    Emulator,
    LimitExceeded,
    PolicyViolation,
    run,
)
from rvtag.frontend import assemble
from rvtag.instrument import cfi_label_value, set_tag
from rvtag.pipeline import build_image
from rvtag.tagplan import make_config

N3 = make_config(carrier="lui", coverage=3)
N7 = make_config(carrier="lui", coverage=7)
N15 = make_config(carrier="lui", coverage=15)
CFI = make_config(carrier="lui", coverage=3, policy="cfi")
UNARITH = make_config(carrier="lui", coverage=3, policy="unarith")
COVERAGE = make_config(carrier="lui", coverage=7, policy="coverage")

SUM_1_TO_10 = """
.globl main
.entry main
main:
    li a0, 0
    li t1, 1
    li t2, 10
accumulate:
    add a0, a0, t1
    addi t1, t1, 1
    bge t2, t1, accumulate
    li a7, 93
    ecall
"""


def final_a0(image, mode="compat"):
    state, _, _ = run(image, mode=mode)
    return state.regs[10]


def test_sum_program_all_modes():
    baseline = build_image(SUM_1_TO_10, N3, tagged=False)
    tagged = build_image(SUM_1_TO_10, N3, tagged=True)
    assert final_a0(baseline) == 55
    assert final_a0(tagged, "compat") == 55
    assert final_a0(tagged, "aware") == 55
    state, _, _ = run(baseline)
    assert state.exit_code == 55 and state.stop_reason == "exit"


def test_single_ecall_retires_one():
    image = build_image("main:\n    ecall\n", N3, tagged=False)
    state, counters, _ = run(image)
    assert counters.retired == 1
    assert counters.tag_fetches == 0
    assert state.halted


ASM_EX_BOUNDED = """
.globl main
.entry main
main:
    li t0, ITERS
    j spin
.globl spin
spin:
    addi t1, t1, 1
    addi t2, t2, 2
    addi t0, t0, -1
    bne t0, x0, spin
    li a7, 93
    ecall
"""


def loop_counts(iters, config, tagged):
    image = build_image(ASM_EX_BOUNDED, config, tagged=tagged,
                        defsym={"ITERS": iters})
    _, counters, _ = run(image)
    return counters


def test_asm_ex_overhead_six_versus_four():
    # per-iteration cost from the difference of two run lengths
    for tagged, expected in ((False, 4), (True, 6)):
        small = loop_counts(10, N3, tagged).total
        large = loop_counts(20, N3, tagged).total
        assert (large - small) // 10 == expected
    base_small, base_large = (loop_counts(k, N3, False).total for k in (10, 20))
    tag_small, tag_large = (loop_counts(k, N3, True).total for k in (10, 20))
    per_iter_base = (base_large - base_small) / 10
    per_iter_tag = (tag_large - tag_small) / 10
    assert (per_iter_tag - per_iter_base) / per_iter_base == 0.5


def test_compat_counters_split_carriers():
    image = build_image(ASM_EX_BOUNDED, N3, tagged=True, defsym={"ITERS": 3})
    _, counters, _ = run(image, mode="compat")
    _, aware_counters, _ = run(image, mode="aware")
    assert counters.tag_fetches > 0
    assert counters.total == aware_counters.total
    assert counters.retired == aware_counters.retired


def test_x0_stays_zero():
    image = build_image(
        "main:\n"
        "    addi x0, x0, 5\n"
        "    lui x0, 0x123\n"
        "    li t1, 7\n"
        "    add x0, t1, t1\n"
        "    mv a0, x0\n"
        "    li a7, 93\n"
        "    ecall\n",
        N3, tagged=True)
    state, _, _ = run(image, mode="compat")
    assert state.regs[0] == 0
    assert state.regs[10] == 0


def test_memory_round_trip_and_data_state():
    source = (
        "main:\n"
        "    la s1, buf\n"
        "    li t1, -2\n"
        "    sd t1, 8(s1)\n"
        "    ld a0, 8(s1)\n"
        "    lw a1, 8(s1)\n"
        "    lwu a2, 8(s1)\n"
        "    lbu a3, 8(s1)\n"
        "    li a7, 93\n"
        "    ecall\n"
        ".data\n"
        "buf:\n"
        "    .zero 16\n"
    )
    image = build_image(source, N3, tagged=True)
    state, _, _ = run(image, mode="compat")
    mask = (1 << 64) - 1
    assert state.regs[10] == -2 & mask
    assert state.regs[11] == -2 & mask          # lw sign-extends
    assert state.regs[12] == 0xFFFFFFFE         # lwu zero-extends
    assert state.regs[13] == 0xFE
    assert state.memory.read(DATA_BASE + 8, 1) == 0xFE


def test_store_to_text_faults():
    source = (
        "main:\n"
        "    li t1, 0x10000\n"
        "    sw t2, 0(t1)\n"
        "    ecall\n"
    )
    image = build_image(source, N3, tagged=True)
    with pytest.raises(PolicyViolation) as info:
        run(image, mode="compat")
    assert info.value.kind == "MemFault"


def test_store_straddling_text_start_faults():
    # an 8-byte store at text_base-4 covers the first text word
    source = (
        "main:\n"
        "    li t1, 0xFFFC\n"
        "    sd x0, 0(t1)\n"
        "    ecall\n"
    )
    image = build_image(source, N3, tagged=True)
    with pytest.raises(PolicyViolation) as info:
        run(image, mode="compat")
    assert info.value.kind == "MemFault"


def test_aware_rejects_malformed_carrier_at_load():
    # `helper` never runs, so only an eagerly resolved schedule sees its carrier
    source = (
        ".globl main\n.entry main\nmain:\n"
        "    li a7, 93\n"
        "    ecall\n"
        ".globl helper\nhelper:\n"
        "    ret\n"
    )
    image = build_image(source, N3, tagged=True)
    carrier_addr = image.tag_regions[-1].start
    offset = carrier_addr - image.text_base
    text = bytearray(image.text)
    text[offset:offset + 4] = codec.encode(Insn("addi", rd=1)).to_bytes(4, "little")
    bad = dataclasses.replace(image, text=bytes(text))
    with pytest.raises(BadInstruction, match=f"{carrier_addr:#x}"):
        Emulator(bad, mode="aware")
    state, _, _ = run(bad, mode="compat")  # tag-unaware: never parsed
    assert state.stop_reason == "exit"


def test_limit_exceeded():
    image = build_image("main:\n    j main\n", N3, tagged=False)
    with pytest.raises(LimitExceeded):
        run(image, max_insns=100)


def test_bad_instruction_off_the_end():
    image = build_image("main:\n    addi a0, a0, 1\n", N3, tagged=False)
    with pytest.raises(BadInstruction):
        run(image)


def test_misaligned_jalr_target_rejected():
    image = build_image(
        "main:\n    li t1, 0x10002\n    jalr ra, t1, 0\n", N3, tagged=False)
    with pytest.raises(BadInstruction):
        run(image)


def test_custom_carrier_breaks_compat_but_runs_aware():
    config = make_config(carrier="custom", coverage=3)
    image = build_image(SUM_1_TO_10, config, tagged=True)
    assert not image.backward_compatible
    with pytest.raises(BadInstruction):
        run(image, mode="compat")
    assert final_a0(image, "aware") == 55


def test_addi_carrier_is_transparent():
    config = make_config(carrier="addi", coverage=3)
    image = build_image(SUM_1_TO_10, config, tagged=True)
    assert final_a0(image, "compat") == 55


def test_carrier_words_have_no_architectural_effect():
    """Backward-compat encoding property: executing any lui/addi carrier
    word leaves registers and memory untouched."""
    rng = random.Random(7)
    cases = []
    for carrier, coverage, bits in (
        (TagCarrier.LUI_NOP, 3, 6), (TagCarrier.LUI_NOP, 15, 1),
        (TagCarrier.ADDI_NOP, 3, 4), (TagCarrier.ADDI_NOP, 7, 1),
    ):
        for _ in range(50):
            tags = tuple(rng.randrange(1 << bits) for _ in range(coverage))
            cases.append(tag_packer(carrier, coverage)(tags))
    base = build_image("main:\n    ecall\n", N3, tagged=False)
    for word in cases:
        # untagged image: the carrier word runs as an ordinary instruction
        image = dataclasses.replace(base, text=word.to_bytes(4, "little") + base.text)
        machine = Emulator(image, mode="compat")
        regs, memory = list(machine.state.regs), copy.deepcopy(machine.state.memory)
        state, counters, _ = machine.run()
        assert state.stop_reason == "ecall" and counters.retired == 2
        assert state.regs == regs
        assert state.memory == memory


def test_li_materializes_wide_value():
    image = build_image("main:\n    li a0, 0x12345\n    li a7, 93\n    ecall\n",
                        N3, tagged=True)
    state, _, _ = run(image, mode="compat")
    assert state.regs[10] == 0x12345


def test_aware_and_compat_agree_on_benign_runs():
    from rvtag.cli import compare_states
    from rvtag.corpus import generate_corpus

    for text in generate_corpus(31, 8):
        image = build_image(text, N3, tagged=True)
        compat_state, _, _ = run(image, mode="compat", max_insns=10 ** 6)
        aware_state, _, _ = run(image, mode="aware", max_insns=10 ** 6)
        assert compare_states(compat_state, aware_state, image.data_base) is None


def test_aware_runs_match_the_untagged_baseline_in_every_cell():
    """Aware mode under every buildable cell's policy, with and without
    direct-call labels, ends in the untagged compat run's state."""
    from test_emitlink import _buildable_cells

    from rvtag.cli import compare_states
    from rvtag.corpus import generate_corpus

    cells = _buildable_cells()
    assert len(cells) == 35
    divergences = []
    for text in generate_corpus(3, 12) + generate_corpus(11, 12):
        base_state, _, _ = run(build_image(text, N3, tagged=False), mode="compat",
                               max_insns=10 ** 6)
        for config in cells:
            for direct in (False, True):
                image = build_image(text, config, cfi_label_direct_calls=direct)
                state, _, _ = run(image, mode="aware", max_insns=10 ** 6)
                problem = compare_states(base_state, state, image.data_base)
                if problem is not None:
                    divergences.append((config, direct, problem))
    assert divergences == []


def test_determinism():
    image = build_image(SUM_1_TO_10, N3, tagged=True)
    runs = [run(image, mode="aware") for _ in range(2)]
    (s1, c1, p1), (s2, c2, p2) = runs
    assert s1.regs == s2.regs
    assert s1.memory == s2.memory
    assert (c1.retired, c1.tag_fetches, c1.labels_seen) == \
        (c2.retired, c2.tag_fetches, c2.labels_seen)
    assert p1.bcf == p2.bcf and p1.ci_counts == p2.ci_counts


# ---------------------------------------------------------------------------
# CFI enforcement

def cfi_source(callee_sig, calltype, fixup=""):
    return (
        ".globl main\n"
        ".entry main\n"
        "main:\n"
        '    .signature "i64()"\n'
        "    la t1, callee\n"
        f"{fixup}"
        f'    .calltype {calltype}\n'
        "    jalr ra, t1, 0\n"
        "    li a7, 93\n"
        "    ecall\n"
        ".globl callee\n"
        "callee:\n"
        f"    .signature {callee_sig}\n"
        "    addi a0, a0, 7\n"
        "    ret\n"
    )


def test_cfi_matched_signature_completes():
    image = build_image(cfi_source('"i64(i64)"', '"i64(i64)"'), CFI, tagged=True)
    state, _, _ = run(image, mode="aware")
    assert state.stop_reason == "exit"
    assert state.regs[10] == 7


def test_cfi_mismatched_signature_traps():
    assert cfi_label_value("i64(i64)") != cfi_label_value("i64(ptr)")
    image = build_image(cfi_source('"i64(ptr)"', '"i64(i64)"'), CFI, tagged=True)
    with pytest.raises(PolicyViolation) as info:
        run(image, mode="aware")
    assert info.value.kind == "CfiMismatch"


def test_cfi_jump_past_entry_label_traps():
    image = build_image(
        cfi_source('"i64(i64)"', '"i64(i64)"', fixup="    addi t1, t1, 8\n"),
        CFI, tagged=True)
    with pytest.raises(PolicyViolation) as info:
        run(image, mode="aware")
    assert info.value.kind == "CfiMissingEntryLabel"


def test_cfi_checked_jalr_without_site_label():
    # Bypass pass_cfi: tag a jalr CFL by hand so no site label precedes it.
    program = assemble(
        "main:\n"
        "    la t1, main\n"
        "    jalr ra, t1, 0\n"
        "    ecall\n"
    )
    set_tag(program, (0, 2), "CFL", CFI)
    image = link(program, CFI, tagged=True)
    with pytest.raises(PolicyViolation) as info:
        run(image, mode="aware")
    assert info.value.kind == "CfiMissingSiteLabel"


def test_cfi_site_label_must_be_adjacent():
    # an unrelated instruction between label and call clears the armed label
    program = assemble(
        "main:\n"
        "    la t1, main\n"
        "    addi t2, t2, 1\n"
        "    jalr ra, t1, 0\n"
        "    ecall\n"
    )
    from rvtag.instrument import insert_label

    set_tag(program, (0, 3), "CFL", CFI)
    insert_label(program, (0, 2), cfi_label_value("x"), 1)  # label, then addi, then jalr
    image = link(program, CFI, tagged=True)
    with pytest.raises(PolicyViolation) as info:
        run(image, mode="aware")
    assert info.value.kind == "CfiMissingSiteLabel"


def test_cfi_benign_in_compat_mode():
    matched = build_image(cfi_source('"i64(i64)"', '"i64(i64)"'), CFI, tagged=True)
    mismatched = build_image(cfi_source('"i64(ptr)"', '"i64(i64)"'), CFI, tagged=True)
    for image in (matched, mismatched):
        state, _, _ = run(image, mode="compat")
        assert state.regs[10] == 7  # labels are inert nops off-policy


@pytest.mark.parametrize("carrier,coverage", [
    ("lui", 1), ("lui", 3), ("lui", 7), ("lui", 15),
    ("addi", 3), ("addi", 7), ("custom", 3),
])
@pytest.mark.parametrize("direct_labels", [False, True])
def test_cfi_matrix_matched_call_completes(carrier, coverage, direct_labels):
    config = make_config(carrier=carrier, coverage=coverage, policy="cfi")
    image = build_image(cfi_source('"i64(i64)"', '"i64(i64)"'), config,
                        cfi_label_direct_calls=direct_labels)
    state, _, _ = run(image, mode="aware")
    assert state.stop_reason == "exit" and state.regs[10] == 7


def test_short_fragment_under_wide_coverage():
    # one-instruction fragment: its positional schedule would extend past the
    # 16-byte alignment gap, but the next fragment's region must win
    source = (
        ".globl main\n.entry main\nmain:\n"
        "    j work\n"
        ".globl work\nwork:\n"
        "    li a0, 11\n"
        "    li a1, 22\n"
        "    li a2, 33\n"
        "    li a7, 93\n"
        "    ecall\n"
    )
    image = build_image(source, N7, tagged=True)
    region_main, region_work = image.tag_regions
    schedule_extent = region_main.start + 4 * region_main.group_count * 8
    assert schedule_extent > region_work.start  # the overlap being tested
    state, counters, _ = run(image, mode="aware")
    assert (state.regs[10], state.regs[11], state.regs[12]) == (11, 22, 33)
    assert counters.tag_fetches == 2  # one carrier per fragment actually fetched
    compat_state, _, _ = run(image, mode="compat")
    assert compat_state.regs[12] == 33 and compat_state.exit_code == 11


def test_cfi_direct_calls_checked_when_labelled():
    source = (
        ".globl main\n.entry main\nmain:\n"
        '    .signature "i64()"\n'
        "    call callee\n"
        "    li a7, 93\n"
        "    ecall\n"
        ".globl callee\ncallee:\n"
        '    .signature "i64(i64)"\n'
        "    addi a0, a0, 1\n"
        "    ret\n"
    )
    image = build_image(source, CFI, tagged=True, cfi_label_direct_calls=True)
    state, _, _ = run(image, mode="aware")
    assert state.stop_reason == "exit"


# ---------------------------------------------------------------------------
# unsigned arithmetic enforcement

UNDERFLOW = (
    "main:\n"
    "    li a0, {a}\n"
    "    li a2, {b}\n"
    "    sub a2, a0, a2 {annot}\n"
    "    li a7, 93\n"
    "    ecall\n"
)


def test_unarith_borrow_traps():
    source = UNDERFLOW.format(a=2, b=3, annot="!unsigned")
    image = build_image(source, UNARITH, tagged=True)
    with pytest.raises(PolicyViolation) as info:
        run(image, mode="aware")
    assert info.value.kind == "UnsignedOverflow"
    sub_word = codec.encode(Insn("sub", rd=12, rs1=10, rs2=12))
    off = info.value.pc - image.text_base
    assert image.text[off:off + 4] == sub_word.to_bytes(4, "little")


def test_unarith_in_range_completes():
    source = UNDERFLOW.format(a=3, b=2, annot="!unsigned")
    image = build_image(source, UNARITH, tagged=True)
    state, _, _ = run(image, mode="aware")
    assert state.regs[12] == 1


def test_unarith_untagged_sub_wraps():
    source = UNDERFLOW.format(a=2, b=3, annot="")
    image = build_image(source, UNARITH, tagged=True)
    state, _, _ = run(image, mode="aware")
    assert state.regs[12] == (1 << 64) - 1


def test_unarith_optout_wraps():
    source = UNDERFLOW.format(a=2, b=3, annot="!unsigned !optout")
    image = build_image(source, UNARITH, tagged=True)
    state, _, _ = run(image, mode="aware")
    assert state.regs[12] == (1 << 64) - 1


def test_unarith_add_carry_and_word_width():
    source = (
        "main:\n"
        "    li t1, -1\n"
        "    li t2, 1\n"
        "    addw a0, t1, t2 !unsigned\n"
        "    li a7, 93\n"
        "    ecall\n"
    )
    image = build_image(source, UNARITH, tagged=True)
    with pytest.raises(PolicyViolation) as info:
        run(image, mode="aware")
    assert info.value.kind == "UnsignedOverflow"  # 32-bit carry out


# ---------------------------------------------------------------------------
# coverage enforcement

# Paper-shaped scenario: one block with a conditional branch, entered three
# times (driver loop), jumping once and falling through twice.
COVERAGE_BLOCKS = (
    ".globl block_fn\n"
    "block_fn:\n"
    "    addi a0, a0, 1\n"      # entry block, runs 3x
    "    li t1, 3\n"
    "    beq a0, t1, merge\n"   # taken on the third entry only
    "    addi a1, a1, 1\n"      # fall-through block, runs 2x
    "merge:\n"
    "    addi a2, a2, 1\n"      # join block, runs 3x
    "    ret\n"
    ".globl main\n"
    ".entry main\n"
    "main:\n"
    "    li t2, 3\n"
    "drive:\n"
    "    call block_fn\n"
    "    addi t2, t2, -1\n"
    "    bne t2, x0, drive\n"
    "    li a7, 93\n"
    "    ecall\n"
)


def coverage_run(source=COVERAGE_BLOCKS, mode="all_branches"):
    image = build_image(source, COVERAGE, tagged=True, coverage_mode=mode)
    state, counters, policy = run(image, mode="aware")
    return image, state, counters, policy


def _word(image, state, pc):
    return state.memory.read(pc, 4)


def label_counts(image, state, lo=None, hi=None):
    counts = {}
    for addr, kind in image.label_addrs:
        if kind != "cl" or (lo is not None and not lo <= addr < hi):
            continue
        counts[addr] = (_word(image, state, addr) >> 12) & 0xFFFFF
    return counts


def block_fn_range(image):
    starts = [r.start for r in image.tag_regions]
    return starts[0], starts[1]  # block_fn is the first fragment


def test_coverage_three_entry_scenario():
    image, state, _, _ = coverage_run()
    lo, hi = block_fn_range(image)
    counts = label_counts(image, state, lo, hi)
    assert len(counts) == 3
    ordered = [counts[addr] for addr in sorted(counts)]
    assert ordered == [3, 2, 3]


def test_coverage_bcf_shape():
    image, state, _, policy = coverage_run()
    lo, hi = block_fn_range(image)
    beq_pc = next(pc for pc in policy.bcf
                  if lo <= pc < hi
                  and codec.decode(_word(image, state, pc)).mnemonic == "beq")
    targets = policy.bcf[beq_pc]
    assert len(targets) == 2
    fallthrough = beq_pc + 4
    assert targets[fallthrough] == 2          # the fall-through block's label
    taken = next(t for t in targets if t != fallthrough)
    assert targets[taken] == 1
    # the taken edge lands on the join block's counting label
    counts = label_counts(image, state, lo, hi)
    assert taken in counts
    # the driver's bne is tracked as well in all_branches mode
    bne_pc = next(pc for pc in policy.bcf
                  if codec.decode(_word(image, state, pc)).mnemonic == "bne")
    assert sum(policy.bcf[bne_pc].values()) == 3


def test_coverage_unexecuted_label_reads_zero():
    source = (
        ".globl main\n.entry main\nmain:\n"
        "    j out\n"
        "    addi a1, a1, 1\n"
        "out:\n"
        "    li a7, 93\n"
        "    ecall\n"
    )
    image, state, _, _ = coverage_run(source)
    counts = label_counts(image, state)
    assert 0 in counts.values()  # the skipped block's label never moved


def test_coverage_ci_annotation():
    source = (
        ".globl main\n.entry main\nmain:\n"
        "    li t1, 4\n"
        "again:\n"
        "    addi a0, a0, 1 !count\n"
        "    addi t1, t1, -1\n"
        "    bne t1, x0, again\n"
        "    li a7, 93\n"
        "    ecall\n"
    )
    image, state, _, policy = coverage_run(source)
    assert list(policy.ci_counts.values()) == [4]


def test_coverage_computed_only_mode_has_no_direct_bcf():
    # only direct branches: nothing is computed, so nothing is tracked
    source = (
        ".globl main\n.entry main\nmain:\n"
        "    li t1, 2\n"
        "again:\n"
        "    addi t1, t1, -1\n"
        "    bne t1, x0, again\n"
        "    li a7, 93\n"
        "    ecall\n"
    )
    _, _, _, policy = coverage_run(source, mode="computed_only")
    assert policy.bcf == {}
    # with a computed transfer present, only that transfer is tracked
    image, state, _, policy = coverage_run(mode="computed_only")
    assert len(policy.bcf) == 1
    ret_pc = next(iter(policy.bcf))
    assert codec.decode(_word(image, state, ret_pc)).mnemonic == "jalr"


def test_coverage_cl_writeback_saturates():
    image = build_image(COVERAGE_BLOCKS, COVERAGE, tagged=True)
    label_addr = next(addr for addr, kind in image.label_addrs if kind == "cl")
    # preset the label's payload to the ceiling; block_fn's entry runs 3 times
    offset = label_addr - image.text_base
    word = int.from_bytes(image.text[offset:offset + 4], "little") | (0xFFFFF << 12)
    text = image.text[:offset] + word.to_bytes(4, "little") + image.text[offset + 4:]
    image = dataclasses.replace(image, text=text)
    state, _, policy = run(image, mode="aware")
    assert label_addr in policy.cl_addresses
    assert (_word(image, state, label_addr) >> 12) & 0xFFFFF == 0xFFFFF


def test_coverage_store_to_carrier_retags_its_group():
    # Overwriting bump's carrier with a bare `lui x0, 0` tags its whole
    # group CL, so the second call neither counts the addi nor records ret.
    source = (
        ".globl bump\nbump:\n"
        "    addi a0, a0, 1 !count\n"
        "    ret\n"
        ".globl main\n.entry main\nmain:\n"
        "    call bump\n"
        "    la t0, bump\n"
        "    li t1, 0x37\n"
        "    sw t1, 0(t0)\n"
        "    call bump\n"
        "    li a7, 93\n"
        "    ecall\n"
    )
    image, state, _, policy = coverage_run(source)
    assert state.exit_code == 2
    lo, hi = block_fn_range(image)  # bump is the first fragment
    assert list(policy.ci_counts.values()) == [1]
    assert [sum(targets.values()) for pc, targets in policy.bcf.items()
            if lo <= pc < hi] == [1]


def test_coverage_cl_counts_match_executions():
    image, state, _, policy = coverage_run()
    counts = label_counts(image, state)
    assert set(policy.cl_addresses) <= set(addr for addr, _ in image.label_addrs)
    for addr in policy.cl_addresses:
        assert counts[addr] > 0


def test_coverage_transparent_in_compat():
    image = build_image(COVERAGE_BLOCKS, COVERAGE, tagged=True)
    state, _, _ = run(image, mode="compat")
    baseline = build_image(COVERAGE_BLOCKS, COVERAGE, tagged=False)
    base_state, _, _ = run(baseline, mode="compat")
    assert state.regs[10:13] == base_state.regs[10:13]
    assert state.exit_code == base_state.exit_code


# ---------------------------------------------------------------------------
# report

def test_report_values():
    from rvtag.cli import report

    base = emulator.ExecCounters(retired=4, tag_fetches=0)
    tagged = emulator.ExecCounters(retired=4, tag_fetches=2)
    rep = report(base, tagged, (16, 24))
    assert rep["dynamic_overhead_pct"] == 50.0
    assert rep["static_overhead_pct"] == 50.0
    rep = report(base, base, (16, 16))
    assert rep["dynamic_overhead_pct"] == 0.0
    rep = report(emulator.ExecCounters(retired=9),
                 emulator.ExecCounters(retired=9, tag_fetches=3), (36, 48))
    assert abs(rep["static_overhead_pct"] - 100 / 3) < 1e-9
    assert abs(rep["dynamic_overhead_pct"] - 100 / 3) < 1e-9
    assert rep["schema"] == "rvtag-report-v1"


# ---------------------------------------------------------------------------
# semantics the block translator must keep

PATCHED = (
    ".globl bump\nbump:\n"
    "    addi a0, a0, 1\n"
    "    ret\n"
    ".globl main\n.entry main\nmain:\n"
    "    call bump\n"
    "    la t0, bump\n"
    "    li t1, NEW_WORD\n"
    "    sw t1, OFFSET(t0)\n"
    "    call bump\n"
    "    li a7, 93\n"
    "    ecall\n"
)


def test_coverage_store_to_text_runs_the_new_instruction():
    # the addi is not always the word after bump's carrier: that slot can
    # hold the block's CL label, so find it in the built image
    old_word = codec.encode(Insn("addi", rd=10, rs1=10, imm=1))
    new_word = codec.encode(Insn("addi", rd=10, rs1=10, imm=100))

    def build(offset):
        return build_image(PATCHED, COVERAGE, tagged=True,
                           defsym={"NEW_WORD": new_word, "OFFSET": offset})

    image = build(0)
    offset = image.text.index(old_word.to_bytes(4, "little"))
    assert offset % 4 == 0 and offset < image.tag_regions[1].start - image.text_base
    image = build(offset)
    assert image.text.index(old_word.to_bytes(4, "little")) == offset
    state, _, _ = run(image, mode="aware")
    assert state.exit_code == 101  # first call adds 1, the patched one 100


def test_limit_exceeded_leaves_exact_state():
    image = build_image("main:\n    j main\n", N3, tagged=False)
    machine = Emulator(image, max_insns=100)
    with pytest.raises(LimitExceeded):
        machine.run()
    assert machine.counters.retired == 100
    assert machine.state.pc == 0x10000


def test_unsigned_overflow_is_not_retired():
    source = (
        "main:\n"
        "    li a2, 1\n"
        "    sub a0, a0, a2 !unsigned\n"
        "    ecall\n"
    )
    machine = Emulator(build_image(source, UNARITH, tagged=True), mode="aware")
    with pytest.raises(PolicyViolation) as info:
        machine.run()
    assert info.value.kind == "UnsignedOverflow"
    assert machine.state.pc == info.value.pc == 0x10008
    assert machine.counters.retired == 1
    assert machine.counters.tag_fetches == 1


def test_compat_custom_carrier_fault_counts_the_fetch():
    image = build_image(SUM_1_TO_10, make_config(carrier="custom", coverage=3), tagged=True)
    machine = Emulator(image, mode="compat")
    with pytest.raises(BadInstruction, match=f"pc={image.entry:#x}"):
        machine.run()
    assert (machine.counters.tag_fetches, machine.counters.retired) == (1, 0)
    assert machine.state.pc == image.entry


@pytest.mark.parametrize("word,outcome", [(0x00000073, "ecall"), (0xFFFFFFFF, None)],
                         ids=["ecall", "bad-word"])
def test_jump_into_data_fetches_from_memory(word, outcome):
    source = (
        "main:\n"
        "    la t0, code\n"
        "    jalr x0, t0, 0\n"
        ".data\n"
        "code:\n"
        f"    .word {word:#x}\n"
    )
    image = build_image(source, N3, tagged=True)
    if outcome is None:
        with pytest.raises(BadInstruction, match=f"pc={DATA_BASE:#x}"):
            run(image, mode="aware")
        return
    state, _, _ = run(image, mode="aware")
    assert state.stop_reason == outcome


# ---------------------------------------------------------------------------
# the fetch budget and the edges of translated blocks

def _stepped(image, mode):
    """Run one fetch at a time: the budget grows by one per call, so no
    block holds more than one word.  Returns the machine and what it raised."""
    machine = Emulator(image, mode=mode, max_insns=0)
    while True:
        machine.max_insns += 1
        try:
            machine.run()
            return machine, None
        except LimitExceeded:
            continue
        except (PolicyViolation, BadInstruction) as exc:
            return machine, exc


def _fault(image, mode):
    """The fault of a whole-block run, checked against a stepped run."""
    machine = Emulator(image, mode=mode)
    with pytest.raises((PolicyViolation, BadInstruction)) as info:
        machine.run()
    stepped, exc = _stepped(image, mode)
    assert type(exc) is type(info.value) and getattr(exc, "pc", None) == info.value.pc
    assert machine.state == stepped.state and machine.counters == stepped.counters
    assert machine.policy == stepped.policy
    return machine, info.value


def test_compat_carrier_branch_hits_the_fetch_budget():
    # compat runs a carrier slot as an instruction but counts it as a tag
    # fetch, so a carrier rewritten to `beq x0, x0, 0` spins on it
    source = cfi_source('"i64(i64)"', '"i64(i64)"')
    image = build_image(source, CFI, tagged=True)
    carrier = image.tag_regions[0].start
    offset = carrier - image.text_base
    text = image.text[:offset] + (0x00000063).to_bytes(4, "little") + image.text[offset + 4:]
    machine = Emulator(dataclasses.replace(image, text=text), mode="compat", max_insns=20000)
    with pytest.raises(LimitExceeded):
        machine.run()
    assert (machine.counters.retired, machine.counters.tag_fetches) == (0, 20000)
    assert machine.state.pc == carrier == image.entry


def test_compat_carrier_that_faults_counts_its_fetch():
    # compat runs a carrier slot as an instruction: one rewritten to a store
    # to unmapped address 0 faults there, mid-block, counted as a tag fetch
    image = build_image(SUM_1_TO_10, N3, tagged=True)
    carrier = image.tag_regions[0].start + 16  # after a carrier and three li
    offset = carrier - image.text_base
    word = codec.encode(Insn("sd", rs1=0, rs2=0, imm=0)).to_bytes(4, "little")
    image = dataclasses.replace(image, text=image.text[:offset] + word + image.text[offset + 4:])
    machine, exc = _fault(image, "compat")
    assert exc.kind == "MemFault" and exc.pc == carrier == machine.state.pc
    assert (machine.counters.retired, machine.counters.tag_fetches) == (3, 2)


@pytest.mark.parametrize("source,config,mode", [
    (ASM_EX_BOUNDED, N3, "compat"), (ASM_EX_BOUNDED, N3, "aware"),
    (cfi_source('"i64(i64)"', '"i64(i64)"'), CFI, "aware"),
    (COVERAGE_BLOCKS, COVERAGE, "aware"),
], ids=["loop-compat", "loop-aware", "cfi", "coverage"])
def test_fetch_budget_stops_mid_block(source, config, mode):
    image = build_image(source, config, tagged=True, defsym={"ITERS": 5})
    whole = Emulator(image, mode=mode)
    whole.run()
    for budget in range(1, min(21, whole.counters.total)):
        machine = Emulator(image, mode=mode, max_insns=budget)
        with pytest.raises(LimitExceeded):
            machine.run()
        assert machine.counters.total == budget
        # state.pc is the next unexecuted fetch: resuming ends as one run does
        machine.max_insns = 10 ** 6
        machine.run()
        assert machine.state == whole.state and machine.counters == whole.counters
        assert machine.policy == whole.policy


def test_coverage_store_to_the_next_word_runs_the_new_instruction():
    # the store ends its block, so the word it rewrites right after it is
    # fetched anew; the build with OFFSET 0 locates that word
    source = (
        ".globl main\n.entry main\nmain:\n"
        "    la t0, main\n"
        "    li t1, NEW_WORD\n"
        "    sw t1, OFFSET(t0)\n"
        "    addi a0, a0, 1\n"
        "    li a7, 93\n"
        "    ecall\n"
    )
    old_word = codec.encode(Insn("addi", rd=10, rs1=10, imm=1)).to_bytes(4, "little")
    new_word = codec.encode(Insn("addi", rd=10, rs1=10, imm=100))

    def build(offset):
        return build_image(source, COVERAGE, tagged=True,
                           defsym={"NEW_WORD": new_word, "OFFSET": offset})

    offset = build(0).text.index(old_word)
    image = build(offset)
    store = next(pc for pc in range(offset - 4, 0, -4)
                 if codec.decode(int.from_bytes(image.text[pc:pc + 4], "little")).mnemonic == "sw")
    assert image.text.index(old_word) == offset and store + 4 == offset
    state, _, _ = run(image, mode="aware")
    assert state.exit_code == 100


def test_coverage_store_of_a_malformed_carrier_faults_at_the_store():
    source = (
        ".globl bump\nbump:\n"
        "    addi a0, a0, 1\n"
        "    ret\n"
        ".globl main\n.entry main\nmain:\n"
        "    call bump\n"
        "    la t0, bump\n"
        "    li t1, 0x13\n"  # addi x0, x0, 0: not a lui carrier
        "    sw t1, 0(t0)\n"
        "    call bump\n"
        "    ecall\n"
    )
    image = build_image(source, COVERAGE, tagged=True)
    machine, exc = _fault(image, "aware")
    assert isinstance(exc, BadInstruction) and f"{image.text_base:#x}" in str(exc)
    assert codec.decode(machine.memory.read(machine.state.pc, 4)).mnemonic == "sw"


@pytest.mark.parametrize("access", ["ld a0, 0(t0)", "sd a1, 8(t0)", "lw a0, -4(t2)"])
@pytest.mark.parametrize("mode", ["compat", "aware"])
def test_unmapped_access_faults_at_its_pc(access, mode):
    # 0x400000 lies between the data segment and the stack; t2 is text_base
    source = (
        "main:\n"
        "    li t1, 7\n"
        "    li t0, 0x400000\n"
        "    li t2, 0x10000\n"
        "    addi t1, t1, 1\n"
        f"    {access}\n"
        "    addi t1, t1, 1\n"
        "    ecall\n"
    )
    image = build_image(source, N3, tagged=True)
    machine, exc = _fault(image, mode)
    assert exc.kind == "MemFault" and machine.state.pc == exc.pc
    assert codec.decode(machine.memory.read(exc.pc, 4)).mnemonic == access[:2]
    assert machine.state.regs[6] == 8  # the addi before it ran, the one after did not


@pytest.mark.parametrize("config", [N3, CFI, UNARITH, COVERAGE], ids=lambda c: c.policy)
def test_a_finished_machine_is_freed_without_the_cycle_collector(config):
    # no op or terminator refers back to its Emulator but weakly, so dropping
    # the last reference frees the blocks, the memory map and the stack
    import gc
    import weakref

    from rvtag.corpus import generate_corpus

    image = build_image(generate_corpus(7, 1)[0], config, tagged=True)  # it stores to data
    gc.disable()
    try:
        for mode in ("compat", "aware"):
            machine = Emulator(image, mode=mode)
            machine.run()
            ref = weakref.ref(machine)
            del machine
            assert ref() is None
    finally:
        gc.enable()


def test_stack_segment_holds_sp_relative_data():
    source = (
        "main:\n"
        "    addi sp, sp, -16\n"
        "    li t1, -3\n"
        "    sd t1, 8(sp)\n"
        "    ld a0, 8(sp)\n"
        "    li t0, STACK_BOTTOM\n"
        "    sb t1, -1(t0)\n"  # the byte below the stack
        "    ecall\n"
    )
    image = build_image(source, N3, tagged=True,
                        defsym={"STACK_BOTTOM": emulator.STACK_TOP - emulator.STACK_SIZE})
    machine, exc = _fault(image, "aware")
    assert machine.state.regs[10] == (1 << 64) - 3
    assert machine.memory.read(emulator.STACK_TOP - 8, 8) == (1 << 64) - 3
    assert exc.kind == "MemFault" and "1-byte store" in exc.detail


@pytest.mark.parametrize("fixup,kind", [("", "CfiMismatch"),
                                        ("    addi t1, t1, 8\n", "CfiMissingEntryLabel")])
def test_cfi_entry_check_reports_the_first_word_of_the_block(fixup, kind):
    image = build_image(cfi_source('"i64(ptr)"', '"i64(i64)"', fixup=fixup), CFI, tagged=True)
    machine, exc = _fault(image, "aware")
    # entered at callee's carrier, the check falls on the entry label after
    # it; entered past that label, on the landing word itself
    callee = image.tag_regions[-1].start
    assert exc.kind == kind and exc.pc == (callee + 8 if fixup else callee + 4)


NOP_CARRIER_LAYOUTS = sorted(
    (carrier.value, coverage) for carrier, coverage in codec.TAG_BITS
    if carrier is not TagCarrier.CUSTOM)


def _aware_none_matches_compat(config, label_entries) -> int:
    """Run generate_corpus programs in both modes; returns the labels seen."""
    from rvtag.cli import compare_states
    from rvtag.corpus import generate_corpus
    from rvtag.instrument import insert_label
    from rvtag.pipeline import assemble_sources

    labels_seen = 0
    for seed in (5, 23, 61):
        for text in generate_corpus(seed, 8):
            program = assemble_sources(text)
            if label_entries:
                for frag_index in range(len(program.fragments)):
                    insert_label(program, (frag_index, 0), 0x100 + frag_index,
                                 config.default_tag)
            image = link(program, config, tagged=True)
            compat_state, compat, _ = run(image, mode="compat", max_insns=10 ** 6)
            aware_state, aware, _ = run(image, mode="aware", max_insns=10 ** 6)
            assert compare_states(compat_state, aware_state, image.data_base) is None
            assert (aware.retired, aware.tag_fetches, aware.labels_seen) == \
                (compat.retired, compat.tag_fetches, compat.labels_seen)
            labels_seen += aware.labels_seen
    return labels_seen


@pytest.mark.parametrize("carrier,coverage", NOP_CARRIER_LAYOUTS)
def test_aware_none_matches_compat_on_corpus(carrier, coverage):
    _aware_none_matches_compat(make_config(carrier=carrier, coverage=coverage), False)


@pytest.mark.parametrize("carrier,coverage", NOP_CARRIER_LAYOUTS)
def test_aware_none_matches_compat_on_labelled_corpus(carrier, coverage):
    # a metadata label at every fragment entry, so labels_seen is exercised
    config = make_config(carrier=carrier, coverage=coverage)
    assert _aware_none_matches_compat(config, True) > 0


# ---------------------------------------------------------------------------
# pinned execution: every architectural and policy result of a run

def _final_memory(state, image) -> tuple:
    """Final text bytes (CL write-back lands there) and every nonzero byte
    at or above the data base, as (address, value) pairs."""
    memory, high = state.memory, []
    for base, segment in ((memory.data_base, memory.data),
                          (emulator.STACK_TOP - len(memory.stack), memory.stack)):
        start = len(segment) - len(segment.lstrip(b"\0"))
        high += [(base + i, segment[i])
                 for i in range(start, len(segment.rstrip(b"\0"))) if segment[i]]
    return bytes(state.memory.text), high


def _execution_record(image, mode, max_insns=10 ** 6) -> bytes:
    machine = Emulator(image, mode=mode, max_insns=max_insns)
    try:
        machine.run()
        error = None
    except PolicyViolation as exc:
        error = (type(exc).__name__, exc.kind, exc.pc)
    except (BadInstruction, LimitExceeded) as exc:
        error = (type(exc).__name__,)
    state, counters, policy = machine.state, machine.counters, machine.policy
    return repr((error, state.regs, state.pc, state.exit_code, state.stop_reason,
                 bytes(state.stdout), _final_memory(state, image),
                 (counters.retired, counters.tag_fetches, counters.labels_seen),
                 sorted(policy.ci_counts.items()),
                 sorted((pc, sorted(targets.items())) for pc, targets in policy.bcf.items()),
                 policy.cl_addresses)).encode()


def _bench_workloads():
    import importlib.util
    import pathlib

    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# sha256 over the runs below, computed with the per-pc dispatch-table
# emulator that preceded block translation.
EXECUTION_DIGEST = "cb60c9c4366c4ed81a8d3eb47725bf8ec73d61d13217fcb87bb1d7e2a55877fd"


def test_execution_is_pinned():
    from test_acceptance import UNDERFLOW_COPY, _cfi_source
    from test_emitlink import _buildable_cells

    from rvtag.corpus import generate_corpus

    digest = hashlib.sha256()
    cells = _buildable_cells()
    assert len(cells) == 35
    for text in generate_corpus(7, 8):
        digest.update(_execution_record(build_image(text, cells[0], tagged=False), "compat"))
        for config in cells:
            image = build_image(text, config, tagged=True, cfi_label_direct_calls=True)
            for mode in ("compat", "aware"):
                digest.update(_execution_record(image, mode))
    workloads = _bench_workloads()
    kernel, _ = workloads.kernel(random.Random(3), 40)
    large, _ = workloads.large_unit(random.Random(3), 12)
    for source in (kernel, large):
        digest.update(_execution_record(build_image(source, N3, tagged=False), "compat"))
        for config in (N3, CFI, UNARITH, COVERAGE):
            image = build_image(source, config, tagged=True, cfi_label_direct_calls=True)
            for mode in ("compat", "aware"):
                digest.update(_execution_record(image, mode))
    cfi = make_config(carrier="lui", coverage=3, policy="cfi")
    violations = (
        (_cfi_source('"i64(ptr)"', '"i64(i64)"'), cfi),
        (_cfi_source('"i64(i64)"', '"i64(i64)"', fixup="    addi t1, t1, 8\n"), cfi),
        (UNDERFLOW_COPY.format(len1=2, len2=3, annot="!unsigned"), UNARITH),
        (COVERAGE_BLOCKS, COVERAGE),
        (PATCHED.replace("NEW_WORD", "0x37").replace("OFFSET", "0"), COVERAGE),
    )
    for source, config in violations:
        digest.update(_execution_record(build_image(source, config, tagged=True), "aware"))
    assert digest.hexdigest() == EXECUTION_DIGEST
