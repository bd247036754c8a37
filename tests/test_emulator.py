import ast
import collections
import copy
import dataclasses
import hashlib
import os
import random
import types

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


def test_memory_read_takes_whole_accesses_inside_one_segment():
    stack = bytearray(emulator.STACK_SIZE)
    stack[:8], stack[-8:] = bytes(range(200, 208)), bytes(range(240, 248))
    memory = emulator.Memory(bytearray(range(1, 13)), bytearray(range(50, 74)), stack)
    for base, segment in memory.segments:  # data, the stack, text
        end = base + len(segment)
        for size in (1, 2, 4, 8):
            assert memory.read(base, size) == int.from_bytes(segment[:size], "little")
            assert memory.read(end - size, size) == int.from_bytes(segment[-size:], "little")
            for addr in {base - 1, base - size + 1, end - size + 1, end}:
                if addr not in (base, end - size):  # one byte before or past, or straddling
                    with pytest.raises(KeyError, match="outside the memory map"):
                        memory.read(addr, size)


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
    with pytest.raises(codec.NotACarrier, match=f"tag slot {carrier_addr:#x}: "):
        Emulator(bad, mode="aware")
    state, _, _ = run(bad, mode="compat")  # tag-unaware: never parsed
    assert state.stop_reason == "exit"


def test_limit_exceeded():
    image = build_image("main:\n    j main\n", N3, tagged=False)
    with pytest.raises(LimitExceeded):
        run(image, max_insns=100)


def test_bad_instruction_off_the_end():
    image = build_image("main:\n    addi a0, a0, 1\n", N3, tagged=False)
    with pytest.raises(BadInstruction) as info:
        run(image)
    assert info.value.pc == image.text_end


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
        assert compare_states(compat_state, aware_state) is None


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
                problem = compare_states(base_state, state)
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


def test_a_counted_word_after_a_fault_in_its_block_is_not_counted():
    # the count is taken when its word runs, not when its block starts
    source = (
        ".globl main\n.entry main\nmain:\n"
        "    ld a1, 0(x0)\n"  # unmapped: a MemFault
        "    addi a0, a0, 1 !count\n"
        "    li a7, 93\n"
        "    ecall\n"
    )
    machine, exc = _fault(build_image(source, COVERAGE, tagged=True), "aware")
    assert exc.kind == "MemFault" and machine.policy.ci_counts == {}


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

# stores to bump's first word between two calls: a MemFault at the store,
# as text is execute-only
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


@pytest.mark.parametrize("word", [0x00000073, 0xFFFFFFFF], ids=["ecall", "bad-word"])
def test_jump_into_data_faults_at_its_target(word):
    # only text executes: the data word is never fetched, valid or not
    source = (
        "main:\n"
        "    la t0, code\n"
        "    jalr x0, t0, 0\n"
        ".data\n"
        "code:\n"
        f"    .word {word:#x}\n"
    )
    image = build_image(source, N3, tagged=True)
    with pytest.raises(BadInstruction, match=f"pc={DATA_BASE:#x}") as info:
        run(image, mode="aware")
    assert info.value.pc == DATA_BASE


# writes an ecall into data and returns to it: cfi does not check returns,
# so only non-executable data keeps the written word from running
RETURN_INTO_DATA = (
    "main:\n"
    "    la t0, buf\n"
    "    li t1, 0x73\n"
    "    sw t1, 0(t0)\n"
    "    li a0, 42\n"
    "    li a7, 93\n"
    "    mv ra, t0\n"
    "    ret\n"
    ".data\n"
    "buf:\n"
    "    .zero 8\n"
)


def test_a_return_into_written_data_faults_under_cfi():
    image = build_image(RETURN_INTO_DATA, CFI, tagged=True)
    machine, exc = _fault(image, "aware")
    assert isinstance(exc, BadInstruction) and exc.pc == DATA_BASE == machine.state.pc
    assert machine.memory.read(DATA_BASE, 4) == 0x73  # the store ran; the word did not
    assert not machine.state.halted


@pytest.mark.parametrize("mode", ["compat", "aware"])
def test_a_jump_onto_the_stack_faults_at_its_target(mode):
    source = (
        "main:\n"
        "    addi sp, sp, -16\n"
        "    li t1, 0x73\n"
        "    sw t1, 0(sp)\n"
        "    li a0, 7\n"
        "    li a7, 93\n"
        "    jalr x0, sp, 0\n"
    )
    image = build_image(source, N3, tagged=True)
    machine, exc = _fault(image, mode)
    assert isinstance(exc, BadInstruction) and exc.pc == emulator.STACK_TOP - 16
    assert machine.state.pc == exc.pc and not machine.state.halted


LOAD_TO_X0 = (
    "main:\n"
    "    li a0, 7\n"
    "    ADDRESS\n"
    "    lw x0, 0(a1)\n"
    "    li a7, 93\n"
    "    ecall\n"
    ".data\n"
    "buf:\n"
    "    .word 5\n"
)


@pytest.mark.parametrize("mode", ["compat", "aware"])
def test_a_load_to_x0_still_faults(mode):
    # RV64: a load whose destination is x0 still raises its exceptions
    image = build_image(LOAD_TO_X0.replace("ADDRESS", "lui a1, 0x900"), N3, tagged=True)
    machine, exc = _fault(image, mode)
    assert exc.kind == "MemFault" and exc.pc == machine.state.pc
    insn = codec.decode(machine.memory.read(exc.pc, 4))
    assert (insn.mnemonic, insn.rd) == ("lw", 0)


@pytest.mark.parametrize("mode", ["compat", "aware"])
def test_a_mapped_load_to_x0_retires_and_writes_nothing(mode):
    image = build_image(LOAD_TO_X0.replace("ADDRESS", "la a1, buf"), N3, tagged=True)
    state, counters, _ = run(image, mode=mode)
    assert (state.stop_reason, state.exit_code, state.regs[0]) == ("exit", 7, 0)
    assert counters.retired == 6  # la is two words


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
    # no op or terminator refers back to its Emulator, so dropping the last
    # reference frees the blocks, the memory map and the stack
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


def test_a_machine_does_not_keep_its_image_alive():
    # it runs on its own copies of text and data
    import weakref

    image = build_image(SUM_1_TO_10, COVERAGE, tagged=True)
    ref = weakref.ref(image)
    machine = Emulator(image, mode="aware")
    machine.run()
    del image
    assert ref() is None
    assert machine.state.regs[10] == 55


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
            assert compare_states(compat_state, aware_state) is None
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
    for base, segment in ((DATA_BASE, memory.data),
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
# emulator that preceded block translation, but for the last: PATCHED's run
# ends in a MemFault at its store, as text is execute-only.
EXECUTION_DIGEST = "7183c1d5fbaf796efedc2d05cc1401bdd7a8d21490a767da2b94eaec0bee5fff"


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


# ---------------------------------------------------------------------------
# the hot tier: regions must run exactly as the closures they replace

@pytest.fixture
def forced(monkeypatch):
    """Promotion forced: every dispatch of a cached block samples it, so it
    joins the region at its second cached dispatch.  Returns the list of
    regions made."""
    made = []
    make_region = emulator._region
    monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 0)
    monkeypatch.setattr(emulator, "_region",
                        lambda *args: made.append(make_region(*args)) or made[-1])
    return made


def _one_member_region(ops, term):
    """(region, run): the region whose one member, at TEXT_BASE, runs ops
    and then term, and run(regs), which runs that member once and returns
    the pc the region stopped at: the next pc, or the halting word."""
    at, fetches = [0, 0, 0, 0], len(ops) + 1
    block = (tuple(ops), fetches, fetches, 0, term, emulator.TEXT_BASE + 4 * fetches)
    region = emulator._region([(emulator.TEXT_BASE, block)], at)

    def run_member(regs):
        region(regs, emulator.TEXT_BASE, fetches)
        return at[0]
    return region, run_member


def test_forced_promotion_keeps_the_pinned_execution(forced):
    test_execution_is_pinned()
    assert len(forced) > 100


def test_a_short_run_compiles_nothing(monkeypatch):
    # a corpus program fetches fewer words than one sample interval
    from rvtag.corpus import generate_corpus

    monkeypatch.setattr(emulator, "_region", None)  # calling it would fail the run
    for text in generate_corpus(7, 8):
        run(build_image(text, COVERAGE, tagged=True), mode="aware")


def test_a_hot_loop_compiles_at_its_second_sample(monkeypatch):
    compiled = []  # the ops of each block that a region made holds
    make_region = emulator._region
    monkeypatch.setattr(emulator, "_region", lambda members, *args: compiled.extend(
        block[0] for _, block in members) or make_region(members, *args))
    kernel, a0 = _bench_workloads().kernel(random.Random(3), 40)
    assert final_a0(build_image(kernel, N3, tagged=False)) == a0
    assert not compiled  # 40 iterations are about 720 fetches: not one sample point
    kernel, a0 = _bench_workloads().kernel(random.Random(3), 1500)
    # the loop body, up to its jalr, crosses the first mark and joins the
    # region at the second, inside three sample intervals
    machine = Emulator(build_image(kernel, N3, tagged=False),
                       max_insns=3 * emulator._SAMPLE_FETCHES + 256)
    with pytest.raises(LimitExceeded):
        machine.run()
    assert 12 in [len(ops) for ops in compiled]
    assert final_a0(build_image(kernel, N3, tagged=False)) == a0
    for config in (N3, CFI, UNARITH, COVERAGE):  # each aware cell of the bench, tagged
        compiled.clear()
        assert final_a0(build_image(kernel, config, tagged=True), "aware") == a0
        assert compiled, config.policy


KERNEL_CELLS = [(None, "compat"), (N3, "compat"), (N3, "aware"), (CFI, "aware"),
                (UNARITH, "aware"), (COVERAGE, "aware")]


@pytest.mark.parametrize("config,mode", KERNEL_CELLS,
                         ids=lambda cell: cell if isinstance(cell, str) else getattr(
                             cell, "policy", "untagged"))
def test_the_kernel_loop_inlines_its_load_and_store(monkeypatch, config, mode):
    # its ld and sd always hit data: a miss, or an access or a policy check
    # left a plain call, would be a silent fall-back to the slow path
    kernel, a0 = _bench_workloads().kernel(random.Random(3), 1500)
    machine = Emulator(build_image(kernel, config or N3, tagged=config is not None), mode=mode)
    load_miss, store_miss = machine._access[3:]
    regions, misses = [], []
    make_region = emulator._region

    def counted(function):
        """function, with each miss it binds counted in misses"""
        function.__defaults__ = tuple(
            (lambda *args, miss=value: misses.append(miss) or miss(*args))
            if value is load_miss or value is store_miss else value
            for value in function.__defaults__)
        return function

    def bound(function):
        code = function.__code__
        return dict(zip(code.co_varnames[code.co_argcount - len(function.__defaults__):
                                         code.co_argcount], function.__defaults__))

    def spy_region(*args):
        region = make_region(*args)
        regions.append(bound(region))
        return counted(region)

    # the loop runs in its region, which binds each miss once
    monkeypatch.setattr(emulator, "_region", spy_region)
    machine.run()
    assert machine.state.regs[10] == a0
    loops = [names for names in regions if load_miss in names.values()]  # with the ld's block
    assert loops
    for names in loops:
        values = list(names.values())
        assert sum(value is load_miss for value in values) == 1
        assert sum(value is store_miss for value in values) == 1
        assert "data" in names
    for names in regions:  # no plain call
        assert not any(name[0] == "f" and name[1:].isdigit() for name in names)
    assert not misses


STACK_BOTTOM = emulator.STACK_TOP - emulator.STACK_SIZE
EDGE_LOOP = (
    '.globl main\n.entry main\nmain:\n    .signature "i64()"\n'
    "    li t4, -2\n"
    "    sd t4, -8(sp)\n"  # the top and the bottom of the stack hold top-bit values
    f"    li t5, {STACK_BOTTOM}\n"
    "    sd t4, 0(t5)\n"
    "    li a1, -3\n"
    "    la t0, buf\n"
    "    addi t0, t0, SAFE\n"
    "    lui t2, HI\n"
    "    addi t2, t2, LO\n"
    "    li s3, 8\n"
    "loop:\n"
    "    ACCESS\n"  # at buf + 16 six times, compiled from about the fourth; then twice at t2
    "    addi s3, s3, -1\n"
    "    li t3, 2\n"
    "    bne s3, t3, next\n"
    "    mv t0, t2\n"
    "next:\n"
    "    bne s3, x0, loop\n"
    "    li a7, 93\n"
    "    ecall\n"
    ".data\n"
    "buf:\n" + "    .dword -0x7f7e7d7c7b7a7979\n" * 8  # 64 bytes, each with its top bit set
)
# six times in data, then at main + OFFSET, a word of the first groups,
# which hold the loop: the load reads it, and the store that would write it
# back unchanged is a MemFault in every mode and policy
SELF_GROUP = (
    '.globl main\n.entry main\nmain:\n    .signature "i64()"\n'
    "    la t0, buf\n"
    "    la t2, main\n"
    "    addi t2, t2, OFFSET\n"
    "    li s3, 8\n"
    "loop:\n"
    "    ld t4, 0(t0)\n"
    "    addi a0, a0, 1\n"
    "    STORE t4, 0(t0)\n"
    "    addi s3, s3, -1\n"
    "    li t3, 2\n"
    "    bne s3, t3, next\n"
    "    mv t0, t2\n"
    "next:\n"
    "    bne s3, x0, loop\n"
    "    li a7, 93\n"
    "    ecall\n"
    ".data\n"
    "buf:\n"
    "    .dword 5\n"
)
LOADS = {"lb": 1, "lbu": 1, "lh": 2, "lhu": 2, "lw": 4, "lwu": 4, "ld": 8}
STORES = {"sb": 1, "sh": 2, "sw": 4, "sd": 8}


def _edge_sources(text_end):
    """(source, access, address, width, segment) of each edge access: every
    load (to a0, and a word to x0) and store at each segment's first and
    last whole access, one byte past each end, and straddling each end.  The
    segment is None for text; a SELF_GROUP source has no access or address."""
    segments = [(DATA_BASE, DATA_BASE + 64), (STACK_BOTTOM, emulator.STACK_TOP), None]
    accesses = [(f"{m} a0", size) for m, size in LOADS.items()] + [("lw x0", 4)]
    accesses += [(f"{m} a1", size) for m, size in STORES.items()]
    for segment in segments:
        lo, hi = segment or (emulator.TEXT_BASE, text_end)
        for access, size in accesses:
            for k, address in enumerate(sorted({lo - 1, lo - size + 1, lo, hi - size,
                                                hi - size + 1, hi})):
                imm = 8 * (k % 2)  # with and without an offset
                upper = (address - imm + 0x800) >> 12
                source = (EDGE_LOOP.replace("ACCESS", f"{access}, {imm}(t0)")
                          .replace("SAFE", str(16 - imm)).replace("HI", str(upper))
                          .replace("LO", str(address - imm - (upper << 12))))
                yield source, access, address, size, segment
    for store in STORES:
        for offset in range(0, 48, 4):
            yield (SELF_GROUP.replace("STORE", store).replace("OFFSET", str(offset)),
                   None, None, None, None)


def _edge_oracle(access, address, size, inside):
    """(a0, the nonzero bytes of data and the stack by address) that an
    EDGE_LOOP run of access ends with, worked out from the bytes the program
    writes: a load's value is its bytes sign- or zero-extended, and a store
    writes a1's low bytes.  The edge access, if not inside, faults first."""
    mask = (1 << 64) - 1
    memory = {}
    for base, value in [(DATA_BASE + 8 * k, -0x7F7E7D7C7B7A7979) for k in range(8)] + [
            (STACK_BOTTOM, -2), (emulator.STACK_TOP - 8, -2)]:
        memory.update(zip(range(base, base + 8), (value & mask).to_bytes(8, "little")))
    mnemonic, rd = access.split()
    if mnemonic in STORES:
        for addr in [DATA_BASE + 16] + [address] * inside:
            memory.update(zip(range(addr, addr + size), (-3 & mask).to_bytes(8, "little")))
        return 0, memory
    addr = address if inside else DATA_BASE + 16
    value = int.from_bytes(bytes(memory.get(a, 0) for a in range(addr, addr + size)), "little",
                           signed=mnemonic in ("lb", "lh", "lw"))
    return (value & mask if rd == "a0" else 0), memory


@pytest.mark.parametrize("config", [N3, CFI, UNARITH, COVERAGE], ids=lambda c: c.policy)
def test_inlined_accesses_at_every_edge_run_as_the_cold_tier(forced, monkeypatch, config):
    # the edge sources differ only in immediates: their text is as long as the first's
    text_end = build_image(next(_edge_sources(0))[0], config, tagged=True).text_end
    for source, access, address, size, segment in _edge_sources(text_end):
        image = build_image(source, config, tagged=True)
        assert image.text_end == text_end or address is None
        for mode in ("compat", "aware"):
            forced.clear()
            monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 0)
            compiled = _execution_record(image, mode)
            assert any("data" in block.__code__.co_varnames for block in forced), source
            monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 10 ** 12)  # never samples
            assert _execution_record(image, mode) == compiled, (source, mode)
            record = ast.literal_eval(compiled.decode())
            error, regs = record[:2]
            if address is None:  # the seventh iteration's store to text
                assert error[:2] == ("PolicyViolation", "MemFault") and regs[10] == 7, source
            elif segment:  # an access outside data or the stack faults, one inside does not
                lo, hi = segment
                inside = lo <= address <= hi - size
                assert (error is None) == inside, (source, mode, error)
                # both tiers run one body, so only values worked out here
                # show a bug in it
                a0, memory = _edge_oracle(access, address, size, inside)
                assert regs[10] == a0, (source, mode)
                assert dict(record[6][1]) == {a: v for a, v in memory.items() if v}, (source, mode)


HOT_LOAD = (
    ".globl main\n.entry main\nmain:\n"
    "    la a1, table\n"
    "loop:\n"
    "    ld t0, 0(a1)\n"  # walks off the end of data: a MemFault
    "    add a0, a0, t0\n"
    "    addi a1, a1, 8\n"
    "    xori a2, a0, 5\n"
    "    bne a1, x0, loop\n"
    "    ecall\n"
    ".data\n"
    "table:\n"
    "    .zero 800\n"
)

HOT_BORROW = (
    ".globl main\n.entry main\nmain:\n"
    "    li a0, 60\n"
    "    li a2, 1\n"
    "loop:\n"
    "    addi t0, t0, 3\n"
    "    sub a0, a0, a2 !unsigned\n"  # borrows on the 61st iteration
    "    xor t1, t0, a0\n"
    "    j loop\n"
)

HOT_CALLEE = (
    ".globl main\n.entry main\nmain:\n"
    '    .signature "i64()"\n'
    "    li s3, 50\n"
    "    la s2, callee\n"
    "loop:\n"
    '    .calltype "i64(i64)"\n'
    "    jalr ra, s2, 0\n"
    "    addi s3, s3, -1\n"
    "    bne s3, x0, loop\n"
    '    .calltype "i64(ptr)"\n'  # the compiled callee's entry check fails
    "    jalr ra, s2, 0\n"
    "    ecall\n"
    ".globl callee\ncallee:\n"
    '    .signature "i64(i64)"\n'
    "    addi a0, a0, 7\n"
    "    xori a1, a0, 3\n"
    "    ret\n"
)

REGION_PATCH = (
    ".globl main\n.entry main\nmain:\n"
    "    la t0, scratch\n"
    "    la t2, main\n"
    "    addi t2, t2, OFFSET\n"
    "    li t1, NEW_WORD\n"
    "    li s3, 200\n"
    "loop:\n"
    "    sw t1, 0(t0)\n"  # after 150 iterations, a store to bump's addi
    "    addi s3, s3, -1\n"
    "    li t3, 50\n"
    "    bne s3, t3, bump\n"
    "    mv t0, t2\n"
    "bump:\n"
    "    addi a0, a0, 1\n"
    "    bne s3, x0, loop\n"
    "    li a7, 93\n"
    "    ecall\n"
    ".data\n"
    "scratch:\n"
    "    .dword 0\n"
)


def _offset_image(source, config, offset_of, **defsym):
    """source built with OFFSET = offset_of(image), which setting it must
    not move."""
    image = build_image(source, config, tagged=True, defsym={**defsym, "OFFSET": 0})
    offset = offset_of(image)
    image = build_image(source, config, tagged=True, defsym={**defsym, "OFFSET": offset})
    assert offset_of(image) == offset
    return image


def _self_patch_image(source):
    old_word = codec.encode(Insn("addi", rd=10, rs1=10, imm=1)).to_bytes(4, "little")
    return _offset_image(source, COVERAGE, lambda image: image.text.index(old_word),
                         NEW_WORD=codec.encode(Insn("addi", rd=10, rs1=10, imm=100)))


HOT_CARRY = (
    ".globl main\n.entry main\nmain:\n"
    "    li a0, -60\n"
    "loop:\n"
    "    addi t0, t0, 3\n"
    "    addiw a0, a0, 1 !unsigned\n"  # carries out of 32 bits on the 60th iteration
    "    xor t1, t0, a0\n"
    "    j loop\n"
)

HOT_SKIPPED_SITE = (
    ".globl main\n.entry main\nmain:\n"
    '    .signature "i64()"\n'
    "    li s3, 50\n"
    "    la s2, callee\n"
    "    la t0, main\n"
    "    addi t0, t0, OFFSET\n"  # the checked jalr in the loop, past its site label
    "loop:\n"
    "FILL"
    '    .calltype "i64(i64)"\n'
    "    jalr ra, s2, 0\n"
    "    addi s3, s3, -1\n"
    "    bne s3, x0, loop\n"
    "    mv ra, t0\n"
    "    ret\n"  # unchecked, onto the checked jalr: no site label is pending
    ".globl callee\ncallee:\n"
    '    .signature "i64(i64)"\n'
    "    addi a0, a0, 7\n"
    "    xori a1, a0, 3\n"
    "    ret\n"
)

HOT_UNLABELLED = (
    ".globl main\n.entry main\nmain:\n"
    '    .signature "i64()"\n'
    "    li s3, 50\n"
    "    la s2, callee\n"
    "loop:\n"
    '    .calltype "i64(i64)"\n'
    "    jalr ra, s2, 0\n"
    "    addi s3, s3, -1\n"
    "    bne s3, x0, loop\n"
    "    addi s2, s2, OFFSET\n"  # rest, whose block callee's j made hot
    '    .calltype "i64(i64)"\n'
    "    jalr ra, s2, 0\n"  # the compiled entry check of rest fails
    "    ecall\n"
    ".globl callee\ncallee:\n"
    '    .signature "i64(i64)"\n'
    "    addi a0, a0, 7\n"
    "    j rest\n"
    "rest:\n"
    "    xori a1, a0, 3\n"
    "    ret\n"
)


def _words(image):
    """(pc, Insn) of every text word that decodes, carriers too."""
    for offset in range(0, len(image.text), 4):
        try:
            yield (emulator.TEXT_BASE + offset,
                   codec.decode(int.from_bytes(image.text[offset:offset + 4], "little")))
        except codec.BadEncoding:
            continue


def _skipped_site_image(fill=0):
    """HOT_SKIPPED_SITE with `fill` words at the head of its loop."""
    return _offset_image(HOT_SKIPPED_SITE.replace("FILL", "    addi t1, t1, 1\n" * fill), CFI,
                         lambda image: _checked_jalr(image) - image.entry)


def _checked_jalr(image):
    """The pc of the first `jalr ra, s2, 0`."""
    jalr = codec.encode(Insn("jalr", rd=1, rs1=18, imm=0))
    return next(pc for pc, insn in _words(image) if codec.encode(insn) == jalr)


def _unlabelled_image():
    def offset_of(image):
        callee = image.tag_regions[-1].start
        return next(pc + insn.imm for pc, insn in _words(image)
                    if pc > callee and insn.mnemonic == "jal") - callee
    return _offset_image(HOT_UNLABELLED, CFI, offset_of)


def _hot_kernel(config):
    kernel, _ = _bench_workloads().kernel(random.Random(3), 200)
    return build_image(kernel, config, tagged=True)


# name: (image, mode, budget, outcome): the kind of the fault, or the final
# a0 of a run that exits
HOT_CASES = {
    "load-memfault": (lambda: build_image(HOT_LOAD, N3, tagged=True), "aware", 10 ** 6,
                      "MemFault"),
    "load-memfault-compat": (lambda: build_image(HOT_LOAD, N3, tagged=False), "compat", 10 ** 6,
                             "MemFault"),
    "unsigned-overflow": (lambda: build_image(HOT_BORROW, UNARITH, tagged=True), "aware",
                          10 ** 6, "UnsignedOverflow"),
    "cfi-mismatch": (lambda: build_image(HOT_CALLEE, CFI, tagged=True), "aware", 10 ** 6,
                     "CfiMismatch"),
    "cfi-missing-site-label": (_skipped_site_image, "aware", 10 ** 6, "CfiMissingSiteLabel"),
    "cfi-missing-entry-label": (_unlabelled_image, "aware", 10 ** 6, "CfiMissingEntryLabel"),
    "unsigned-overflow-32": (lambda: build_image(HOT_CARRY, UNARITH, tagged=True), "aware",
                             10 ** 6, "UnsignedOverflow"),
    "budget-mid-block": (lambda: _hot_kernel(N3), "compat", 2001, "LimitExceeded"),
    "budget-mid-block-cfi": (lambda: _hot_kernel(CFI), "aware", 2001, "LimitExceeded"),
    "budget-mid-block-coverage": (lambda: _hot_kernel(COVERAGE), "aware", 2001, "LimitExceeded"),
    "store-to-text-in-a-hot-loop": (lambda: _self_patch_image(REGION_PATCH), "aware", 10 ** 6,
                                    "MemFault"),
}


def _message(image, mode, max_insns) -> str | None:
    """The message of what a run raises, or None: _execution_record keeps
    only the class, kind and pc of a fault."""
    try:
        Emulator(image, mode=mode, max_insns=max_insns).run()
    except (PolicyViolation, BadInstruction, LimitExceeded) as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", HOT_CASES)
def test_a_fault_inside_a_compiled_block_is_the_interpreted_fault(forced, monkeypatch, name):
    build, mode, budget, outcome = HOT_CASES[name]
    image = build()
    compiled = _execution_record(image, mode, budget)
    message = _message(image, mode, budget)
    assert forced
    monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 10 ** 12)  # never samples
    forced.clear()
    assert _execution_record(image, mode, budget) == compiled
    assert _message(image, mode, budget) == message
    assert not forced
    error, regs = ast.literal_eval(compiled.decode())[:2]  # a repr of plain values
    if isinstance(outcome, int):
        assert error is None and regs[10] == outcome
    else:
        assert outcome in error


def test_a_site_label_that_ends_a_block_arms_the_checked_jalr_after_it(forced):
    # the loop's first block runs up to its site label, cut at the block cap,
    # so the checked jalr starts the next block and the label's value crosses
    # over to it; the ret onto that jalr then finds no label pending, in the
    # region that the jalr's block is a member of
    for fill in range(40, 64):
        image = _skipped_site_image(fill)
        machine = Emulator(image, mode="aware")
        [loop] = [pc + insn.imm for pc, insn in _words(image) if insn.mnemonic == "bne"]
        jalr = _checked_jalr(image)
        _, fetches, *_, end = machine._translate(loop)
        if end == jalr:
            break
    else:
        pytest.fail("no fill puts the site label at the block cap")
    assert fetches == emulator._BLOCK_WORDS
    machine = Emulator(image, mode="aware")
    with pytest.raises(PolicyViolation) as info:
        machine.run()
    assert (info.value.kind, info.value.pc) == ("CfiMissingSiteLabel", jalr)
    assert machine.state.regs[10] == 50 * 7  # every checked call of the loop passed
    assert jalr in machine._hot


# enforcement mutations: one word of a clean image changed, and the one
# fault that the paper's rules give for it

UNSIGNED_PAIR = (
    "main:\n"
    "    li t1, 5\n"
    "    li t2, 1\n"
    "    add a0, t1, t2 !unsigned\n"
    "    li t3, 3\n"
    "    sub a0, a0, t3 !unsigned\n"
    "    li a7, 93\n"
    "    ecall\n"
)


def _mutated(image, pc, insn):
    text = bytearray(image.text)
    offset = pc - emulator.TEXT_BASE
    text[offset:offset + 4] = codec.encode(insn).to_bytes(4, "little")
    return dataclasses.replace(image, text=bytes(text))


def _cfi_mutants():
    """(mutant, kind, pc) of each CFI mutation of a clean computed call."""
    image = build_image(cfi_source('"i64(i64)"', '"i64(i64)"'), CFI, tagged=True)
    carriers = Emulator(image, mode="aware")._tags
    words = [(pc, insn) for pc, insn in _words(image) if carriers.get(pc, -1) is not None]
    [call] = [k for k, (_, insn) in enumerate(words) if insn.mnemonic == "jalr" and insn.rd == 1]
    (site_pc, site), (call_pc, jalr) = words[call - 1:call + 1]
    # callee's entry label, and the word after it
    (entry_pc, entry), (landing, _) = words[call + 3:call + 5]
    assert site.mnemonic == entry.mnemonic == "lui" and site.rd == entry.rd == 0
    callee = image.tag_regions[-1].start
    return [  # t1, the jalr's base, holds callee
        (_mutated(image, entry_pc, dataclasses.replace(entry, imm=entry.imm ^ 1)),
         "CfiMismatch", entry_pc),
        (_mutated(image, site_pc, dataclasses.replace(site, imm=site.imm ^ 1)),
         "CfiMismatch", entry_pc),
        (_mutated(image, site_pc, Insn("addi")), "CfiMissingSiteLabel", call_pc),
        (_mutated(image, call_pc, dataclasses.replace(jalr, imm=landing - callee)),
         "CfiMissingEntryLabel", landing),
        # onto itself: a checked jalr that starts its block checks its own entry
        (_mutated(image, call_pc, dataclasses.replace(jalr, imm=call_pc - callee)),
         "CfiMissingEntryLabel", call_pc),
    ]


def _unsigned_mutants():
    """(mutant, kind, pc) of an !unsigned add made to carry and a sub made to borrow."""
    image = build_image(UNSIGNED_PAIR, UNARITH, tagged=True)
    pcs = {(insn.mnemonic, insn.rd, insn.imm): pc for pc, insn in _words(image)}
    add, sub = pcs["add", 10, 0], pcs["sub", 10, 0]
    return [
        (_mutated(image, pcs["addi", 6, 5], Insn("addi", rd=6, imm=-1)), "UnsignedOverflow", add),
        (_mutated(image, pcs["addi", 28, 3], Insn("addi", rd=28, imm=7)), "UnsignedOverflow", sub),
    ]


@pytest.mark.parametrize("tier", ["cold", "forced"])
def test_each_enforcement_mutation_gives_its_one_fault(request, tier):
    if tier == "forced":
        request.getfixturevalue("forced")
    clean = [build_image(cfi_source('"i64(i64)"', '"i64(i64)"'), CFI, tagged=True),
             build_image(UNSIGNED_PAIR, UNARITH, tagged=True)]
    assert [run(image, mode="aware")[0].regs[10] for image in clean] == [7, 3]
    mutants = _cfi_mutants() + _unsigned_mutants()
    for mutant, kind, pc in mutants:
        with pytest.raises(PolicyViolation) as info:
            run(mutant, mode="aware")
        assert type(info.value) is PolicyViolation
        assert (info.value.kind, info.value.pc) == (kind, pc)
    carry, borrow = [_message(mutant, "aware", 10 ** 6) for mutant, _, _ in mutants[-2:]]
    assert carry.endswith(": 0xffffffffffffffff + 0x1 carries out of 64 bits")
    assert borrow.endswith(": 0x6 - 0x7 borrows")


@pytest.mark.parametrize("config", [N3, CFI, UNARITH, COVERAGE], ids=lambda c: c.policy)
def test_a_promoted_machine_is_freed_without_the_cycle_collector(forced, config):
    # a region holds its members' state and the misses, none of which
    # refers back to the machine
    import gc
    import weakref

    kernel, _ = _bench_workloads().kernel(random.Random(3), 40)
    image = build_image(kernel, config, tagged=True, cfi_label_direct_calls=True)
    gc.disable()
    try:
        for mode in ("compat", "aware"):
            forced.clear()
            machine = Emulator(image, mode=mode)
            machine.run()
            assert forced
            ref = weakref.ref(machine)
            del machine
            assert ref() is None
    finally:
        gc.enable()


SYSCALL_LOOP = (
    '.globl main\n.entry main\nmain:\n    .signature "i64()"\n'
    "    li s3, 1200\n"
    "loop:\n"
    "    li a7, 64\n"
    "    addi s3, s3, -1\n"
    "    bne s3, x0, write\n"
    "END\n"  # the last iteration ends the run
    "write:\n"
    "    andi a0, s3, 63\n"
    "    addi a0, a0, 48\n"
    "    ecall\n"  # writes the byte in a0, or exits under a7=93, or stops under a7=17
    "    j loop\n"
)
SYSCALL_ENDS = {"exit": "    li a7, 93", "ecall": "    li a7, 17", "ebreak": "    ebreak"}


@pytest.mark.parametrize("end", SYSCALL_ENDS)
def test_ecall_and_ebreak_in_compiled_blocks_run_as_the_cold_tier(forced, monkeypatch, end):
    # 1199 writes from the write block in the region, whose ecall then exits
    # or stops the run, or an ebreak ahead of it does
    source = SYSCALL_LOOP.replace("END", SYSCALL_ENDS[end])
    cells = [(build_image(source, N3, tagged=False), "compat")]
    cells += [(build_image(source, config, tagged=True), "aware") for config in (N3, CFI, COVERAGE)]
    for image, mode in cells:
        forced.clear()
        monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 0)
        compiled = _execution_record(image, mode)
        assert any("state" in block.__code__.co_varnames for block in forced), (end, mode)
        monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 10 ** 12)  # never samples
        assert _execution_record(image, mode) == compiled, (end, mode)
        error, regs, pc, exit_code, stop_reason, stdout = ast.literal_eval(compiled.decode())[:6]
        assert error is None and stop_reason == end and len(stdout) == 1199
        assert stdout[-1] == 49 and exit_code == (0 if end == "ebreak" else 48)
    # an ebreak runs only once, so no run compiles it: compile its closure
    machine = Emulator(cells[0][0])
    region, run_member = _one_member_region(
        (), emulator._factory("ebreak")(machine, emulator.TEXT_BASE, 0, 0, 0, 0))
    assert "state" in region.__code__.co_varnames
    assert run_member([0] * 32) == emulator.TEXT_BASE  # it halts at its one word
    assert machine.state.halted and machine.state.stop_reason == "ebreak"


ACCESS_LOOP = (
    '.globl main\n.entry main\nmain:\n    .signature "i64()"\n'
    "    la t0, buf\n"
    "    li s3, 300\n"
    "loop:\n"
    "    lw t1, 0(t0)\n"
    "    ld t2, 8(t0)\n"
    "    lhu t3, 16(t0)\n"
    "    addi t1, t1, -3\n"
    "    add t2, t2, t1\n"
    "    addi t3, t3, 5\n"
    "    sw t1, 0(t0)\n"
    "    sd t2, 8(t0)\n"
    "    sb t3, 16(t0)\n"
    "    addi s3, s3, -1\n"
    "    bne s3, x0, loop\n"
    "    add a0, t1, t2\n"
    "    add a0, a0, t3\n"
    "    li a7, 93\n"
    "    ecall\n"
    ".data\nbuf:\n    .zero 24\n"
)


def test_accesses_of_three_widths_in_one_block_bind_each_struct_once(forced, monkeypatch):
    # three loads and three stores of three formats: the block's defaults
    # name each struct method under its word and a number
    renamed = {"unpack", "unpack1", "unpack2", "pack", "pack1", "pack2"}
    cells = [(build_image(ACCESS_LOOP, N3, tagged=False), "compat")]
    cells += [(build_image(ACCESS_LOOP, config, tagged=True), "aware")
              for config in (N3, CFI, UNARITH)]
    for image, mode in cells:
        forced.clear()
        monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 0)
        compiled = _execution_record(image, mode)
        assert any(renamed <= set(block.__code__.co_varnames) for block in forced), mode
        monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 10 ** 12)  # never samples
        assert _execution_record(image, mode) == compiled, mode
        error, regs = ast.literal_eval(compiled.decode())[:2]
        # after k iterations: t1 = -3k, t2 = -3(1 + ... + k), and the byte
        # that sb wrote, read back by lhu, plus 5
        k = 300
        a0 = -3 * k - 3 * k * (k + 1) // 2 + (5 * (k - 1) & 0xFF) + 5
        assert error is None and regs[10] == a0 & (1 << 64) - 1, mode


# ---------------------------------------------------------------------------
# regions: the hot blocks of a loop run as branches of one function

@pytest.fixture
def regions(monkeypatch):
    """Every region a run makes is wrapped to tally what it does: the
    `fetches` run inside it and the `faults` that left it.  `made` lists the
    regions themselves."""
    spy = types.SimpleNamespace(tally=collections.Counter(), made=[])
    make_region = emulator._region

    def spied(members, at):
        region = make_region(members, at)
        spy.made.append(region)

        def run_region(regs, pc, left):
            try:
                region(regs, pc, left)
            except (PolicyViolation, BadInstruction):
                spy.tally["faults"] += 1
                raise
            finally:
                spy.tally["fetches"] += left - at[1]
        return run_region

    monkeypatch.setattr(emulator, "_region", spied)
    return spy


class _Dispatches(dict):
    """A block cache that counts the run loop's look-ups, by entry."""

    def __init__(self):
        super().__init__()
        self.counts = collections.Counter()

    def get(self, entry):
        self.counts[entry] += 1
        return super().get(entry)


@pytest.mark.parametrize("config,mode", KERNEL_CELLS,
                         ids=lambda cell: cell if isinstance(cell, str) else getattr(
                             cell, "policy", "untagged"))
def test_every_hot_kernel_block_compiles_and_runs_in_a_region(regions, monkeypatch, config,
                                                               mode):
    kernel, a0 = _bench_workloads().kernel(random.Random(3), 1500)
    image = build_image(kernel, config or N3, tagged=config is not None)
    interval = emulator._SAMPLE_FETCHES
    monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 10 ** 12)  # never samples
    cold = Emulator(image, mode=mode)
    cold._blocks = dispatches = _Dispatches()
    cold.run()
    # the loop body, step and the tail
    hot = {entry for entry, count in dispatches.counts.items() if count >= 1000}
    assert len(hot) == 3
    unsampled = _execution_record(image, mode)
    assert not regions.made
    monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", interval)
    assert _execution_record(image, mode) == unsampled
    assert ast.literal_eval(unsampled.decode())[1][10] == a0
    assert regions.tally["fetches"] > 0.8 * cold.counters.total
    first = Emulator(image, mode=mode)
    first.run()
    assert hot <= set(first._hot)  # each a branch of the region
    # a second machine compiles nothing again: it shares the region's code
    made = len(regions.made)
    second = Emulator(image, mode=mode)
    second.run()
    assert first._hot.keys() == second._hot.keys()
    assert regions.made[-1].__code__ is regions.made[made - 1].__code__


@pytest.mark.parametrize("config,mode", [(N3, "compat"), (CFI, "aware"), (COVERAGE, "aware")],
                         ids=["compat", "cfi", "coverage"])
def test_a_region_stops_at_the_budget_exactly(regions, monkeypatch, config, mode):
    # a region runs past the 1024-fetch marks, and each budget here ends
    # it: a window of more than one 24-fetch iteration
    kernel, _ = _bench_workloads().kernel(random.Random(3), 1500)
    image = build_image(kernel, config, tagged=True)
    interval = emulator._SAMPLE_FETCHES
    for budget in range(4988, 5020):
        regions.tally.clear()
        monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", interval)
        record = _execution_record(image, mode, budget)
        assert regions.tally["fetches"] > 0, budget
        monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 10 ** 12)  # never samples
        assert _execution_record(image, mode, budget) == record, budget
        assert ast.literal_eval(record.decode())[0] == ("LimitExceeded",)


@pytest.mark.parametrize("name", HOT_CASES)
def test_a_fault_inside_a_region_is_the_interpreted_fault(regions, monkeypatch, name):
    # short sample intervals put marks at every phase of the loop, so that
    # the region is running when the fault or the budget comes
    build, mode, budget, outcome = HOT_CASES[name]
    image = build()
    monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 10 ** 12)  # never samples
    unsampled = _execution_record(image, mode, budget)
    message = _message(image, mode, budget)
    for interval in range(4, 40):
        monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", interval)
        assert _execution_record(image, mode, budget) == unsampled, interval
        assert _message(image, mode, budget) == message, interval
    assert regions.tally["fetches"] > 0
    if outcome in ("MemFault", "UnsignedOverflow", "CfiMismatch", "CfiMissingEntryLabel"):
        assert regions.tally["faults"] > 0


# stores to data, and from its ninth iteration on, to main + OFFSET, a word
# of text
STORE_TO_TEXT = (
    '.globl main\n.entry main\nmain:\n    .signature "i64()"\n'
    "    la t0, scratch\n"
    "    la t2, main\n"
    "    addi t2, t2, OFFSET\n"
    "    li s3, 12\n"
    "loop:\n"
    "    addi a0, a0, 1\n"
    "    sw a0, 0(t0)\n"
    "    addi a1, a1, 1\n"
    "    addi s3, s3, -1\n"
    "    li t3, 4\n"
    "    bne s3, t3, next\n"
    "    mv t0, t2\n"
    "next:\n"
    "    bne s3, x0, loop\n"
    "    li a7, 93\n"
    "    ecall\n"
    ".data\n"
    "scratch:\n"
    "    .dword 0\n"
)
STORE_TARGETS = [(config, target) for config in (N3, CFI, UNARITH, COVERAGE)
                 for target in ("own-block", "next-word", "carrier")] + [(COVERAGE, "cl-label")]


def _store_targets(image):
    """(the pc of STORE_TO_TEXT's store, target -> the text word it hits):
    a word of its own block, the word after it, a carrier, and under
    coverage, the CL label of the loop's block."""
    words = dict(_words(image))
    [store] = [pc for pc, insn in words.items() if insn.mnemonic == "sw"]
    [own] = [pc for pc, insn in words.items()
             if (insn.mnemonic, insn.rd, insn.imm) == ("addi", 10, 1)]
    targets = {"own-block": own, "next-word": store + 4, "carrier": image.tag_regions[0].start}
    if image.policy == "coverage":
        targets["cl-label"] = max(addr for addr, kind in image.label_addrs
                                  if kind == "cl" and addr < own)
    return store, targets


@pytest.mark.parametrize("config,target", STORE_TARGETS,
                         ids=[f"{config.policy}-{target}" for config, target in STORE_TARGETS])
def test_a_store_to_text_is_a_memfault_at_the_store(regions, monkeypatch, config, target):
    # text is execute-only in every mode and policy: the store faults, also
    # from the loop's region under forced promotion, and writes nothing
    image = _offset_image(STORE_TO_TEXT, config,
                          lambda image: _store_targets(image)[1][target] - image.entry)
    store, targets = _store_targets(image)
    addr, offset = targets[target], targets[target] - emulator.TEXT_BASE
    for mode in ("compat", "aware"):
        regions.tally.clear()
        monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 0)  # forced promotion
        forced, message = _execution_record(image, mode), _message(image, mode, 10 ** 6)
        assert regions.tally["faults"] > 0, mode
        monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 10 ** 12)  # never samples
        assert _execution_record(image, mode) == forced, mode
        assert _message(image, mode, 10 ** 6) == message, mode
        record = ast.literal_eval(forced.decode())
        assert record[0] == ("PolicyViolation", "MemFault", store), mode
        assert message.endswith(f"store to execute-only text at {addr:#x}"), mode
        assert record[1][10] == 9, mode
        # a CL write-back may have counted in the word, but nothing else changed it
        word, old = (int.from_bytes(text[offset:offset + 4], "little")
                     for text in (record[6][0], image.text))
        assert (word ^ old) & 0xFFF == 0 and (word == old or target == "cl-label"), mode


def test_a_region_member_that_halts_ends_the_run_at_its_halting_word(regions, monkeypatch):
    # the write block, which ends in the ecall tagged BCF, joins the region;
    # the last iteration exits through that ecall
    program = assemble(
        "main:\n"
        "    li s3, 300\n"
        "loop:\n"
        "    li a7, 64\n"
        "    addi s3, s3, -1\n"
        "    bne s3, x0, write\n"
        "    li a7, 93\n"
        "    j write\n"
        "write:\n"
        "    andi a0, s3, 63\n"
        "    addi a0, a0, 48\n"
        "    ecall\n"
        "    j loop\n"
    )
    set_tag(program, (0, 8), "BCF", COVERAGE)
    image = link(program, COVERAGE, tagged=True)
    monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 10 ** 12)  # never samples
    unsampled = _execution_record(image, "aware")
    error, regs, pc, exit_code, stop_reason, stdout = ast.literal_eval(unsampled.decode())[:6]
    assert error is None and stop_reason == "exit" and exit_code == 48 and len(stdout) == 299
    for interval in range(4, 40):
        monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", interval)
        assert _execution_record(image, "aware") == unsampled, interval
    assert regions.tally["fetches"] > 0


def _wide_loop(blocks, iterations):
    """A loop of `blocks` blocks per iteration, each an addi and a bne to
    the next word, which ends it; it exits with the sum of the addis."""
    chain = "".join(f"    addi t1, t1, {k + 1}\n    bne t1, x0, b{k}\nb{k}:\n"
                    for k in range(blocks - 1))
    return (f".globl main\n.entry main\nmain:\n    li s3, {iterations}\nloop:\n{chain}"
            "    addi s3, s3, -1\n    bne s3, x0, loop\n"
            "    mv a0, t1\n    li a7, 93\n    ecall\n")


@pytest.mark.parametrize("config,mode", [(None, "compat"), (COVERAGE, "aware")],
                         ids=["compat", "coverage"])
def test_a_loop_wider_than_a_region_evicts_members_and_promotes_them_again(
        monkeypatch, config, mode):
    # each new member of a full region evicts the oldest, which runs cold
    # until it is sampled twice more and joins again
    blocks = emulator._REGION_BLOCKS + 3
    image = build_image(_wide_loop(blocks, 2000), config or N3, tagged=config is not None)
    made = []  # the member entries of each region
    make_region = emulator._region
    monkeypatch.setattr(emulator, "_region", lambda members, *args: made.append(
        [entry for entry, _ in members]) or make_region(members, *args))
    records = []
    for interval in (10 ** 12, emulator._SAMPLE_FETCHES, 0):  # never, as usual, and forced
        made.clear()
        monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", interval)
        records.append(_execution_record(image, mode))
        assert bool(made) == (interval < 10 ** 12)
        assert all(len(members) <= emulator._REGION_BLOCKS for members in made)
        evicted, rejoined = set(), set()
        for before, after in zip(made, made[1:]):
            rejoined |= evicted.intersection(after)
            evicted |= set(before) - set(after)
        assert rejoined or not made, interval
    assert records[0] == records[1] == records[2]
    error, regs = ast.literal_eval(records[0].decode())[:2]
    assert error is None and regs[10] == 2000 * (blocks - 1) * blocks // 2
    monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 1024)
    machine = Emulator(image, mode=mode)
    machine.run()
    assert 0 < machine._words
    assert machine._words * 1024 <= machine.counters.total * emulator._INTERVAL_WORDS


SLED = (
    ".globl main\n.entry main\nmain:\n"
    "    la t0, sled\n"
    "next:\n"
    "    li s4, 4\n"
    "again:\n"
    "    jalr ra, t0, 0\n"  # the sled from t0 to its end, four times
    "    addi s4, s4, -1\n"
    "    bne s4, x0, again\n"
    "    addi t0, t0, 4\n"  # then from the next word
    "    j next\n"
    ".globl sled\nsled:\n" + "    ld a1, -8(sp)\n" * 2000 + "    ret\n"
)


def test_compiles_stay_within_the_compile_budget(monkeypatch):
    # at a short sample interval, regions of up to _REGION_BLOCKS of the
    # sled's blocks, each of up to _BLOCK_WORDS words, are hot enough to
    # compile; the budget holds the words compiled to _INTERVAL_WORDS per
    # sample interval fetched
    words = []
    make_region = emulator._region
    monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 256)
    monkeypatch.setattr(emulator, "_region", lambda members, *args: words.append(
        sum(block[1] for _, block in members)) or make_region(members, *args))
    machine = Emulator(build_image(SLED, N3, tagged=False), max_insns=150_000)
    with pytest.raises(LimitExceeded):
        machine.run()
    assert words and max(words) > emulator._BLOCK_WORDS
    assert sum(words) == machine._words
    assert machine._words * 256 <= machine.counters.total * emulator._INTERVAL_WORDS


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_where_a_block_ends_changes_no_result(monkeypatch, cap):
    # blocks of a few words split every site label from its checked jalr
    # somewhere, and every fault, count and coverage map stays as pinned
    monkeypatch.setattr(emulator, "_BLOCK_WORDS", cap)
    test_execution_is_pinned()


def test_no_block_spans_more_words_than_the_cap():
    # entered at each of its 2001 words, the sled would cache a block of
    # every length up to 2001 words, quadratic in its length, if blocks ran
    # to the next control transfer
    machine = Emulator(build_image(SLED, N3, tagged=False), max_insns=300_000)
    with pytest.raises(LimitExceeded):
        machine.run()
    spans = [block[1] for block in [*machine._blocks.values(), *machine._hot.values()]
             if block[1] is not emulator._REGION]
    assert max(spans) == 64
    assert len(spans) > 1000


def test_a_negative_budget_is_rejected():
    image = build_image(SUM_1_TO_10, N3, tagged=False)
    with pytest.raises(ValueError, match="max_insns"):
        Emulator(image, max_insns=-1)
    with pytest.raises(LimitExceeded):
        Emulator(image, max_insns=0).run()


def _as_signed(value):
    return value - (1 << 64) if value >> 63 else value


def _sign_extend_32(value):
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value >> 31 else value


# rd's value (before the 64-bit mask), or whether a branch is taken, from
# the values a and b of rs1 and rs2 and the immediate i
REFERENCE = {
    "lui": lambda a, b, i: i,
    "addi": lambda a, b, i: a + i, "xori": lambda a, b, i: a ^ i,
    "ori": lambda a, b, i: a | i, "andi": lambda a, b, i: a & i,
    "slti": lambda a, b, i: int(_as_signed(a) < i),
    "sltiu": lambda a, b, i: int(a < i % (1 << 64)),
    "slli": lambda a, b, i: a << i, "srli": lambda a, b, i: a >> i,
    "srai": lambda a, b, i: _as_signed(a) >> i,
    "addiw": lambda a, b, i: _sign_extend_32(a + i),
    "add": lambda a, b, i: a + b, "sub": lambda a, b, i: a - b,
    "xor": lambda a, b, i: a ^ b, "or": lambda a, b, i: a | b,
    "and": lambda a, b, i: a & b, "mul": lambda a, b, i: a * b,
    "slt": lambda a, b, i: int(_as_signed(a) < _as_signed(b)),
    "sltu": lambda a, b, i: int(a < b),
    "sll": lambda a, b, i: a << b % 64, "srl": lambda a, b, i: a >> b % 64,
    "sra": lambda a, b, i: _as_signed(a) >> b % 64,
    "addw": lambda a, b, i: _sign_extend_32(a + b),
    "subw": lambda a, b, i: _sign_extend_32(a - b),
    "beq": lambda a, b, i: a == b, "bne": lambda a, b, i: a != b,
    "blt": lambda a, b, i: _as_signed(a) < _as_signed(b),
    "bge": lambda a, b, i: _as_signed(a) >= _as_signed(b),
    "bltu": lambda a, b, i: a < b, "bgeu": lambda a, b, i: a >= b,
}


@pytest.mark.parametrize("mnemonic", sorted(REFERENCE))
def test_every_pure_op_matches_its_reference_cold_and_inlined(mnemonic):
    rng = random.Random(mnemonic)
    edges = [0, 1, 2, 63, 64, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 1 << 32,
             (1 << 63) - 1, 1 << 63, (1 << 64) - 1]
    values = edges + [rng.randrange(1 << 64) for _ in range(12)]
    if mnemonic in ("slli", "srli", "srai"):
        immediates = [0, 1, 31, 32, 63]
    elif mnemonic == "lui":
        immediates = [emulator._sext32(v << 12) for v in (0, 1, 0x7FFFF, 0x80000, 0xFFFFF)]
    else:
        immediates = [0, 1, -1, 5, 2047, -2048]
    mask = (1 << 64) - 1
    for imm in immediates:
        if mnemonic in emulator._CONDS:
            pc = 0x10040
            cold_term = emulator._factory(mnemonic)(None, pc, 0, 5, 6, imm)
            pair = [((), cold_term), ((), _one_member_region((), cold_term)[1])]
        else:
            cold_op = emulator._factory(mnemonic)(7, 5, 6, imm)
            goto = emulator._factory("goto")(None, 0, 0, 0, 0, 0)
            pair = [((cold_op,), goto), ((), _one_member_region((cold_op,), goto)[1])]
        for a in values:
            for b in values[::3]:
                expected = REFERENCE[mnemonic](a, b, imm)
                for ops, term in pair:
                    regs = [0] * 32
                    regs[5], regs[6] = a, b
                    for op in ops:
                        op(regs)
                    next_pc = term(regs)
                    if mnemonic in emulator._CONDS:
                        assert next_pc == (pc + imm if expected else pc + 4) & mask
                    else:
                        assert type(regs[7]) is int and regs[7] == expected & mask


def test_importing_rvtag_generates_no_code():
    # the forms are built on first use: an import that compiled them would
    # add to every short command's start-up
    import subprocess
    import sys

    script = (
        "import sys\n"
        "generated = []\n"
        "sys.addaudithook(lambda event, args: event == 'exec'\n"
        "                 and args[0].co_filename == '<rvtag generated>' and generated.append(1))\n"
        "import rvtag\n"
        "at_import = len(generated)\n"
        "from rvtag import emulator, pipeline, tagplan\n"
        "source = 'main:\\n    addi a0, a0, 3\\n    ecall\\n'\n"
        "emulator.run(pipeline.build_image(source, tagplan.make_config(), tagged=False))\n"
        "print(at_import, len(generated) > 0)\n"
    )
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert result.stdout.split() == ["0", "True"]
