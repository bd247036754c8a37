import ast
import collections
import copy
import dataclasses
import hashlib
import json
import os
import random
import re
import struct
import sys
import types
import weakref

import pytest

from rvtag import codec, emulator, tagplan
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


def test_the_first_malformed_carrier_is_named_after_valid_copies_of_its_neighbour():
    # 17 instructions in 6 groups, every carrier the all-N word; the fourth and
    # sixth carriers become the same addi word
    source = "main:\n" + "    addi a0, a0, 1\n" * 15 + "    li a7, 93\n    ecall\n"
    image = build_image(source, N3, tagged=True)
    assert image.tag_regions[0].group_count == 6
    text = bytearray(image.text)
    for group in (3, 5):
        text[16 * group:16 * group + 4] = codec.encode(Insn("addi", rd=1)).to_bytes(4, "little")
    bad = dataclasses.replace(image, text=bytes(text))
    first = image.text_base + 16 * 3
    with pytest.raises(codec.NotACarrier, match=f"tag slot {first:#x}: "):
        tagplan.slot_tags(bad.text, bad.tag_regions, bad.text_end)
    with pytest.raises(codec.NotACarrier, match=f"tag slot {first:#x}: "):
        Emulator(bad, mode="aware")


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


@pytest.mark.parametrize("config", [N3, CFI], ids=["none", "cfi"])
def test_labels_seen_counts_a_source_lui_x0_that_label_addrs_leaves_out(config):
    source = "main:\n    lui x0, 5\n    li a7, 93\n    ecall\n"  # no cfi entry label
    baseline = build_image(source, config, tagged=False)
    tagged = build_image(source, config)
    for image, mode in ((baseline, "compat"), (tagged, "compat"), (tagged, "aware")):
        _, counters, _ = run(image, mode=mode)
        assert counters.labels_seen == 1, (image.tags_present, mode)
        assert image.label_addrs == ()


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
    state, _, _ = run(image, mode="aware")
    assert (_word(image, state, label_addr) >> 12) & 0xFFFFF == 0xFFFFF


def test_coverage_cl_writeback_saturates_at_its_edge():
    # a payload one below the ceiling reaches it at the label's first run,
    # and stays there through the other two; the rest of the word never moves
    image = build_image(COVERAGE_BLOCKS, COVERAGE, tagged=True)
    label_addr = next(addr for addr, kind in image.label_addrs if kind == "cl")
    offset = label_addr - image.text_base
    word = int.from_bytes(image.text[offset:offset + 4], "little") & 0xFFF | (0xFFFFE << 12)
    image = dataclasses.replace(
        image, text=image.text[:offset] + word.to_bytes(4, "little") + image.text[offset + 4:])
    machine = Emulator(image, mode="aware", max_insns=0)
    payloads = []  # the payload after each fetch of the label
    while not machine.state.halted:
        pc = machine.state.pc
        machine.max_insns += 1
        try:
            machine.run()
        except LimitExceeded:
            pass
        if pc == label_addr:
            payloads.append(machine.state.memory.read(label_addr, 4))
    assert payloads == [word + 4096] * 3 and word + 4096 == word & 0xFFF | 0xFFFFF << 12


def test_coverage_cl_counts_match_executions():
    # each CL label's payload in text counts the times its word ran, as a run
    # of one fetch at a time sees them
    image, state, _, _ = coverage_run()
    machine = Emulator(image, mode="aware", max_insns=0)
    fetched = collections.Counter()
    while not machine.state.halted:
        fetched[machine.state.pc] += 1
        machine.max_insns += 1
        try:
            machine.run()
        except LimitExceeded:
            pass
    counts = label_counts(image, state)
    assert len(counts) > 3 and min(counts.values()) > 0
    assert counts == {addr: fetched[addr] for addr in counts}


# `loop` is a fragment of its own, after padding, so its CL label is the
# word after its carrier, at 4(t0).  The "loads" body reads that label's
# word (lwu) and the dword of carrier and label (ld), and stores what lwu
# read to buf; the "plain" body reads no text.
CL_LOOP = (
    ".globl main\n.entry main\nmain:\n"
    "    li t2, 40\n"
    "    la t0, loop\n"
    "    la t1, buf\n"
    "    j loop\n"
    ".globl loop\n"
    "loop:\n"
    "BODY"
    "    add a0, a0, a1\n"
    "    addi t2, t2, -1\n"
    "    bne t2, x0, loop\n"
    "    li a7, 93\n"
    "    ecall\n"
    ".data\nbuf:\n    .zero 160\n"
)
CL_LOOP_BODIES = {
    "loads": ("    lwu a1, 4(t0)\n    ld a2, 0(t0)\n    xor a0, a0, a2\n"
              "    sw a1, 0(t1)\n    addi t1, t1, 4\n"),
    "plain": "    addi a1, t2, 3\n",
}


def _cl_loop(body, payload=None):
    """(image, label) of CL_LOOP with `body`, the loop's label preset to
    `payload` if given."""
    image = build_image(CL_LOOP.replace("BODY", CL_LOOP_BODIES[body]), COVERAGE, tagged=True)
    label = image.tag_regions[1].start + 4
    assert (label, "cl") in image.label_addrs
    if payload is not None:
        offset = label - image.text_base
        word = int.from_bytes(image.text[offset:offset + 4], "little") & 0xFFF | payload << 12
        image = dataclasses.replace(
            image, text=image.text[:offset] + word.to_bytes(4, "little") + image.text[offset + 4:])
    return image, label


def _view(machine):
    state = machine.state
    return (state.pc, list(state.regs), bytes(state.memory.text), bytes(state.memory.data),
            dataclasses.astuple(machine.counters))


@pytest.mark.parametrize("tier", ["cold", "forced"])
def test_a_loop_that_loads_its_own_cl_label_reads_the_fetch_trace(request, tier):
    # a region counts a CL label in a local, and folds it into text before
    # each load that misses data and the stack: the loop reads its payload,
    # and ends with it, as a run of one fetch at a time does, at every cut
    image, label = _cl_loop("loads")
    stepped = Emulator(image, mode="aware", max_insns=0)
    trace = [_view(stepped)]  # after each fetch
    while not stepped.state.halted:
        stepped.max_insns += 1
        try:
            stepped.run()
        except LimitExceeded:
            pass
        trace.append(_view(stepped))
    made = request.getfixturevalue("forced") if tier == "forced" else None
    whole = Emulator(image, mode="aware")
    whole.run()
    assert _view(whole) == trace[-1]
    loaded = struct.unpack("<40I", whole.memory.data[:160])
    assert [word >> 12 for word in loaded] == list(range(1, 41))
    assert whole.memory.read(label, 4) >> 12 == 40
    assert bool(made) == (tier == "forced")
    for budget in range(1, len(trace) - 1):
        machine = Emulator(image, mode="aware", max_insns=budget)
        with pytest.raises(LimitExceeded):
            machine.run()
        assert _view(machine) == trace[budget], budget
        machine.max_insns = 10 ** 6
        machine.run()
        assert _view(machine) == trace[-1], budget


@pytest.mark.parametrize("payload", [0xFFFF0, 0xFFFFF])
@pytest.mark.parametrize("body", sorted(CL_LOOP_BODIES))
def test_cl_counts_that_a_region_folds_saturate_as_the_cold_tier(forced, monkeypatch, body,
                                                                  payload):
    # 40 iterations, most of them in one region call: the fold before each
    # load and the one at exit stop the payload at 0xFFFFF, and a payload
    # already there stays
    image, label = _cl_loop(body, payload)
    hot = _execution_record(image, "aware")
    assert forced
    monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 10 ** 12)
    assert _execution_record(image, "aware") == hot
    machine = Emulator(image, mode="aware")
    machine.run()
    assert machine.memory.read(label, 4) >> 12 == 0xFFFFF


# walks buf, eight bytes an iteration: ACCESS faults past the end of data in
# the ninth iteration, after the loop's CL label
CL_WALK = (
    ".globl main\n.entry main\nmain:\n"
    "    la t0, buf\n"
    "    li t2, 12\n"
    "walk:\n"
    "    ACCESS\n"
    "    addi a1, a1, 3\n"
    "    addi t0, t0, 8\n"
    "    addi t2, t2, -1\n"
    "    bne t2, x0, walk\n"
    "    li a7, 93\n"
    "    ecall\n"
    ".data\nbuf:\n    .zero 64\n"
)


@pytest.mark.parametrize("access", ["sd a1, 0(t0)", "ld a1, 0(t0)"])
def test_a_region_member_that_faults_after_its_cl_label_folds_its_count(forced, access):
    # a store miss faults with the count still in its local, which the
    # region's finally folds; a load miss folds before it faults
    image = build_image(CL_WALK.replace("ACCESS", access), COVERAGE, tagged=True)
    machine, exc = _fault(image, "aware")  # its state, text among it, is the stepped run's
    assert forced and exc.kind == "MemFault" and machine.state.pc == exc.pc
    assert sorted(label_counts(image, machine.state).values()) == [0, 1, 9]


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


# Under coverage, its BCF sites are the call, the ret and the two branches.
# With OFFSET 0 it runs clean; with 1024 its ld faults past the end of data,
# in the block that the beq after it ends.
BCF_SITES = (
    ".globl bump\n"
    "bump:\n"
    "    addi a0, a0, 1\n"
    "    ret\n"
    ".globl main\n.entry main\nmain:\n"
    "    li t2, 6\n"
    "spin:\n"
    "    call bump\n"
    "    addi t2, t2, -1\n"
    "    bne t2, x0, spin\n"
    "    la t0, buf\n"
    "    ld a1, OFFSET(t0)\n"
    "    beq a1, x0, done\n"
    "    addi a0, a0, 7\n"
    "done:\n"
    "    li a7, 93\n"
    "    ecall\n"
    ".data\nbuf:\n    .zero 8\n"
)


def _fetch_trace(image):
    """The pc of each fetch of image's aware run, taken one fetch at a time,
    then the pc the run stopped at: its halting word, or the pc of a fault,
    whose fetch is not in the trace."""
    machine = Emulator(image, mode="aware", max_insns=0)
    trace = []
    while not machine.state.halted:
        trace.append(machine.state.pc)
        machine.max_insns += 1
        try:
            machine.run()
        except LimitExceeded:
            pass
        except PolicyViolation:
            trace.pop()
            break
    return trace + [machine.state.pc]


def _edges_taken(image, trace, fetches):
    """[(site, [(edge, count), ...]), ...] of the first `fetches` fetches of
    trace: each BCF site that ran, in the order it first ran, with its edges
    in the order first taken.  An edge is the pc fetched next, or the site
    itself once it halts."""
    tags = tagplan.slot_tags(image.text, image.tag_regions, image.text_end)
    bcf = {}
    for pc, to in zip(trace[:fetches], trace[1:fetches + 1]):
        if tagplan.EFFECTS["coverage"].get(tags.get(pc)) == "BCF":
            edges = bcf.setdefault(pc, {})
            edges[to] = edges.get(to, 0) + 1
    return [(pc, list(edges.items())) for pc, edges in bcf.items()]


def _sites(machine):
    return [(pc, list(edges.items())) for pc, edges in machine.policy.bcf.items()]


def _published(machine):
    """Whether machine's bcf holds exactly the non-empty edge dicts of its
    sites, in the order they were made, and every edge dict that its cached
    blocks, hot members and regions bind is one of its sites.  A member's
    _blocks entry holds its region, and its cold block with its terminator."""
    sites = machine._sites
    made = {id(machine.policy.ci_counts), *map(id, sites.values())}
    entries = [*machine._blocks.values(), *machine._hot.values()]
    terms = [block[4] for block in (*entries, *(entry[0] for entry in entries
                                                  if entry[1] is emulator._REGION))]
    bound = [value for code in terms for value in code.__defaults__ or () if type(value) is dict]
    return ([(pc, id(edges)) for pc, edges in machine.policy.bcf.items()]
            == [(pc, id(edges)) for pc, edges in sites.items() if edges]
            and all(id(value) in made for value in bound))


def _members(machine) -> list:
    """The entries of machine's region members, read from its _blocks."""
    return [pc for pc, entry in machine._blocks.items() if entry[1] is emulator._REGION]


def _count_translations(monkeypatch, made=None):
    """A Counter of the full translations (no fetch limit) of each block
    entry, by every Emulator from now on.  A Counter given as made counts,
    per entry, only the calls that return a block their machine did not
    return before: the blocks those calls really made."""
    translations, translate = collections.Counter(), Emulator._translate
    returned = weakref.WeakKeyDictionary()  # machine -> id -> each block it returned

    def counted(machine, entry, limit=-1):
        translations[entry] += limit < 0
        block = translate(machine, entry, limit)
        if made is not None and limit < 0:
            blocks = returned.setdefault(machine, {})
            made[entry] += id(block) not in blocks
            blocks[id(block)] = block  # kept, so that no later block takes its id
        return block
    monkeypatch.setattr(Emulator, "_translate", counted)
    return translations


@pytest.mark.parametrize("tier", ["cold", "forced"])
def test_bcf_holds_only_the_sites_that_ran_in_first_run_order(monkeypatch, regions_made,
                                                                tmp_path, tier):
    # each site's edge dict is bound when its block is translated, so a
    # block that faults or is cut before its terminator leaves an empty one
    # in Emulator._sites for the machine's life, which bcf never lists
    from rvtag import cli, emitlink

    clean, faulting = [build_image(BCF_SITES.replace("OFFSET", offset), COVERAGE, tagged=True)
                       for offset in ("0", "1024")]
    clean_trace, faulting_trace = _fetch_trace(clean), _fetch_trace(faulting)
    made = regions_made
    monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 0 if tier == "forced" else 10 ** 12)
    machine = Emulator(clean, mode="aware")
    machine.run()
    ran = _edges_taken(clean, clean_trace, len(clean_trace) - 1)
    assert len(ran) == 4 and _sites(machine) == ran
    machine = Emulator(faulting, mode="aware")
    with pytest.raises(PolicyViolation, match="MemFault"):
        machine.run()
    expected = _edges_taken(faulting, faulting_trace, len(faulting_trace) - 1)
    assert len(expected) == 3 and _sites(machine) == expected
    for budget in range(1, len(clean_trace) - 1):
        machine = Emulator(clean, mode="aware", max_insns=budget)
        with pytest.raises(LimitExceeded):
            machine.run()
        assert _sites(machine) == _edges_taken(clean, clean_trace, budget), budget
    assert bool(made) == (tier == "forced")
    # the coverage dump holds the same sites, ordered by pc
    image_path, dump = tmp_path / "clean.rvti", tmp_path / "coverage.json"
    emitlink.write_image(clean, image_path)
    assert cli.main(["run", "--mode", "aware", "--dump-coverage", str(dump), str(image_path)]) == 0
    assert json.loads(dump.read_text())["bcf"] == {
        hex(pc): {hex(edge): count for edge, count in sorted(edges)} for pc, edges in sorted(ran)}


# cuts of the bench kernel, whose loop iteration is 24-28 fetches: one
# iteration past the first sample mark, and one past the second, where the
# loop has joined a region
KERNEL_CUTS = [*range(emulator._SAMPLE_FETCHES, emulator._SAMPLE_FETCHES + 32),
               *range(2 * emulator._SAMPLE_FETCHES + 48, 2 * emulator._SAMPLE_FETCHES + 80)]


@pytest.mark.parametrize("source,config,mode,budgets", [
    (ASM_EX_BOUNDED, N3, "compat", range(1, 21)), (ASM_EX_BOUNDED, N3, "aware", range(1, 21)),
    (cfi_source('"i64(i64)"', '"i64(i64)"'), CFI, "aware", range(1, 21)),
    (COVERAGE_BLOCKS, COVERAGE, "aware", range(1, 21)),
    ("kernel", CFI, "aware", KERNEL_CUTS), ("kernel", COVERAGE, "aware", KERNEL_CUTS),
], ids=["loop-compat", "loop-aware", "cfi", "coverage", "kernel-cfi", "kernel-coverage"])
def test_fetch_budget_stops_mid_block(source, config, mode, budgets):
    # a block that would cross the budget runs as the prefix that fits
    if source == "kernel":
        source = _bench_workloads().kernel(random.Random(3), 200)[0]
    image = build_image(source, config, tagged=True, defsym={"ITERS": 5})
    whole = Emulator(image, mode=mode)
    whole.run()
    carried = set()  # what some cut left for the resumed run
    for budget in budgets:
        if budget >= whole.counters.total:
            break
        machine = Emulator(image, mode=mode, max_insns=budget)
        with pytest.raises(LimitExceeded):
            machine.run()
        assert machine.counters.total == budget
        if machine._hot:
            carried.add("region")
        if machine.policy.pending_cfl is not None:  # the cut ended on a site label
            carried.add("site label")
        # state.pc is the next unexecuted fetch: resuming ends as one run does
        machine.max_insns = 10 ** 6
        machine.run()
        assert machine.state == whole.state and machine.counters == whole.counters
        assert machine.policy == whole.policy
    if budgets is KERNEL_CUTS:
        assert carried == ({"region", "site label"} if config is CFI else {"region"})


@pytest.mark.parametrize("tier", ["cold", "forced"])
@pytest.mark.parametrize("source,budgets", [(BCF_SITES.replace("OFFSET", "0"), range(1, 80)),
                                            ("kernel", KERNEL_CUTS)], ids=["sites", "kernel"])
def test_a_site_dropped_at_a_cut_counts_once_its_terminator_runs(monkeypatch, tier, source,
                                                                    budgets):
    # a cut can leave a block cached whose terminator has not run: its site
    # stays empty in the machine and out of bcf, and the block stays cached,
    # so two cuts at one block entry and a resumed run end as one run does,
    # and translate no entry in full more than twice
    monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 0 if tier == "forced" else 10 ** 12)
    if source == "kernel":
        source = _bench_workloads().kernel(random.Random(3), 200)[0]
    image = build_image(source, COVERAGE, tagged=True, defsym={"ITERS": 5})
    whole = Emulator(image, mode="aware")
    whole.run()
    assert whole.policy.bcf
    translations = _count_translations(monkeypatch)
    for budget in budgets:
        if budget + 1 >= whole.counters.total:
            break
        translations.clear()
        machine = Emulator(image, mode="aware", max_insns=budget)
        for machine.max_insns in (budget, budget + 1):
            with pytest.raises(LimitExceeded):
                machine.run()
            assert _published(machine), budget
        machine.max_insns = 10 ** 6
        machine.run()
        assert machine.policy == whole.policy and _sites(machine) == _sites(whole), budget
        assert max(translations.values()) <= 2, budget


# Its one BCF site is the bne.  With OFFSET 1024 the ld, the first word of
# the loop, faults past the end of data.
BCF_LOOP = (
    ".globl main\n.entry main\nmain:\n"
    "    li t2, 6\n"
    "    la t0, buf\n"
    "    addi t0, t0, OFFSET\n"
    "spin:\n"
    "    ld a1, 0(t0)\n"
    "    addi a0, a0, 1\n"
    "    addi t2, t2, -1\n"
    "    bne t2, x0, spin\n"
    "    li a7, 93\n"
    "    ecall\n"
    ".data\nbuf:\n    .zero 8\n"
)


@pytest.mark.parametrize("tier", ["cold", "forced"])
def test_a_site_dropped_at_a_fault_counts_once_its_terminator_runs(monkeypatch, tier):
    # a loop that faults before its bne on each resumed run is cached on
    # its second entry, and under forced promotion is sampled on its third
    # and joins a region on its fourth: once the fault is mended, the loop
    # counts in bcf as it does after a single fault, and no fault makes its
    # entry translate again
    monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 0 if tier == "forced" else 10 ** 12)
    image = build_image(BCF_LOOP.replace("OFFSET", "1024"), COVERAGE, tagged=True)
    translations = _count_translations(monkeypatch)
    mended = []
    for faults in (1, 4):
        translations.clear()
        machine = Emulator(image, mode="aware")
        for _ in range(faults):
            with pytest.raises(PolicyViolation, match="MemFault"):
                machine.run()
            assert machine.policy.bcf == {} and _published(machine)
        loop = machine.state.pc  # the ld, where every fault stops
        machine.state.regs[5] -= 1024  # t0: the ld now reads buf
        machine.run()
        assert _published(machine) and translations[loop] <= 2
        mended.append(machine)
    once, often = mended
    [edges] = once.policy.bcf.values()
    assert sorted(edges.values()) == [1, 5] and once.state.exit_code == 6
    assert often.policy == once.policy and often.state == once.state
    assert bool(_members(often)) == (tier == "forced")


# A counted loop, as the corpus writes them, then a helper called from two
# sites with code between the calls that runs once.
COUNTED_LOOP = (
    ".globl main\n.entry main\nmain:\n"
    '    .signature "i64()"\n'
    "    li t4, 9\n"
    "loop:\n"
    "    addi a0, a0, 3\n"
    "    xor a1, a1, a0\n"
    "    addi t4, t4, -1\n"
    "    bne t4, x0, loop\n"
    "    jal ra, helper\n"
    "    li t0, 1\n"
    "    jal ra, helper\n"
    "    li a7, 93\n"
    "    ecall\n"
    "helper:\n"
    "    addi a0, a0, 1\n"
    "    ret\n"
)


@pytest.mark.parametrize("config,mode", [(None, "compat"), (CFI, "aware"), (COVERAGE, "aware")],
                         ids=["untagged", "cfi", "coverage"])
def test_a_loop_block_is_translated_once(monkeypatch, config, mode):
    # the loop's block comes round right after its first translation, which
    # is then cached as it was made; the helper's second entry follows other
    # code's first, so the helper is translated again, and cached then
    image = build_image(COUNTED_LOOP, config or N3, tagged=config is not None)
    [loop] = [pc + insn.imm for pc, insn in _words(image) if insn.mnemonic == "bne"]
    [helper] = {pc + insn.imm for pc, insn in _words(image) if insn.mnemonic == "jal"
                and insn.rd == 1}
    made = collections.Counter()
    translations = _count_translations(monkeypatch, made)
    machine = Emulator(image, mode=mode)
    state, _, _ = machine.run()
    assert state.stop_reason == "exit" and state.regs[10] == 9 * 3 + 2
    assert made[loop] == 1 and made[helper] == 2
    # the loop's second entry hands back its first block and caches it
    assert translations[loop] == 2 and translations[helper] == 2
    assert {loop, helper} <= machine._blocks.keys()
    assert {entry for entry, count in made.items() if count == 2} == {helper}


def _translated(block) -> tuple:
    """What a block's translation fixes: its counts, its end, and each op's
    and its terminator's code and int operands."""
    ops, fetches, retired, labels, term, end = block
    return (fetches, retired, labels, end, [
        (op.__code__, [value for value in op.__defaults__ or () if type(value) is int])
        for op in (*ops, term)])


def test_a_cached_block_equals_a_fresh_translation(monkeypatch):
    from test_emitlink import _buildable_cells

    from rvtag.corpus import generate_corpus

    monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 10 ** 12)  # never samples
    made = collections.Counter()
    _count_translations(monkeypatch, made)
    reused, cells = 0, _buildable_cells()
    for text in generate_corpus(7, 40):
        runs = [(build_image(text, N3, tagged=False), "compat")] + [
            (build_image(text, config, tagged=True, cfi_label_direct_calls=True), mode)
            for config in cells for mode in ("compat", "aware")
            if mode == "aware" or config.carrier.value != "custom"]  # a custom carrier faults
        for image, mode in runs:
            made.clear()
            machine = Emulator(image, mode=mode)
            machine.run()
            for entry, block in machine._blocks.items():
                reused += made[entry] == 1
                fresh = Emulator(image, mode)._translate(entry)
                assert _translated(block) == _translated(fresh), (mode, hex(entry))
    assert reused > 0  # some loop's block was cached from its first translation


def _kept_blocks(machine) -> dict:
    """id -> block of every translated block that the machine's attributes
    hold, in a dict, list, set or tuple or as themselves."""
    kept = {}

    def visit(value, depth):
        if type(value) is tuple and len(value) == 6 and callable(value[4]):
            kept[id(value)] = value
        elif depth and isinstance(value, (dict, list, set, tuple)):
            for item in value.values() if isinstance(value, dict) else value:
                visit(item, depth - 1)
    for value in vars(machine).values():
        visit(value, 2)
    return kept


def test_code_entered_once_stays_uncached(monkeypatch):
    # only a block entered twice is cached, and of the blocks entered once
    # the machine keeps at most the last it made: the run-once driver
    # leaves nothing behind for the garbage collector
    source, _ = _bench_workloads().large_unit(random.Random(7), 4)
    monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 10 ** 12)  # never samples
    for config, mode in [(None, "compat"), (CFI, "aware"), (COVERAGE, "aware")]:
        image = build_image(source, config or N3, tagged=config is not None,
                            cfi_label_direct_calls=True)
        machine = Emulator(image, mode=mode)
        machine._blocks = dispatches = _Dispatches()
        state, _, _ = machine.run()
        assert state.stop_reason == "exit"
        twice = {entry for entry, count in dispatches.counts.items() if count >= 2}
        assert set(dispatches) == twice and len(twice) < len(dispatches.counts)
        cached = {id(block) for block in dispatches.values()}
        assert len(_kept_blocks(machine).keys() - cached) <= 1


# Loops whose BCF sites take one edge over and over, or alternate, inside one
# region call.  In ALTERNATING the bne after andi takes each edge every other
# iteration, and the loop's bne ends two blocks, one entered by falling
# through and one at odd.  In SHARED_RET the ret returns to each call in
# turn.  WALK sums 12 dwords from buf, which holds SIZE bytes: with 96 its
# bne exits in the region call that ran its back-edge, and with 64 its ld
# walks off the end of data and faults there.
ALTERNATING = (
    ".globl main\n.entry main\nmain:\n"
    "    li t2, 12\n"
    "loop:\n"
    "    andi t1, t2, 1\n"
    "    bne t1, x0, odd\n"
    "    addi a0, a0, 5\n"
    "odd:\n"
    "    addi t2, t2, -1\n"
    "    bne t2, x0, loop\n"
    "    li a7, 93\n"
    "    ecall\n"
)
SHARED_RET = (
    ".globl bump\n"
    "bump:\n"
    "    addi a0, a0, 1\n"
    "    ret\n"
    ".globl main\n.entry main\nmain:\n"
    "    li t2, 12\n"
    "loop:\n"
    "    call bump\n"
    "    slli a0, a0, 1\n"
    "    call bump\n"
    "    addi t2, t2, -1\n"
    "    bne t2, x0, loop\n"
    "    li a7, 93\n"
    "    ecall\n"
)
WALK = (
    ".globl main\n.entry main\nmain:\n"
    "    la t0, buf\n"
    "    li t2, 12\n"
    "walk:\n"
    "    ld a1, 0(t0)\n"
    "    add a0, a0, a1\n"
    "    addi t0, t0, 8\n"
    "    addi t2, t2, -1\n"
    "    bne t2, x0, walk\n"
    "    li a7, 93\n"
    "    ecall\n"
    ".data\nbuf:\n    .zero SIZE\n"
)


@pytest.mark.parametrize("tier", ["cold", "forced"])
@pytest.mark.parametrize("source", [ALTERNATING, SHARED_RET, WALK.replace("SIZE", "96"),
                                    WALK.replace("SIZE", "64")],
                         ids=["alternating", "shared-ret", "walk", "walk-fault"])
def test_region_edge_counts_match_the_fetch_trace(monkeypatch, tier, source):
    # a region counts the repeats of a site's first edge in a local and
    # folds them into bcf when it stops: at a cut, past a fault, and once
    # for the members that share a site, keeping the order of sites and edges
    image = build_image(source, COVERAGE, tagged=True)
    trace = _fetch_trace(image)
    fetches = len(trace) - 1
    ran = _edges_taken(image, trace, fetches)
    monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 0 if tier == "forced" else 10 ** 12)

    def finish(machine):
        machine.max_insns = 10 ** 6
        try:
            machine.run()
        except PolicyViolation as exc:
            assert exc.kind == "MemFault"
        return _sites(machine)

    whole = Emulator(image, mode="aware")
    assert finish(whole) == ran
    assert whole.state.halted == (".zero 64" not in source)
    assert bool(_members(whole)) == (tier == "forced")
    assert any(count > 2 for _, edges in ran for _, count in edges)
    for budget in range(1, fetches):
        machine = Emulator(image, mode="aware", max_insns=budget)
        with pytest.raises(LimitExceeded):
            machine.run()
        assert _sites(machine) == _edges_taken(image, trace, budget), budget
        assert finish(machine) == ran, budget


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
    bcf = sorted((pc, sorted(targets.items())) for pc, targets in policy.bcf.items())
    return repr((error, state.regs, state.pc, state.exit_code, state.stop_reason,
                 bytes(state.stdout), _final_memory(state, image),
                 (counters.retired, counters.tag_fetches, counters.labels_seen),
                 sorted(policy.ci_counts.items()), bcf)).encode()


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
# ends in a MemFault at its store, as text is execute-only.  Each of the 591
# records is the one those runs gave, less the list of CL labels that ran,
# which their payloads in the final text give.
EXECUTION_DIGEST = "67645dcb3375fe9d6335839000d2b3fe3bee4433325b04be3e0773f893369915"


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
def forced(monkeypatch, regions_made):
    """Promotion forced: every dispatch of a cached block samples it, so it
    joins the region at its second cached dispatch.  Returns regions_made."""
    monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 0)
    return regions_made


@pytest.fixture
def region_sources(monkeypatch):
    """The source of every region compiled from here on, in order: the
    process's compiled shapes are set aside, so every shape compiles."""
    sources = []
    make_code = emulator._code
    monkeypatch.setattr(emulator, "_GENERATED", {})
    monkeypatch.setattr(emulator, "_code", lambda source: (
        type(source) is str and source.startswith("def region(") and sources.append(source))
        or make_code(source))
    return sources


@pytest.fixture
def region_stops(monkeypatch):
    """Where each region call stopped, in order, from here on: every new
    machine's `at` records the one at[:] store each region call makes."""
    stops = []

    class At(list):
        def __setitem__(self, index, value):
            stops.append(value)
            list.__setitem__(self, index, value)

    init = Emulator.__init__

    def spied(machine, *args, **kwargs):
        init(machine, *args, **kwargs)
        machine._at = At(machine._at)
    monkeypatch.setattr(Emulator, "__init__", spied)
    return stops


@pytest.fixture
def regions_made(monkeypatch):
    """(members, region) of every region made from here on, in order."""
    made = []
    make_region = emulator._region
    monkeypatch.setattr(emulator, "_region", lambda members, at: made.append(
        (members, make_region(members, at))) or made[-1][1])
    return made


def _member_entries(made) -> list:
    """The member entries of each region in `made`, a regions_made list."""
    return [[entry for entry, _ in members] for members, _ in made]


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


def test_a_hot_loop_compiles_at_its_second_sample(monkeypatch, regions_made):
    def compiled():
        """the ops of each block that a region made holds"""
        return [block[0] for members, _ in regions_made for _, block in members]

    kernel, a0 = _bench_workloads().kernel(random.Random(3), 40)
    assert final_a0(build_image(kernel, N3, tagged=False)) == a0
    assert not compiled()  # 40 iterations are about 720 fetches: not one sample point
    kernel, a0 = _bench_workloads().kernel(random.Random(3), 1500)
    # the loop body, up to its jalr, crosses the first mark and joins the
    # region at the second, inside three sample intervals
    machine = Emulator(build_image(kernel, N3, tagged=False),
                       max_insns=3 * emulator._SAMPLE_FETCHES + 256)
    with pytest.raises(LimitExceeded):
        machine.run()
    assert 12 in [len(ops) for ops in compiled()]
    assert final_a0(build_image(kernel, N3, tagged=False)) == a0
    for config in (N3, CFI, UNARITH, COVERAGE):  # each aware cell of the bench, tagged
        regions_made.clear()
        assert final_a0(build_image(kernel, config, tagged=True), "aware") == a0
        assert compiled(), config.policy
    # a cached block is noted at its first sample and opens a trace at its second
    monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 10 ** 12)  # the run samples nothing
    machine = Emulator(build_image(_wide_loop(3, 5), N3, tagged=False))
    machine.run()
    first = sorted(machine._blocks)[1]  # the loop's second block
    machine._sample(first, 0)
    assert machine._trace is None
    machine._sample(first, 0)
    assert machine._trace == [first]


KERNEL_CELLS = [(None, "compat"), (N3, "compat"), (N3, "aware"), (CFI, "aware"),
                (UNARITH, "aware"), (COVERAGE, "aware")]


@pytest.mark.parametrize("config,mode", KERNEL_CELLS,
                         ids=lambda cell: cell if isinstance(cell, str) else getattr(
                             cell, "policy", "untagged"))
def test_the_kernel_loop_inlines_its_load_and_store(regions_made, config, mode):
    # its ld and sd always hit data: a miss, or an access or a policy check
    # left a plain call, would be a silent fall-back to the slow path
    kernel, a0 = _bench_workloads().kernel(random.Random(3), 1500)
    machine = Emulator(build_image(kernel, config or N3, tagged=config is not None), mode=mode)
    misses = []  # each call of a miss that the machine's blocks and regions bind
    load_miss, store_miss = [lambda *args, miss=miss: misses.append(miss) or miss(*args)
                             for miss in machine._access[3:]]
    machine._access = (*machine._access[:3], load_miss, store_miss)

    def bound(function):
        code = function.__code__
        return dict(zip(code.co_varnames[code.co_argcount - len(function.__defaults__):
                                         code.co_argcount], function.__defaults__))

    # the loop runs in its region, which binds each miss once
    machine.run()
    regions = [bound(region) for _, region in regions_made]
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


def test_the_kernel_coverage_loop_counts_through_bound_objects(region_sources, region_stops,
                                                               regions_made):
    # its CL labels write back through the machine's uint32 view of text and
    # its BCF sites count into edge dicts bound at translation: a setdefault
    # per edge, or a struct unpack and pack of text per label, would be a
    # silent fall-back to the slow counting path; so would a region that
    # reads a site's edge dict on every take, not once per edge and call
    kernel, a0 = _bench_workloads().kernel(random.Random(3), 1500)
    machine = Emulator(build_image(kernel, COVERAGE, tagged=True), mode="aware")
    reads, stops = collections.Counter(), region_stops

    class Edges(dict):
        """an edge dict that counts the reads a region makes of it"""
        def get(self, *args):
            reads[id(self)] += sys._getframe(1).f_code.co_name == "region"
            return dict.get(self, *args)

        def __getitem__(self, edge):
            reads[id(self)] += sys._getframe(1).f_code.co_name == "region"
            return dict.__getitem__(self, edge)

    class Sites(dict):
        def setdefault(self, pc, default=None):
            return dict.setdefault(self, pc, Edges())

    machine._sites = Sites()
    sources, regions = region_sources, regions_made
    machine.run()
    assert machine.state.regs[10] == a0 and machine.policy.bcf
    assert sources and regions
    assert not any("setdefault" in source for source in sources)
    assert any("fold(words" in source for source in sources)
    assert any("site[" in source for source in sources)
    bound = [value for _, region in regions for value in region.__defaults__]
    assert any(value is machine._text_words for value in bound)
    assert not any(value is machine.memory.text for value in bound)
    assert not any(isinstance(getattr(value, "__self__", None), struct.Struct)
                   and value.__self__.format == "<I" for value in bound)
    # the loop's bne, its jalr and step's ret each run 1500 times, most of
    # them in region calls that run many iterations each
    assert len(machine.policy.bcf) == 3 and stops
    for edges in machine.policy.bcf.values():
        assert 0 < reads[id(edges)] <= len(stops) * (len(edges) + 1) < sum(edges.values())


def test_a_region_folds_its_cl_counts_in_lines_that_do_not_grow_with_its_labels(
        region_sources):
    # each load's miss branch folds every count of the region in one call,
    # so a region's source grows as its loads plus its labels, not as their
    # product; and the kernel's loop writes text only at exit.  The loads'
    # base is no literal, so each load has its miss branch
    sources = region_sources
    source = (".globl main\n.entry main\nmain:\n    addi t0, sp, -16\n"
              + "    ld a1, 0(t0)\n    lwu a2, 8(t0)\n    bne a1, a2, out\n" * 16
              + "out:\n    li a7, 93\n    ecall\n")
    image = build_image(source, COVERAGE, tagged=True)
    machine, members, entry = Emulator(image, mode="aware"), [], image.entry
    for _ in range(emulator._REGION_BLOCKS):
        members.append((entry, block := machine._translate(entry)))
        entry = block[5]
        forms = [emulator._FORMS[op.__code__] for op in block[0]]
        assert forms.count("CL") == 1 and forms.count("ld") == forms.count("lwu") == 1

    def miss_branches(members):
        """the lines of each load's miss branch, before its call to load"""
        emulator._region(members, [0, 0, 0, 0])
        lines = sources[-1].splitlines()
        return [next(k for k in range(j, 0, -1) if lines[k - 1].endswith("else:")) - j
                for j, line in enumerate(lines) if "= load(" in line]

    one = miss_branches(members[:1])
    assert len(one) == 2 and miss_branches(members) == one * emulator._REGION_BLOCKS
    kernel, a0 = _bench_workloads().kernel(random.Random(3), 1500)
    sources.clear()
    machine = Emulator(build_image(kernel, COVERAGE, tagged=True), mode="aware")
    machine.run()
    assert machine.state.regs[10] == a0
    regions = sources
    assert regions
    for source in regions:
        loop = source[source.index("while True:"):source.index("finally:")]
        assert "words[" not in loop and " += 1\n" in loop


@pytest.mark.parametrize("config,mode", KERNEL_CELLS,
                         ids=lambda cell: cell if isinstance(cell, str) else getattr(
                             cell, "policy", "untagged"))
def test_a_region_holds_its_registers_in_locals_for_the_whole_call(region_sources, config,
                                                                   mode):
    # no body names regs, so a region loads its registers into locals once,
    # before its loop, and stores them once, in its finally
    assert not any("regs" in body for body in emulator._BODIES.values())
    kernel, a0 = _bench_workloads().kernel(random.Random(3), 1500)
    machine = Emulator(build_image(kernel, config or N3, tagged=config is not None), mode=mode)
    machine.run()
    assert machine.state.regs[10] == a0
    regions = region_sources
    assert regions
    for source in regions:
        head, rest = source.split("    try:\n")
        loop, tail = rest.split("    finally:\n")
        assert "regs[" not in loop and "regs[" in head and "regs[" in tail


def _la_halves(image, rd):
    """(upper, lower) of the first la pair into rd: the value its auipc or
    lui writes, and its addi's immediate."""
    writes = [(pc, insn) for pc, insn in _words(image) if insn.rd == rd]
    for (pc, upper), (_, lower) in zip(writes, writes[1:]):
        if upper.mnemonic in ("auipc", "lui") and (lower.mnemonic, lower.rs1) == ("addi", rd):
            value = codec._sext(upper.imm << 12, 32) + (pc if upper.mnemonic == "auipc" else 0)
            return value & (1 << 64) - 1, lower.imm
    raise AssertionError(f"no la pair writes x{rd}")


@pytest.mark.parametrize("config,mode", KERNEL_CELLS,
                         ids=lambda cell: cell if isinstance(cell, str) else getattr(
                             cell, "policy", "untagged"))
def test_a_region_folds_what_its_members_know(region_sources, config, mode):
    # what a member fixes is folded as it is generated: no + 0, one mask on
    # a jalr target, no mask on a register an !unsigned check reads, and the
    # loop's la t2, table is one constant, the table's address
    kernel, a0 = _bench_workloads().kernel(random.Random(3), 1500)
    image = build_image(kernel, config or N3, tagged=config is not None)
    machine = Emulator(image, mode=mode)
    machine.run()
    assert machine.state.regs[10] == a0
    upper, lower = _la_halves(image, 7)
    loops = [source for source in region_sources if "load(" in source]  # with the loop's ld
    assert loops
    for source in region_sources:
        assert not re.search(r"\+ 0\b", source)
        assert "& 18446744073709551615 & ~1" not in source
        assert not re.search(r"= r\d+ & 18446744073709551615$", source, re.MULTILINE)
    for source in loops:  # the add after the la reads the table's address
        assert not re.search(rf"\b{upper}\b", source) and f" + {lower} " not in source
        assert f"r7 = {upper + lower} + r6 & " in source


# Every fold a member's shape allows, on values that change per iteration:
# li, la and lui + addi read in their own member; s1 set to 3 or 4 in two
# members that both go on to join, which reads it; known registers that a
# load overwrites; a write to x0; jalr at a zero, a nonzero and an odd
# immediate, and at an odd base register; and addiw sign extension.
FOLDS = (
    ".globl main\n.entry main\nmain:\n"
    "    li s3, 9\n"
    "loop:\n"
    "    li t0, 0x12345678\n"
    "    addi t1, t0, -1\n"
    "    lui t2, 0x80000\n"
    "    addi t2, t2, 5\n"
    "    la t3, buf\n"
    "    ld t4, 8(t3)\n"
    "    li t5, 7\n"
    "    ld t5, 0(t3)\n"
    "    add t5, t5, t1\n"
    "    add a3, t1, t0 !unsigned\n"
    "    addi x0, x0, 9\n"
    "    add a2, x0, t2\n"
    "    li a1, 0x7FFFFFFF\n"
    "    addiw a1, a1, 1\n"
    "    addiw a4, t4, 0\n"
    "    add a0, a0, t5\n"
    "    xor a0, a0, a1\n"
    "    add a0, a0, a2\n"
    "    add a0, a0, a4\n"
    "    sd a0, 8(t3)\n"
    "    andi t6, s3, 1\n"
    "    beq t6, x0, even\n"
    "    li s1, 3\n"
    "    j join\n"
    "even:\n"
    "    li s1, 4\n"
    "    j join\n"
    "join:\n"
    "    add a0, a0, s1\n"
    "    sd a0, 0(t3)\n"
    "    la t6, callee\n"
    "    jalr ra, t6, 0\n"
    "    la t6, callee\n"
    "    addi t6, t6, -8\n"
    "    jalr ra, t6, 8\n"
    "    la t6, callee\n"
    "    jalr ra, t6, 1\n"
    "    ori t6, t6, 1\n"
    "    jalr ra, t6, 0\n"
    "    addi s3, s3, -1\n"
    "    li s1, 5\n"
    "    bne s3, x0, loop\n"
    "    li a7, 93\n"
    "    ecall\n"
    ".globl callee\ncallee:\n"
    "    addi a0, a0, 1\n"
    "    ret\n"
    ".data\nbuf:\n    .dword 3, 0x7FFFFFFF\n"
)


@pytest.mark.parametrize("config,mode", [(None, "compat"), (UNARITH, "aware"),
                                         (COVERAGE, "aware")], ids=["compat", "unarith",
                                                                    "coverage"])
def test_folded_regions_run_as_the_cold_tier_at_every_cut(monkeypatch, config, mode):
    image = build_image(FOLDS, config or N3, tagged=config is not None)
    machine = Emulator(image, mode=mode)
    machine.run()
    assert machine.state.stop_reason == "exit"
    budgets = [*range(1, machine.counters.total + 1), 10 ** 6]
    records = {}
    for tier, interval in (("cold", 10 ** 12), ("forced", 0)):
        monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", interval)
        records[tier] = [_execution_record(image, mode, budget) for budget in budgets]
    assert records["forced"] == records["cold"]


def _literal_addresses(sources) -> tuple:
    """(literal, compared): the number of accesses in sources whose address
    is a literal, and of those whose address is then compared."""
    literal = compared = 0
    for source in sources:
        lines = source.splitlines()
        for line, after in zip(lines, lines[1:]):
            if re.fullmatch(r" *addr = \d+( \+ -?\d+)?", line):
                literal += 1
                compared += "<= addr <=" in after
    return literal, compared


@pytest.mark.parametrize("config,mode", [(None, "compat"), (UNARITH, "aware"),
                                         (COVERAGE, "aware")], ids=["compat", "unarith",
                                                                    "coverage"])
def test_an_access_at_a_literal_address_runs_only_the_branch_it_hits(forced, region_sources,
                                                                     config, mode):
    # FOLDS reads and writes buf through la t3, buf in the loop's member:
    # that address and the end of data are literals of the shape, so the
    # segment compares are made as the region is generated
    machine = Emulator(build_image(FOLDS, config or N3, tagged=config is not None), mode=mode)
    machine.run()
    assert machine.state.stop_reason == "exit" and region_sources
    literal, compared = _literal_addresses(region_sources)
    assert literal >= 3 and compared == 0
    assert any("<= addr <=" in source for source in region_sources)  # join's sd, t3 unknown


# Accesses at literal addresses that hit data, the stack and text, the
# last a load of the first word of main; then one that faults, as the loop
# ends.
LITERAL_ACCESSES = (
    ".globl main\n.entry main\nmain:\n"
    "    li s3, 40\n"
    "loop:\n"
    "    la t0, buf\n"
    "    ld a1, 8(t0)\n"
    "    addi a1, a1, 3\n"
    "    sd a1, 8(t0)\n"
    f"    li t1, {emulator.STACK_TOP - 16}\n"
    "    sw a1, 4(t1)\n"
    "    lw a2, 4(t1)\n"
    "    la t2, main\n"
    "    lwu a3, 0(t2)\n"
    "    add a0, a0, a3\n"
    "    add a0, a0, a2\n"
    "    addi s3, s3, -1\n"
    "    bne s3, x0, loop\n"
    "    ld a4, 8(x0)\n"
    "    li a7, 93\n"
    "    ecall\n"
    ".data\nbuf:\n    .dword 5, 7\n"
)


@pytest.mark.parametrize("config,mode", [(None, "compat"), (UNARITH, "aware"),
                                         (COVERAGE, "aware")], ids=["compat", "unarith",
                                                                    "coverage"])
def test_literal_addresses_run_as_the_cold_tier_at_every_cut(monkeypatch, region_sources,
                                                              config, mode):
    image = build_image(LITERAL_ACCESSES, config or N3, tagged=config is not None)
    machine = Emulator(image, mode=mode)
    with pytest.raises(PolicyViolation, match="MemFault"):
        machine.run()
    budgets = [*range(1, machine.counters.total + 1), 10 ** 6]
    records, faults = {}, {}
    for tier, interval in (("cold", 10 ** 12), ("forced", 0)):
        monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", interval)
        records[tier] = [_execution_record(image, mode, budget) for budget in budgets]
        # each run resumes at the faulting ld, which is cached at its second
        # entry and, forced, a region member by its fifth
        machine, faults[tier] = Emulator(image, mode=mode), []
        for _ in range(6):
            with pytest.raises(PolicyViolation, match="MemFault") as fault:
                machine.run()
            faults[tier].append((fault.value.pc, machine.state, dataclasses.astuple(
                machine.counters), machine.policy))
        member = machine._blocks[fault.value.pc][1] is emulator._REGION
        assert member == (tier == "forced")
    assert records["forced"] == records["cold"] and faults["forced"] == faults["cold"]
    loops = [source for source in region_sources if "load(" in source]  # text read, or a fault
    literal, compared = _literal_addresses(loops)
    assert literal >= 5 and compared == 0 and any("addr = 0 + 8" in source for source in loops)


@pytest.mark.parametrize("config,mode", KERNEL_CELLS,
                         ids=lambda cell: cell if isinstance(cell, str) else getattr(
                             cell, "policy", "untagged"))
def test_a_trace_closes_the_kernel_loop_into_one_region(regions_made, region_stops, config,
                                                        mode):
    # the block that would join opens a trace, which follows the loop body,
    # step and the block after the call back to itself: the region made then
    # holds the whole loop and runs the rest of it in one call
    kernel, a0 = _bench_workloads().kernel(random.Random(3), 1500)
    made = regions_made
    machine = Emulator(build_image(kernel, config or N3, tagged=config is not None), mode=mode)
    machine.run()
    assert machine.state.regs[10] == a0 and machine._trace is None
    assert len(made) == 1 and 0 < len(region_stops) <= 2


def test_a_trace_closes_a_loop_of_eleven_blocks_into_one_region(regions_made):
    made = regions_made
    machine = Emulator(build_image(_wide_loop(11, 2000), N3, tagged=False))
    machine.run()
    assert machine.state.regs[10] == 2000 * 10 * 11 // 2
    assert len(made) == 1 and len(machine._hot) == 11


@pytest.mark.parametrize("tier,budgets", [("sampled", range(2036, 2120)),
                                          ("forced", range(48, 124))], ids=["sampled", "forced"])
@pytest.mark.parametrize("config,mode", [(None, "compat"), (CFI, "aware"), (COVERAGE, "aware")],
                         ids=["compat", "cfi", "coverage"])
def test_a_cut_while_a_trace_is_open_resumes_as_one_run(monkeypatch, tier, budgets, config,
                                                        mode):
    # the budgets span the fetches from the trace's opening to its close,
    # with either sampling: a run that returns closes the trace it has open,
    # and the resumed run starts with none
    if tier == "forced":
        monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 0)
    kernel, _ = _bench_workloads().kernel(random.Random(3), 200)
    image = build_image(kernel, config or N3, tagged=config is not None)
    whole = Emulator(image, mode=mode)
    whole.run()
    assert whole._trace is None and _members(whole)
    closed = []  # the fetches into its run at each close of a trace
    close = Emulator._close
    monkeypatch.setattr(Emulator, "_close",
                        lambda machine, fetches: closed.append(fetches) or close(machine, fetches))
    cut_open = 0  # the cuts that closed a trace as the run returned
    for budget in budgets:
        closed.clear()
        machine = Emulator(image, mode=mode, max_insns=budget)
        with pytest.raises(LimitExceeded):
            machine.run()
        assert machine._trace is None and machine.counters.total == budget
        cut_open += budget in closed
        machine.max_insns = 10 ** 6
        machine.run()
        assert machine._trace is None
        assert machine.state == whole.state and machine.counters == whole.counters, budget
        assert machine.policy == whole.policy and _sites(machine) == _sites(whole), budget
    assert cut_open > 10


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
            assert any("data" in block.__code__.co_varnames for _, block in forced), source
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
        assert any("state" in block.__code__.co_varnames for _, block in forced), (end, mode)
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
        assert any(renamed <= set(block.__code__.co_varnames) for _, block in forced), mode
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


def _loop(name, blocks, iterations):
    """A loop of `blocks` blocks per iteration, run `iterations` times, each
    block an addi to t1 and a bne to the next word, which ends it."""
    chain = "".join(f"    addi t1, t1, {k + 1}\n    bne t1, x0, {name}{k}\n{name}{k}:\n"
                    for k in range(blocks - 1))
    return (f"    li s3, {iterations}\n{name}:\n{chain}"
            f"    addi s3, s3, -1\n    bne s3, x0, {name}\n")


def _exits_with_t1(body):
    return f".globl main\n.entry main\nmain:\n{body}    mv a0, t1\n    li a7, 93\n    ecall\n"


def _wide_loop(blocks, iterations):
    """A loop of `blocks` blocks per iteration, each an addi and a bne to
    the next word, which ends it; it exits with the sum of the addis."""
    return _exits_with_t1(_loop("loop", blocks, iterations))


def _revisited_loops(outer, inner):
    """An outer loop, run `outer` times, that runs two 10-block loops in
    turn, each `inner` times; it exits with the sum of the addis."""
    return _exits_with_t1(f"    li s2, {outer}\nouter:\n{_loop('p', 10, inner)}"
                          f"{_loop('q', 10, inner)}    addi s2, s2, -1\n    bne s2, x0, outer\n")


# the regions made and words compiled by a machine that samples as usual, in
# compat mode untagged and in aware mode under coverage: a full region stays
# as it is, so none is made twice.  Remaking a full region with each new
# member in place of its oldest one makes 6 to 57 regions of each
REGIONS_MADE_ONCE = {emulator._REGION_BLOCKS + 1: ((2, 34), (2, 58)),
                     emulator._REGION_BLOCKS + 9: ((2, 50), (3, 112)),
                     40: ((3, 80), (3, 137)), "revisited": ((4, 91), (4, 158))}


@pytest.mark.parametrize("config,mode", [(None, "compat"), (COVERAGE, "aware")],
                         ids=["compat", "coverage"])
@pytest.mark.parametrize("loop", REGIONS_MADE_ONCE)
def test_a_loop_wider_than_a_region_runs_in_regions_made_once(monkeypatch, regions_made, loop,
                                                              config, mode):
    # a trace that would take the open region past _REGION_BLOCKS opens the
    # next one: a loop runs in a region per _REGION_BLOCKS of its blocks,
    # and one more where its traces start, and the outer loop's two inner
    # loops in four, at every sample interval
    if loop == "revisited":
        source, most, sum_of_addis = _revisited_loops(20, 50), 4, 20 * 50 * 2 * 45
    else:
        source, most = _wide_loop(loop, 2000), -(-loop // emulator._REGION_BLOCKS) + 1
        sum_of_addis = 2000 * (loop - 1) * loop // 2
    image = build_image(source, config or N3, tagged=config is not None)
    records = []
    for interval in (10 ** 12, emulator._SAMPLE_FETCHES, 0):  # never, as usual, and forced
        regions_made.clear()
        monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", interval)
        records.append(_execution_record(image, mode))
        made = [frozenset(members) for members in _member_entries(regions_made)]
        assert bool(made) == (interval < 10 ** 12)
        assert len(made) <= most and len(set(made)) == len(made), interval
    assert records[0] == records[1] == records[2]
    error, regs = ast.literal_eval(records[0].decode())[:2]
    assert error is None and regs[10] == sum_of_addis
    regions_made.clear()
    monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 1024)
    machine = Emulator(image, mode=mode)
    machine.run()
    assert (len(regions_made), machine._words) == REGIONS_MADE_ONCE[loop][config is not None]
    assert machine._words * 1024 <= machine.counters.total * emulator._INTERVAL_WORDS


def _three_kernels(iterations):
    """The bench kernel with its loop three times over, one copy after
    another, each run `iterations` times: a region closes on each loop."""
    kernel, _ = _bench_workloads().kernel(random.Random(3), iterations)
    head, rest = kernel.split("loop:\n")
    body, tail = rest.split("    bne s3, x0, loop\n")
    return head + "".join(f"    li s3, {iterations}\nloop{k}:\n{body}    bne s3, x0, loop{k}\n"
                          for k in range(3)) + tail


@pytest.mark.parametrize("workload", ["wide", "kernel"])
def test_regions_past_the_kept_count_run_as_the_cold_tier(monkeypatch, region_sources, workload,
                                                          regions_made):
    # past _GENERATED_KEPT, the process drops every shape it compiled, and
    # builds each again as it comes.  The wide loop of 40 blocks makes three
    # regions.  The kernel's loop closes into one region, so the kernel case
    # runs three copies of it.
    if workload == "wide":
        image, mode = build_image(_wide_loop(40, 2000), N3, tagged=False), "compat"
        interval = emulator._SAMPLE_FETCHES
    else:
        image, mode = build_image(_three_kernels(500), COVERAGE, tagged=True), "aware"
        interval = 0
    monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 10 ** 12)  # never samples
    cold = _execution_record(image, mode)
    made = regions_made
    monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", interval)
    monkeypatch.setattr(emulator, "_GENERATED_KEPT", 2)
    assert _execution_record(image, mode) == cold
    # a third region made on the one machine, and a third shape compiled,
    # which found the process's cache full
    assert len(made) > 2 and len(region_sources) > 2
    assert len(emulator._GENERATED) <= 2


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


def test_compiles_stay_within_the_compile_budget(monkeypatch, regions_made):
    # at a short sample interval, regions of up to _REGION_BLOCKS of the
    # sled's blocks, each of up to _BLOCK_WORDS words, are hot enough to
    # compile; the budget holds the words compiled to _INTERVAL_WORDS per
    # sample interval fetched
    monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 256)
    machine = Emulator(build_image(SLED, N3, tagged=False), max_insns=150_000)
    with pytest.raises(LimitExceeded):
        machine.run()
    words = [sum(block[1] for _, block in members) for members, _ in regions_made]
    assert words and max(words) > emulator._BLOCK_WORDS
    assert sum(words) == machine._words
    assert machine._words * 256 <= machine.counters.total * emulator._INTERVAL_WORDS


def test_a_trace_whose_region_the_budget_refuses_joins_the_next_region(monkeypatch,
                                                                       regions_made):
    made = regions_made
    monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 10 ** 12)  # the run samples nothing
    machine = Emulator(build_image(_wide_loop(3, 5), N3, tagged=False))
    machine.run()
    head, first, second = sorted(machine._blocks)  # the loop's three blocks
    # noted, then a trace that takes second and closes back at first: at
    # this interval its region is refused, and both stay in _hot, cold
    for entry in (first, first, second, first):
        machine._sample(entry, 0)
    assert machine._trace is None and not made and not _members(machine)
    assert list(machine._hot) == [first, second]
    assert emulator._REGION not in (machine._blocks[first][1], machine._blocks[second][1])
    monkeypatch.setattr(emulator, "_SAMPLE_FETCHES", 1)
    for entry in (head, head, head):  # noted, then a trace that closes on itself
        machine._sample(entry, 0)
    made = _member_entries(regions_made)
    assert made == [[first, second, head]]
    assert all(machine._blocks[entry][1] is emulator._REGION for entry in made[0])


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


def test_a_big_endian_host_is_refused(monkeypatch):
    # text is read and written as native uint32 words, and RVTI is
    # little-endian: there is no second, byte-swapping path
    import sys

    from rvtag.errors import RvtagError

    image = build_image(SUM_1_TO_10, N3, tagged=False)
    monkeypatch.setattr(sys, "byteorder", "big")
    with pytest.raises(RvtagError, match="little-endian.*big-endian") as info:
        Emulator(image)
    assert type(info.value) is RvtagError


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
        immediates = [codec._sext(v << 12, 32) for v in (0, 1, 0x7FFFF, 0x80000, 0xFFFFF)]
    else:
        immediates = [0, 1, -1, 5, 2047, -2048]
    mask = (1 << 64) - 1
    for imm in immediates:
        if mnemonic in emulator._CONDS:
            pc = 0x10040
            cold_term = emulator._factory(mnemonic)(None, pc, 0, 5, 6, imm)
            pair = [((), cold_term), ((), _one_member_region((), cold_term)[1])]
        else:
            cold_op = emulator._factory(mnemonic)(None, 0, 7, 5, 6, imm)
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
        "sys.addaudithook(lambda event, args: event == 'compile'\n"
        "                 and args[1] == '<rvtag generated>' and generated.append(1))\n"
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
