import copy
import dataclasses
import time

import pytest

from rvtag import instrument
from rvtag.codec import BRANCH_MNEMONICS, Insn
from rvtag.corpus import generate_corpus
from rvtag.emitlink import link
from rvtag.emulator import PolicyViolation, run
from rvtag.frontend import TaggedInsn, assemble
from rvtag.instrument import (
    ConfigMismatch,
    InvalidRef,
    LabelOverflow,
    MissingSignature,
    UnknownTag,
    cfi_label_value,
    get_tag,
    insert_label,
    insert_labels,
    pass_cfi,
    pass_coverage,
    pass_unarith,
    propagate_lineage,
    set_tag,
)
from rvtag.pipeline import apply_policy
from rvtag.tagplan import make_config

CFI = make_config(carrier="lui", coverage=3, policy="cfi")
UNARITH = make_config(carrier="lui", coverage=3, policy="unarith")
COVERAGE = make_config(carrier="lui", coverage=7, policy="coverage")


def indirect_call_source(callee_sig='"i64(i64)"', calltype='"i64(i64)"'):
    return (
        ".globl main\n"
        ".entry main\n"
        "main:\n"
        f'    .signature "i64()"\n'
        "    la t1, callee\n"
        f"    .calltype {calltype}\n"
        "    jalr ra, t1, 0\n"
        "    li a7, 93\n"
        "    ecall\n"
        ".globl callee\n"
        "callee:\n"
        f"    .signature {callee_sig}\n"
        "    addi a0, a0, 7\n"
        "    ret\n"
    )


# ---------------------------------------------------------------------------
# set / get / lineage

def test_set_get_tag():
    program = assemble("main:\n    addi a0, a0, 1\n    ecall\n")
    assert get_tag(program, (0, 0), CFI) == 0  # default N
    set_tag(program, (0, 0), "CFL", CFI)
    assert get_tag(program, (0, 0), CFI) == 1
    set_tag(program, (0, 0), 0, CFI)
    assert get_tag(program, (0, 0), CFI) == 0


def test_set_tag_rejects_unknown():
    program = assemble("main:\n    ecall\n")
    with pytest.raises(UnknownTag):
        set_tag(program, (0, 0), "BOGUS", CFI)
    with pytest.raises(UnknownTag):
        set_tag(program, (0, 0), 4, CFI)  # out of the 1-bit cfi set
    with pytest.raises(InvalidRef):
        set_tag(program, (0, 9), "N", CFI)
    with pytest.raises(InvalidRef):
        get_tag(program, (2, 0), CFI)


def test_lineage_propagation_on_call():
    program = assemble("main:\n    call f\n    ecall\nf:\n    ret\n")
    set_tag(program, (0, 0), "CFL", CFI)  # tag the auipc half
    propagate_lineage(program)
    assert get_tag(program, (0, 0), CFI) == 1
    assert get_tag(program, (0, 1), CFI) == 1  # jalr half follows


def test_lineage_first_set_wins():
    program = assemble("main:\n    call f\n    ecall\nf:\n    ret\n")
    set_tag(program, (0, 1), "CFL", CFI)
    set_tag(program, (0, 0), "N", CFI)  # second set on the same lineage
    propagate_lineage(program)
    assert get_tag(program, (0, 0), CFI) == 1
    assert get_tag(program, (0, 1), CFI) == 1


def test_propagate_without_lineages_is_identity():
    program = assemble("main:\n    addi a0, a0, 1\n    ecall\n")
    set_tag(program, (0, 0), "CFL", CFI)
    propagate_lineage(program)
    assert get_tag(program, (0, 0), CFI) == 1
    assert get_tag(program, (0, 1), CFI) == 0


# A computed jump to an internal function, which has no entry label.
JR_TO_INTERNAL = ('.globl main\n.entry main\nmain:\n    .signature "i64()"\n'
                  '    la t1, g\n    .calltype "i64(i64)"\n    jr t1\n'
                  '.internal g\ng:\n    li a7, 93\n    ecall\n')


@pytest.mark.parametrize("tagged_by_user", [False, True])
def test_a_user_tag_on_a_checked_jalr_leaves_it_checked(tagged_by_user):
    config = make_config(carrier="lui", coverage=3, policy="cfi",
                         tags=(("N", 0), ("CFL", 1), ("X", 2)))
    program = assemble(JR_TO_INTERNAL)
    if tagged_by_user:
        set_tag(program, (0, 2), "X", config)  # the jr's own lineage
    image = link(apply_policy(program, config), config)
    with pytest.raises(PolicyViolation) as info:
        run(image, mode="aware")
    assert (info.value.kind, info.value.pc) == ("CfiMissingEntryLabel", 0x10024)


@pytest.mark.parametrize("tagged_by_user", [False, True])
def test_a_user_tag_on_a_jump_keeps_its_coverage_edge(tagged_by_user):
    program = assemble("main:\n    li a0, 1\n    j done\n    li a0, 2\n"
                       "done:\n    li a7, 93\n    ecall\n")
    if tagged_by_user:
        set_tag(program, (0, 1), "N", COVERAGE)
    image = link(apply_policy(program, COVERAGE), COVERAGE)
    _, _, policy_state = run(image, mode="aware")
    assert policy_state.bcf == {0x1000C: {0x10018: 1}}


# ---------------------------------------------------------------------------
# insert_label

def test_insert_label_at_function_start():
    program = assemble("main:\n    addi a0, a0, 1\n    ecall\n")
    insert_label(program, (0, 0), 0x5A3, 1)
    frag = program.fragments[0]
    first = frag.insns[0]
    assert first.is_label and first.tag == 1
    assert first.insn.mnemonic == "lui" and first.insn.rd == 0
    assert first.insn.imm == 0x5A3


def test_insert_label_shifts_relocations():
    program = assemble("main:\n    call f\n    ecall\nf:\n    ret\n")
    insert_label(program, (0, 1), 0x77, 1)  # between auipc and jalr
    frag = program.fragments[0]
    offsets = {(r.kind, r.offset) for r in frag.relocations}
    assert offsets == {("Hi20", 0), ("Lo12I", 8)}
    pair_ids = {r.pair_id for r in frag.relocations}
    assert len(pair_ids) == 1


def test_insert_label_keeps_backward_branch_on_target():
    # branch targets the insertion point: it must now land on the label
    program = assemble("main:\n    addi a0, a0, 1\n    bne a0, a1, main\n")
    insert_label(program, (0, 0), 1, 1)
    frag = program.fragments[0]
    branch = frag.insns[2].insn
    assert branch.imm == -8  # from index 2 back to the label at index 0


def test_insert_label_shifts_interior_branch_target():
    # branch over the insertion point stretches by one word
    program = assemble(
        "main:\n"
        "    beq a0, a1, out\n"
        "    addi a0, a0, 1\n"
        "out:\n"
        "    ecall\n"
    )
    insert_label(program, (0, 1), 2, 1)
    frag = program.fragments[0]
    assert frag.insns[0].insn.imm == 12  # was 8


def test_insert_label_stretches_backward_branch_over_point():
    # site after the insertion point, target before it: distance grows by 4
    program = assemble(
        "main:\n"
        "    addi a0, a0, 1\n"
        "back:\n"
        "    addi a1, a1, 1\n"
        "    addi a2, a2, 1\n"
        "    bne a0, a1, back\n"
    )
    insert_label(program, (0, 2), 3, 1)  # between 'back' and the branch
    frag = program.fragments[0]
    branch = frag.insns[4].insn
    assert branch.imm == -12  # was -8


def test_insert_label_rejects_overflow_and_bad_position():
    program = assemble("main:\n    ecall\n")
    with pytest.raises(LabelOverflow):
        insert_label(program, (0, 0), 1 << 20, 1)
    with pytest.raises(InvalidRef):
        insert_label(program, (0, 5), 1, 1)


# ---------------------------------------------------------------------------
# CFI label derivation

def test_cfi_label_deterministic_and_nonzero():
    a = cfi_label_value("i64(i64,ptr)")
    assert a == cfi_label_value("i64(i64,ptr)")
    assert 0 < a < (1 << 20)
    assert cfi_label_value("i64(i64)") != cfi_label_value("i64(ptr)")


def test_cfi_label_equal_signatures_equal_labels():
    program = assemble(
        ".globl f\nf:\n    .signature \"i64(i64)\"\n    ret\n"
        ".globl g\ng:\n    .signature \"i64(i64)\"\n    ret\n"
    )
    pass_cfi(program, CFI)
    f_label = program.fragment("f").insns[0]
    g_label = program.fragment("g").insns[0]
    assert f_label.is_label and g_label.is_label
    assert f_label.insn.imm == g_label.insn.imm == cfi_label_value("i64(i64)")


# ---------------------------------------------------------------------------
# pass_cfi

def test_pass_cfi_indirect_callsite():
    program = assemble(indirect_call_source())
    pass_cfi(program, CFI)
    main = program.fragment("main")
    mnemonics = [ti.insn.mnemonic for ti in main.insns]
    # entry label, la pair, site label, jalr, exit
    labels = [ti for ti in main.insns if ti.is_label]
    assert len(labels) == 2
    jalr_index = mnemonics.index("jalr")
    site_label = main.insns[jalr_index - 1]
    assert site_label.is_label and site_label.tag == 1
    assert site_label.insn.imm == cfi_label_value("i64(i64)")
    assert main.insns[jalr_index].tag == 1  # checked transfer carries CFL
    callee = program.fragment("callee")
    assert callee.insns[0].is_label
    assert callee.insns[0].insn.imm == cfi_label_value("i64(i64)")


def test_pass_cfi_internal_helper_gets_no_label():
    program = assemble(
        ".internal helper\n"
        "helper:\n"
        "    ret\n"
    )
    pass_cfi(program, CFI)
    assert not any(ti.is_label for ti in program.fragment("helper").insns)


def test_pass_cfi_direct_call_unlabelled_by_default():
    source = (
        ".globl main\nmain:\n    .signature \"i64()\"\n    call f\n    ecall\n"
        ".globl f\nf:\n    .signature \"i64(i64)\"\n    ret\n"
    )
    program = assemble(source)
    pass_cfi(program, CFI)
    main = program.fragment("main")
    labels = [ti for ti in main.insns if ti.is_label]
    assert len(labels) == 1  # only the entry label

    program = assemble(source)
    pass_cfi(program, CFI, label_direct_calls=True)
    main = program.fragment("main")
    labels = [ti for ti in main.insns if ti.is_label]
    assert len(labels) == 2  # entry label plus the between-pair label
    jalr_index = [ti.insn.mnemonic for ti in main.insns].index("jalr")
    assert main.insns[jalr_index - 1].is_label
    assert main.insns[jalr_index - 1].insn.imm == cfi_label_value("i64(i64)")
    offsets = {(r.kind, r.offset) for r in main.relocations}
    assert offsets == {("Hi20", 4), ("Lo12I", 12)}  # pair one word apart


def test_pass_cfi_missing_signature():
    program = assemble(
        ".globl main\nmain:\n    ecall\n")
    with pytest.raises(MissingSignature):
        pass_cfi(program, CFI)
    program = assemble(
        "main:\n    la t1, main\n    jalr ra, t1, 0\n    ecall\n")
    with pytest.raises(MissingSignature):
        pass_cfi(program, CFI)


def test_pass_cfi_entry_and_site_labels_at_index_zero():
    # a checked call as the very first instruction: the entry label must end
    # up outermost, the site label adjacent to the jalr
    program = assemble(
        ".globl f\n"
        "f:\n"
        '    .signature "i64()"\n'
        '    .calltype "i64(i64)"\n'
        "    jalr ra, t1, 0\n"
        "    ret\n"
    )
    pass_cfi(program, CFI)
    frag = program.fragment("f")
    assert [ti.insn.mnemonic for ti in frag.insns] == ["lui", "lui", "jalr", "jalr"]
    assert frag.insns[0].insn.imm == cfi_label_value("i64()")
    assert frag.insns[1].insn.imm == cfi_label_value("i64(i64)")


def test_pass_cfi_returns_are_not_callsites():
    program = assemble(
        ".internal f\nf:\n    ret\n")
    pass_cfi(program, CFI)  # must not demand a calltype for ret
    assert not any(ti.is_label for ti in program.fragment("f").insns)


def test_pass_cfi_idempotent():
    program = assemble(indirect_call_source())
    pass_cfi(program, CFI)
    snapshot = [
        (ti.insn, ti.tag, ti.is_label)
        for frag in program.fragments for ti in frag.insns
    ]
    pass_cfi(program, CFI)
    again = [
        (ti.insn, ti.tag, ti.is_label)
        for frag in program.fragments for ti in frag.insns
    ]
    assert snapshot == again


def test_pass_cfi_labels_jr_with_calltype():
    program = assemble(
        ".internal main\n"
        "main:\n"
        "    la t0, target\n"
        '    .calltype "i64()"\n'
        "    jr t0\n"
        ".globl target\n"
        "target:\n"
        '    .signature "i64()"\n'
        "    ecall\n"
    )
    pass_cfi(program, CFI)
    main = program.fragment("main")
    label, jr = main.insns[2], main.insns[3]
    assert label.is_label and label.insn.imm == cfi_label_value("i64()")
    assert (jr.insn.mnemonic, jr.insn.rd, jr.insn.rs1, jr.tag) == ("jalr", 0, 5, 1)


def test_pass_cfi_jr_without_calltype_is_missing_signature():
    program = assemble(".internal main\nmain:\n    jr t0\n")
    with pytest.raises(MissingSignature):
        pass_cfi(program, CFI)


def test_pass_cfi_wrong_policy():
    program = assemble("main:\n    ecall\n")
    with pytest.raises(ConfigMismatch):
        pass_cfi(program, UNARITH)


# ---------------------------------------------------------------------------
# pass_unarith

def test_pass_unarith_tags_annotated_subs():
    program = assemble(
        "main:\n"
        "    sub a2, a0, a2 !unsigned\n"
        "    sub a1, a3, a1 !unsigned !optout\n"
        "    mul a4, a5, a6\n"
        "    ecall\n"
    )
    pass_unarith(program, UNARITH)
    frag = program.fragments[0]
    assert get_tag(program, (0, 0), UNARITH) == 1
    assert get_tag(program, (0, 1), UNARITH) == 0
    assert get_tag(program, (0, 2), UNARITH) == 0
    # only the six arithmetic mnemonics may carry the check
    tagged = [ti.insn.mnemonic for ti in frag.insns if ti.tag == 1]
    assert tagged == ["sub"]


def test_pass_unarith_idempotent():
    program = assemble("main:\n    add a0, a0, a1 !unsigned\n    ecall\n")
    pass_unarith(program, UNARITH)
    first = [ti.tag for ti in program.fragments[0].insns]
    pass_unarith(program, UNARITH)
    assert [ti.tag for ti in program.fragments[0].insns] == first


# ---------------------------------------------------------------------------
# pass_coverage

COVERAGE_SRC = (
    "main:\n"
    "    addi a0, a0, 1\n"
    "    beq a0, a1, done\n"
    "    addi a2, a2, 1\n"
    "done:\n"
    "    li a7, 93\n"
    "    ecall\n"
)


def test_pass_coverage_inserts_cl_labels():
    program = assemble(COVERAGE_SRC)
    pass_coverage(program, COVERAGE)
    frag = program.fragments[0]
    labels = [i for i, ti in enumerate(frag.insns) if ti.is_label]
    # leaders: entry, fall-through after the branch, branch target
    assert len(labels) == 3
    assert all(frag.insns[i].tag == 0 for i in labels)      # CL
    assert all(frag.insns[i].insn.imm == 0 for i in labels)
    branch_index = [ti.insn.mnemonic for ti in frag.insns].index("beq")
    assert frag.insns[branch_index].tag == 2                # BCF
    # branch lands on the CL label of its target block
    target = 4 * branch_index + frag.insns[branch_index].insn.imm
    assert frag.insns[target // 4].is_label


def test_pass_coverage_straight_line_single_label():
    program = assemble("main:\n    addi a0, a0, 1\n    ecall\n")
    pass_coverage(program, COVERAGE)
    frag = program.fragments[0]
    assert sum(1 for ti in frag.insns if ti.is_label) == 1
    assert frag.insns[0].is_label


def test_pass_coverage_computed_only_mode():
    program = assemble(COVERAGE_SRC)
    pass_coverage(program, COVERAGE, mode="computed_only")
    frag = program.fragments[0]
    assert not any(ti.tag == 2 for ti in frag.insns)  # no BCF on direct branches


def test_pass_coverage_count_annotation():
    program = assemble("main:\n    addi a0, a0, 1 !count\n    ecall\n")
    pass_coverage(program, COVERAGE)
    frag = program.fragments[0]
    counted = [ti for ti in frag.insns if ti.tag == 1]
    assert len(counted) == 1 and counted[0].insn.mnemonic == "addi"


def test_pass_coverage_requires_coverage7():
    program = assemble("main:\n    ecall\n")
    bad = dataclasses.replace(COVERAGE, coverage=3)
    with pytest.raises(ConfigMismatch):
        pass_coverage(program, bad)
    with pytest.raises(ConfigMismatch):
        pass_coverage(program, COVERAGE, mode="sometimes")


# Branch targets outside their fragment: a local label at the fragment's end,
# and a literal delta past it.  Neither starts a block in the fragment.  The
# assembler rejects the end label, so that model drops the word after it.
def _end_label_program():
    program = assemble("main:\n    beq a0, a1, out\n    addi a0, a0, 1\nout:\n    ecall\n"
                       ".globl g\ng:\n    ecall\n")
    del program.fragments[0].insns[2]
    return program


@pytest.mark.parametrize("make", [_end_label_program,
                                  lambda: assemble("main:\n    beq a0, a1, 400\n    ecall\n")],
                         ids=["end_label", "far_delta"])
def test_pass_coverage_ignores_targets_outside_fragment(make):
    program = make()
    pass_coverage(program, COVERAGE)
    main = program.fragments[0]
    # CL labels at the entry and after the branch only
    assert [i for i, ti in enumerate(main.insns) if ti.is_label] == [0, 2]
    link(program, COVERAGE)


def test_pass_coverage_idempotent():
    program = assemble(COVERAGE_SRC)
    pass_coverage(program, COVERAGE)
    snapshot = [(ti.insn, ti.tag, ti.is_label)
                for ti in program.fragments[0].insns]
    pass_coverage(program, COVERAGE)
    assert [(ti.insn, ti.tag, ti.is_label)
            for ti in program.fragments[0].insns] == snapshot


# ---------------------------------------------------------------------------
# insert_labels against the one-label-at-a-time reference

def _reference_insert_label(program, position, label_value, tag):
    """One label per call, each an O(n) rescan: the semantics insert_labels
    must keep, as the passes applied it before batching."""
    frag_index, insn_index = position
    fragment = program.fragments[frag_index]
    relocated = fragment.reloc_offsets()
    point = 4 * insn_index
    moves = []
    for index, tagged in enumerate(fragment.insns):
        insn = tagged.insn
        if (insn.mnemonic in BRANCH_MNEMONICS or insn.mnemonic == "jal") \
                and 4 * index not in relocated:
            site, target = 4 * index, 4 * index + insn.imm
            new_site = site + 4 if site >= point else site
            new_target = target + 4 if target > point else target
            moves.append((index, new_target - new_site))
    fragment.insns.insert(insn_index, TaggedInsn(
        insn=Insn("lui", rd=0, imm=label_value), tag=tag, is_label=True))
    for index, new_imm in moves:
        shifted = index + 1 if index >= insn_index else index
        fragment.insns[shifted].insn = dataclasses.replace(
            fragment.insns[shifted].insn, imm=new_imm)
    for reloc in fragment.relocations:
        if reloc.offset >= point:
            reloc.offset += 4


def _reference_insert_labels(program, frag_index, labels):
    # descending index, and at one index the innermost label first, so the
    # first label given for an index ends up outermost
    order = sorted(enumerate(labels), key=lambda item: (item[1][0], item[0]), reverse=True)
    for _, (index, value, tag) in order:
        _reference_insert_label(program, (frag_index, index), value, tag)
    return program


def _snapshot(program):
    return copy.deepcopy(program.fragments)


LOOP_SRC = (
    ".globl main\n"
    "main:\n"
    '    .signature "i64()"\n'
    "    addi a0, a0, 1\n"       # 0
    "back:\n"
    "    addi a1, a1, 1\n"       # 1
    "    addi a2, a2, 1\n"
    "    addi a3, a3, 1\n"
    "    bne a0, a1, back\n"     # 4
    "    beq a0, a2, main\n"
    "    call main\n"            # 6, 7
    "    la t1, main\n"          # 8, 9
    '    .calltype "i64()"\n'
    "    jalr ra, t1, 0\n"       # 10
    "    ecall\n"
)

LOOP_LABELS = [(4, 0x40, 1), (1, 0x11, 1), (0, 0x01, 1), (2, 0x22, 0),
               (1, 0x12, 0), (7, 0x77, 1), (9, 0x99, 1), (5, 0x55, 1)]


def test_insert_labels_matches_reference():
    program, reference = assemble(LOOP_SRC), assemble(LOOP_SRC)
    insert_labels(program, 0, LOOP_LABELS)
    _reference_insert_labels(reference, 0, LOOP_LABELS)
    assert program == reference


def test_insert_labels_same_index_keeps_given_order():
    program = assemble("main:\n    addi a0, a0, 1\n    ecall\n")
    insert_labels(program, 0, [(1, 0xA, 1), (1, 0xB, 0)])
    values = [(ti.is_label, ti.insn.imm, ti.tag) for ti in program.fragments[0].insns]
    assert values == [(False, 1, None), (True, 0xA, 1), (True, 0xB, 0), (False, 0, None)]


def test_insert_labels_entry_and_site_label_at_index_zero():
    program = assemble(".globl f\nf:\n    jalr ra, t1, 0\n    ret\n")
    entry, site = cfi_label_value("i64()"), cfi_label_value("i64(i64)")
    insert_labels(program, 0, [(0, entry, 1), (0, site, 1)])
    insns = program.fragments[0].insns
    assert [ti.insn.imm for ti in insns[:2]] == [entry, site]
    assert insns[2].insn.mnemonic == "jalr"


def test_insert_labels_branch_to_point_lands_on_outermost_label():
    program = assemble("main:\n    addi a0, a0, 1\n    bne a0, a1, main\n")
    insert_labels(program, 0, [(0, 1, 1), (0, 2, 1), (1, 3, 1)])
    insns = program.fragments[0].insns
    assert [ti.insn.imm for ti in insns[:2]] == [1, 2]
    assert insns[4].insn.imm == -16  # from index 4 back to the first label


def test_insert_labels_backward_branch_across_several_insertions():
    program = assemble(LOOP_SRC)
    # 'back' is index 1; the bne at index 4 jumps back over 2 and 3, and
    # labels at 1 (the target itself) and 4 (ahead of the bne) move it too
    insert_labels(program, 0, [(1, 1, 1), (2, 2, 1), (3, 3, 1), (4, 4, 1), (6, 6, 1)])
    insns = program.fragments[0].insns
    bne = next(i for i, ti in enumerate(insns) if ti.insn.mnemonic == "bne")
    assert bne == 8
    assert insns[bne].insn.imm == -28  # back to the label at index 1
    assert insns[1].insn.imm == 1
    offsets = sorted(r.offset for r in program.fragments[0].relocations)
    assert offsets == [4 * 11, 4 * 12, 4 * 13, 4 * 14]  # 6..9 plus five labels


def test_insert_labels_at_end_of_fragment():
    program = assemble("main:\n    addi a0, a0, 1\n    beq a0, a1, main\n")
    insert_labels(program, 0, [(2, 0x22, 1), (2, 0x23, 1)])
    insns = program.fragments[0].insns
    assert [ti.insn.imm for ti in insns[2:]] == [0x22, 0x23]
    assert insns[1].insn.imm == -4


@pytest.mark.parametrize("labels,error", [
    ([(0, 1, 1), (3, 2, 1)], InvalidRef),
    ([(0, 1, 1), (-1, 2, 1)], InvalidRef),
    ([(0, 1, 1), (1, 1 << 20, 1)], LabelOverflow),
    ([(9, 1, 1), (1, 1 << 20, 1)], LabelOverflow),  # values are checked first
])
def test_insert_labels_rejects_without_change(labels, error):
    program = assemble("main:\n    addi a0, a0, 1\n    beq a0, a1, main\n")
    before = _snapshot(program)
    with pytest.raises(error):
        insert_labels(program, 0, labels)
    assert program.fragments == before
    with pytest.raises(InvalidRef):
        insert_labels(program, 5, [(0, 1, 1)])
    assert program.fragments == before


def _build_both(monkeypatch, text, config, apply):
    """(program, image) through the pass as is and through the reference."""
    program = assemble(text)
    apply(program)
    with monkeypatch.context() as patch:
        patch.setattr(instrument, "insert_labels", _reference_insert_labels)
        reference = assemble(text)
        apply(reference)
    return (program, link(program, config)), (reference, link(reference, config))


ORACLE_CELLS = [
    ("lui", 3, "cfi", False), ("lui", 3, "cfi", True),
    ("lui", 7, "cfi", False), ("lui", 7, "cfi", True),
    ("addi", 1, "cfi", False), ("addi", 1, "cfi", True),
    ("lui", 7, "coverage", False),
]


@pytest.mark.parametrize("carrier,coverage,policy,direct", ORACLE_CELLS,
                         ids=[f"{c}{n}-{p}{'-direct' * d}" for c, n, p, d in ORACLE_CELLS])
def test_passes_match_reference_insertion_on_corpus(monkeypatch, carrier, coverage,
                                                    policy, direct):
    config = make_config(carrier=carrier, coverage=coverage, policy=policy)

    def apply(program):
        if config.policy == "cfi":
            pass_cfi(program, config, label_direct_calls=direct)
        else:
            pass_coverage(program, config)

    texts = [text for seed in (3, 19) for text in generate_corpus(seed, 10)]
    added = 0
    for text in texts + [LOOP_SRC]:
        built, reference = _build_both(monkeypatch, text, config, apply)
        assert built == reference
        added += sum(ti.is_label for frag in built[0].fragments for ti in frag.insns)
    assert added > len(texts)  # every program got at least one label


@pytest.mark.parametrize("apply", [
    lambda program: pass_cfi(program, CFI),
    lambda program: pass_cfi(program, CFI, label_direct_calls=True),
    lambda program: pass_coverage(program, COVERAGE),
], ids=["cfi", "cfi-direct", "coverage"])
def test_passes_rerun_is_identity(apply):
    for text in list(generate_corpus(11, 6)) + [LOOP_SRC]:
        program = assemble(text)
        apply(program)
        once = _snapshot(program)
        apply(program)
        assert program.fragments == once


def test_passes_scale_linearly_with_label_count():
    # one fragment, 3000 direct call sites, each of which gets a label
    sites = 3000
    source = (".globl main\n.entry main\nmain:\n    .signature \"i64()\"\n"
              + "    call f\n" * sites + "    ecall\n"
              ".globl f\nf:\n    .signature \"i64()\"\n    ret\n")
    for config, options in ((CFI, {"cfi_label_direct_calls": True}), (COVERAGE, {})):
        program = assemble(source)
        start = time.perf_counter()
        apply_policy(program, config, **options)
        elapsed = time.perf_counter() - start
        assert sum(ti.is_label for ti in program.fragment("main").insns) >= sites
        assert elapsed < 2.0, f"{config.policy}: {elapsed:.2f} s for {sites} labels"
