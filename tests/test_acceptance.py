"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import random
import time

import pytest

from rvtag import cli, codec, emulator
from rvtag.cli import compare_states, main
from rvtag.codec import COVERAGE_VALUES, Insn, TAG_BITS, TagCarrier
from rvtag.corpus import generate_corpus
from rvtag.emitlink import PairTooFar, TEXT_BASE, link, write_image
from rvtag.emulator import PolicyViolation, run
from rvtag.frontend import assemble
from rvtag.instrument import insert_label
from rvtag.pipeline import apply_policy, assemble_sources, build_image
from rvtag.tagplan import TableNA, make_config, remap_offset

CORPUS_SEED = 20240817
CORPUS_SIZE = 100


def note(criterion, text):
    print(f"ACCEPTANCE {criterion}: PASS - {text}")


# ---------------------------------------------------------------------------
# 1. Remap oracle

def simulate_insertion(coverage, count):
    """Build the carrier-interleaved stream word by word and record where
    each untagged instruction offset is displaced to."""
    stream = []
    positions = []
    for index in range(count + 1):
        if index and index % coverage == 0:
            stream.append("carrier")
        positions.append(4 * len(stream))
        stream.append(f"insn{index}")
    return positions


def test_criterion_1_remap_oracle():
    started = time.monotonic()
    assert remap_offset(12, 3) == 16
    tables = {n: simulate_insertion(n, 8192) for n in (1, 3, 7, 15)}
    rng = random.Random(CORPUS_SEED)
    for _ in range(10_000):
        coverage = rng.choice((1, 3, 7, 15))
        index = rng.randrange(0, 8193)
        assert remap_offset(4 * index, coverage) == tables[coverage][index]
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"remap oracle took {elapsed:.2f}s"
    note(1, f"remap(12,3)=16 and 10,000 random pairs agree with the "
            f"insertion simulator in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. Backward-compat transparency

MICRO_TESTS = [
    # each is layout-clean: no text address survives in a register at exit
    (".globl main\n.entry main\nmain:\n    .signature \"i64()\"\n"
     "    li a0, 0\n    li t1, 1\n    li t2, 10\nacc:\n    add a0, a0, t1\n"
     "    addi t1, t1, 1\n    bge t2, t1, acc\n    li a7, 93\n    ecall\n"),
    (".globl main\n.entry main\nmain:\n    .signature \"i64()\"\n"
     "    la s1, buf\n    li t1, -559038737\n    sd t1, 0(s1)\n"
     "    ld a0, 0(s1)\n    lw a1, 4(s1)\n    lhu a2, 2(s1)\n    lbu a3, 7(s1)\n"
     "    sb a3, 8(s1)\n    li a7, 93\n    ecall\n"
     ".data\nbuf:\n    .zero 16\n"),
    (".globl main\n.entry main\nmain:\n    .signature \"i64()\"\n"
     "    li t1, -5\n    li t2, 3\n    slt a0, t1, t2\n    sltu a1, t1, t2\n"
     "    slti a2, t1, -4\n    sltiu a3, t1, -1\n    li a7, 93\n    ecall\n"),
    (".globl main\n.entry main\nmain:\n    .signature \"i64()\"\n"
     "    li t1, 0x7ff\n    slli a0, t1, 13\n    srli a1, a0, 7\n"
     "    srai a2, a0, 7\n    xori a3, t1, 0x155\n    ori a4, t1, 0x600\n"
     "    andi a5, t1, 0x0f0\n    li a7, 93\n    ecall\n"),
    (".globl main\n.entry main\nmain:\n    .signature \"i64()\"\n"
     "    li a0, 0x12345\n    li a1, -74565\n    li a2, 2047\n    li a3, -2048\n"
     "    li a4, 0x7ffff000\n    li a7, 93\n    ecall\n"),
    (".globl main\n.entry main\nmain:\n    .signature \"i64()\"\n"
     "    li a0, 5\n    call twice\n    call twice\n    mv ra, x0\n    mv t0, x0\n"
     "    li a7, 93\n    ecall\n"
     ".globl twice\ntwice:\n    .signature \"i64(i64)\"\n"
     "    add a0, a0, a0\n    ret\n"),
    (".globl main\n.entry main\nmain:\n    .signature \"i64()\"\n"
     "    li t1, 0x7fffffff\n    li t2, 1\n    addw a0, t1, t2\n"
     "    subw a1, t2, t1\n    addiw a2, t1, 100\n    li a7, 93\n    ecall\n"),
    (".globl main\n.entry main\nmain:\n    .signature \"i64()\"\n"
     "    li t1, 6\n    li t2, 7\n    mul a0, t1, t2\n    sub a1, t1, t2\n"
     "    xor a2, t1, t2\n    or a3, t1, t2\n    and a4, t1, t2\n"
     "    li a7, 93\n    ecall\n"),
    (".globl main\n.entry main\nmain:\n    .signature \"i64()\"\n"
     "    li a0, 72\n    li a7, 64\n    ecall\n    li a0, 105\n    ecall\n"
     "    li a0, 0\n    li a7, 93\n    ecall\n"),
    (".globl main\n.entry main\nmain:\n    .signature \"i64()\"\n"
     "    li t3, 4\nouter:\n    li t4, 3\ninner:\n    addi a0, a0, 1\n"
     "    addi t4, t4, -1\n    bne t4, x0, inner\n    addi t3, t3, -1\n"
     "    bne t3, x0, outer\n    li a7, 93\n    ecall\n"),
]


def test_criterion_2_backward_compat_transparency():
    started = time.monotonic()
    programs = generate_corpus(CORPUS_SEED, CORPUS_SIZE) + MICRO_TESTS
    assert len(programs) >= 110
    plain = make_config(carrier="lui", coverage=3)
    variants = []
    for coverage in (3, 7, 15):
        variants.append((make_config(carrier="lui", coverage=coverage), False))
        variants.append((make_config(carrier="lui", coverage=coverage,
                                     policy="cfi"), True))
    divergences = 0
    for index, text in enumerate(programs):
        baseline = build_image(text, plain, tagged=False)
        base_state, _, _ = run(baseline, mode="compat", max_insns=10 ** 6)
        for config, with_labels in variants:
            tagged = build_image(text, config, tagged=True,
                                 cfi_label_direct_calls=with_labels)
            state, _, _ = run(tagged, mode="compat", max_insns=10 ** 6)
            problem = compare_states(base_state, state)
            if problem is not None:
                divergences += 1
                print(f"program {index} coverage {config.coverage} "
                      f"labels={with_labels}: {problem}")
    elapsed = time.monotonic() - started
    assert divergences == 0
    assert elapsed < 30.0, f"transparency sweep took {elapsed:.2f}s"
    note(2, f"{len(programs)} programs x 6 tagged configurations, "
            f"0 divergences in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 3. asm-ex dynamic overhead law

LOOP_PROGRAM = (
    ".globl main\n.entry main\nmain:\n"
    "    li t1, ITERS\n"
    "    j spin\n"
    ".globl spin\n"
    "spin:\n"
    "    addi t2, t2, 1\n"
    "    addi t3, t3, 2\n"
    "    addi t1, t1, -1\n"
    "    bne t1, x0, spin\n"
    "    li a7, 93\n"
    "    ecall\n"
)


def test_criterion_3_asm_ex_overhead_is_exactly_50pct():
    config = make_config(carrier="lui", coverage=3)

    def totals(iters, tagged):
        image = build_image(LOOP_PROGRAM, config, tagged=tagged,
                            defsym={"ITERS": iters})
        _, counters, _ = run(image)
        return counters.total

    per_iter_base = totals(200, False) - totals(100, False)
    per_iter_tag = totals(200, True) - totals(100, True)
    assert per_iter_base == 100 * 4   # the paper's 4-instruction loop body
    assert per_iter_tag == 100 * 6    # two carriers join every iteration
    overhead = (per_iter_tag - per_iter_base) * 100.0 / per_iter_base
    assert overhead == 50.0
    note(3, "loop iteration costs 6 fetch units tagged vs 4 untagged: 50.0%")


# ---------------------------------------------------------------------------
# 4. size law

def test_criterion_4_size_law_on_corpus():
    programs = generate_corpus(CORPUS_SEED, CORPUS_SIZE) + MICRO_TESTS
    for coverage in (3, 7, 15):
        config = make_config(carrier="lui", coverage=coverage)
        for text in programs:
            program = assemble_sources(text)
            apply_policy(program, config)
            image = link(program, config, tagged=True)
            cursor = TEXT_BASE
            end = TEXT_BASE
            for fragment in program.fragments:
                count = len(fragment.insns)
                groups = -(-count // coverage)
                size = 4 * (count + groups)
                end = cursor + size
                cursor = (end + 15) & ~15
            assert len(image.text) == end - TEXT_BASE
    note(4, "tagged bytes = 4*(insns + ceil(insns/N)) for every fragment, "
            "image text matches the 16-byte-aligned sum")


# ---------------------------------------------------------------------------
# 5. HI/LO interposition

CALLEE_FIRST = (
    ".globl callee\n"
    ".entry main\n"
    "callee:\n"
    '    .signature "i64(i64)"\n'
    "    addi a0, a0, 7\n"
    "    ret\n"
    ".globl main\n"
    "main:\n"
    '    .signature "i64()"\n'
    "    call callee\n"
    "    mv ra, x0\n"
    "    mv t0, x0\n"
    "    li a7, 93\n"
    "    ecall\n"
)


def _resolved_call(image):
    words = [int.from_bytes(image.text[i:i + 4], "little")
             for i in range(0, len(image.text), 4)]
    decoded = []
    for word in words:
        try:
            decoded.append(codec.decode(word))
        except codec.BadEncoding:
            decoded.append(None)
    hi_index = next(i for i, d in enumerate(decoded)
                    if d is not None and d.mnemonic == "auipc")
    lo_index = next(i for i, d in enumerate(decoded)
                    if d is not None and d.mnemonic == "jalr" and d.rd == 1)
    site = image.text_base + 4 * hi_index
    hi = decoded[hi_index].imm
    lo = decoded[lo_index].imm
    target = site + (((hi << 12) ^ 0x80000000) - 0x80000000) + lo
    return target, lo_index - hi_index - 1


def test_criterion_5_hi_lo_interposition():
    variants = {}
    # 0..2 interposed words: labels only, untagged
    for labels in range(3):
        program = assemble(CALLEE_FIRST)
        for value in range(labels):
            insert_label(program, (1, 1), 0x11 * (value + 1), 0)
        variants[labels] = link(program, make_config(carrier="lui", coverage=3),
                                tagged=False)
    # 3 interposed: two labels plus the group-1 carrier lands inside the pair
    program = assemble(CALLEE_FIRST)
    insert_label(program, (1, 1), 0x11, 0)
    insert_label(program, (1, 1), 0x22, 0)
    variants[3] = link(program, make_config(carrier="lui", coverage=3), tagged=True)

    targets = {}
    for gap_expected, image in variants.items():
        target, gap = _resolved_call(image)
        assert gap == gap_expected
        targets[gap_expected] = target
        state, _, _ = run(image, max_insns=10 ** 5)
        assert state.regs[10] == 7  # callee executed exactly once
    assert len(set(targets.values())) == 1, "targets must be bit-identical"

    program = assemble(CALLEE_FIRST)
    for value in (0x11, 0x22, 0x33, 0x44):
        insert_label(program, (1, 1), value, 0)
    with pytest.raises(PairTooFar):
        link(program, make_config(carrier="lui", coverage=3), tagged=False)
    note(5, f"0..3 interposed words resolve to {hex(targets[0])} identically; "
            f"4 words raise PairTooFar")


# ---------------------------------------------------------------------------
# 6. CFI policy scenarios

def _cfi_source(callee_sig, calltype, fixup=""):
    return (
        ".globl main\n.entry main\nmain:\n"
        '    .signature "i64()"\n'
        "    la t1, callee\n"
        f"{fixup}"
        f"    .calltype {calltype}\n"
        "    jalr ra, t1, 0\n"
        "    mv ra, x0\n"
        "    li a7, 93\n"
        "    ecall\n"
        ".globl callee\ncallee:\n"
        f"    .signature {callee_sig}\n"
        "    addi a0, a0, 7\n"
        "    ret\n"
    )


def test_criterion_6_cfi_policy(tmp_path):
    config = make_config(carrier="lui", coverage=3, policy="cfi")

    matched = build_image(_cfi_source('"i64(i64)"', '"i64(i64)"'), config)
    state, _, _ = run(matched, mode="aware")
    assert state.stop_reason == "exit" and state.regs[10] == 7
    path = tmp_path / "matched.rvti"
    write_image(matched, path)
    assert main(["enforce", str(path)]) == 0

    mismatched = build_image(_cfi_source('"i64(ptr)"', '"i64(i64)"'), config)
    with pytest.raises(PolicyViolation) as info:
        run(mismatched, mode="aware")
    assert info.value.kind == "CfiMismatch"
    path = tmp_path / "mismatched.rvti"
    write_image(mismatched, path)
    assert main(["enforce", str(path)]) == cli.EXIT_POLICY

    past_label = build_image(
        _cfi_source('"i64(i64)"', '"i64(i64)"', fixup="    addi t1, t1, 8\n"),
        config)
    with pytest.raises(PolicyViolation) as info:
        run(past_label, mode="aware")
    assert info.value.kind == "CfiMissingEntryLabel"
    note(6, "matched call exits 0, retargeted call traps CfiMismatch, "
            "jump past the entry label traps CfiMissingEntryLabel")


# ---------------------------------------------------------------------------
# 7. UN_ARTH policy (CVE-2021-3330-shaped)

UNDERFLOW_COPY = (
    ".globl main\n.entry main\nmain:\n"
    '    .signature "i64()"\n'
    "    li a0, {len1}\n"
    "    li a2, {len2}\n"
    "    sub a2, a0, a2 {annot}\n"
    "    sltiu t2, a2, 65\n"
    "    beq t2, x0, done\n"
    "    la a3, src\n"
    "    la a4, dst\n"
    "copy:\n"
    "    beq a2, x0, done\n"
    "    lb t1, 0(a3)\n"
    "    sb t1, 0(a4)\n"
    "    addi a3, a3, 1\n"
    "    addi a4, a4, 1\n"
    "    addi a2, a2, -1\n"
    "    j copy\n"
    "done:\n"
    "    li a7, 93\n"
    "    ecall\n"
    ".data\n"
    "src:\n"
    "    .word 0x11223344\n"
    "    .zero 60\n"
    "dst:\n"
    "    .zero 64\n"
)


def test_criterion_7_unsigned_underflow_guard():
    config = make_config(carrier="lui", coverage=3, policy="unarith")

    # underflow: 2 - 3 borrows; the tagged sub traps before any copy
    image = build_image(UNDERFLOW_COPY.format(len1=2, len2=3, annot="!unsigned"),
                        config)
    with pytest.raises(PolicyViolation) as info:
        run(image, mode="aware")
    assert info.value.kind == "UnsignedOverflow"
    sub_word = codec.encode(Insn("sub", rd=12, rs1=10, rs2=12)).to_bytes(4, "little")
    off = info.value.pc - image.text_base
    assert image.text[off:off + 4] == sub_word, "trap lands on the tagged sub"
    dst = image.data_base + 64
    state = info.value
    # no partial copy: the machine stopped at the sub, so dst was never touched
    machine = emulator.Emulator(image, mode="aware")
    with pytest.raises(PolicyViolation):
        machine.run()
    assert machine.state.memory.read(dst, 64) == 0

    # opt-out: wraps silently, the bounds guard skips the copy, run completes
    optout = build_image(
        UNDERFLOW_COPY.format(len1=2, len2=3, annot="!unsigned !optout"), config)
    state, _, _ = run(optout, mode="aware")
    assert state.stop_reason == "exit"
    assert state.regs[12] == (1 << 64) - 1

    # in-range: 3 - 2 copies one byte and completes
    in_range = build_image(
        UNDERFLOW_COPY.format(len1=3, len2=2, annot="!unsigned"), config)
    machine = emulator.Emulator(in_range, mode="aware")
    state, _, _ = machine.run()
    assert state.stop_reason == "exit"
    assert machine.state.memory.read(in_range.data_base + 64, 1) == 0x44
    note(7, "underflow traps at the tagged sub with zero bytes copied; "
            "opt-out and in-range variants complete")


# ---------------------------------------------------------------------------
# 8. coverage policy

COVERAGE_BLOCKS = (
    ".globl block_fn\n"
    "block_fn:\n"
    "    addi a0, a0, 1\n"
    "    li t1, 3\n"
    "    beq a0, t1, merge\n"
    "    addi a1, a1, 1\n"
    "merge:\n"
    "    addi a2, a2, 1\n"
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


def test_criterion_8_coverage_counts():
    config = make_config(carrier="lui", coverage=7, policy="coverage")
    image = build_image(COVERAGE_BLOCKS, config)
    state, _, policy = run(image, mode="aware")

    block_lo = image.tag_regions[0].start
    block_hi = image.tag_regions[1].start
    sites = [addr for addr, kind in image.label_addrs
             if kind == "cl" and block_lo <= addr < block_hi]
    assert len(sites) == 3
    counts = []
    for addr in sorted(sites):
        counts.append((state.memory.read(addr, 4) >> 12) & 0xFFFFF)
    assert counts == [3, 2, 3]

    beq_pc = next(
        pc for pc in policy.bcf
        if block_lo <= pc < block_hi and codec.decode(
            int.from_bytes(image.text[pc - image.text_base:
                                      pc - image.text_base + 4], "little")
        ).mnemonic == "beq")
    fallthrough = beq_pc + 4
    taken = next(t for t in policy.bcf[beq_pc] if t != fallthrough)
    assert policy.bcf[beq_pc] == {fallthrough: 2, taken: 1}
    note(8, f"CL counts (3,2,3); branch map {{{hex(beq_pc)}: "
            f"{{{hex(fallthrough)}: 2, {hex(taken)}: 1}}}}")


# ---------------------------------------------------------------------------
# 9. Table conformance

PUBLISHED_TABLE = {
    ("addi", 1): 12, ("addi", 3): 4, ("addi", 7): 1,
    ("lui", 1): 20, ("lui", 3): 6, ("lui", 7): 2, ("lui", 15): 1,
    ("custom", 1): 15, ("custom", 3): 8, ("custom", 7): 3, ("custom", 15): 1,
}


def test_criterion_9_table_conformance():
    checked = 0
    for carrier in ("addi", "lui", "custom"):
        for coverage in COVERAGE_VALUES:
            expected = PUBLISHED_TABLE.get((carrier, coverage))
            if expected is None:
                with pytest.raises(TableNA):
                    make_config(carrier=carrier, coverage=coverage)
            else:
                config = make_config(carrier=carrier, coverage=coverage)
                assert config.bits_per_tag == expected
                enum = {"addi": TagCarrier.ADDI_NOP, "lui": TagCarrier.LUI_NOP,
                        "custom": TagCarrier.CUSTOM}[carrier]
                assert TAG_BITS[(enum, coverage)] == expected
            checked += 1
    assert checked == 15  # 3 carriers x {1,3,7,15,31}
    note(9, "all 15 carrier/coverage cells accepted or rejected per the table")


# ---------------------------------------------------------------------------
# 10. determinism

def test_criterion_10_determinism(tmp_path, capsys):
    config = make_config(carrier="lui", coverage=3, policy="cfi")
    text = generate_corpus(CORPUS_SEED, 1)[0]
    blobs = []
    for attempt in range(2):
        image = build_image(text, config, cfi_label_direct_calls=True)
        path = tmp_path / f"det{attempt}.rvti"
        write_image(image, path)
        blobs.append(path.read_bytes())
    assert blobs[0] == blobs[1]

    conf = tmp_path / "tags.conf"
    conf.write_text("carrier = lui\ncoverage = 3\n")
    outputs = []
    for _ in range(2):
        assert main(["diff-run", "--config", str(conf), "--json",
                     "--generate", "4", "--seed", "123"]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert generate_corpus(42, 3) == generate_corpus(42, 3)
    note(10, "same seed yields byte-identical images and reports")
