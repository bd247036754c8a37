import dataclasses

import pytest

from rvtag.corpus import generate_corpus
from rvtag.emitlink import link
from rvtag.emulator import run
from rvtag.instrument import MissingSignature
from rvtag.pipeline import apply_policy, assemble_sources, build_image, build_variants
from rvtag.tagplan import make_config

VARIANT_CELLS = [
    make_config(carrier="lui", coverage=3, policy="cfi"),
    make_config(carrier="lui", coverage=7, policy="cfi"),
    make_config(carrier="lui", coverage=3, policy="unarith"),
    make_config(carrier="lui", coverage=3),
    make_config(carrier="lui", coverage=7, policy="coverage"),
]


@pytest.mark.parametrize("direct", [False, True])
def test_build_variants_equal_separate_builds(direct):
    for text in generate_corpus(7, 40):
        for config in VARIANT_CELLS:
            variants = list(build_variants(text, config, cfi_label_direct_calls=direct))
            kinds = [kind for kind, _ in variants]
            assert kinds == (["baseline", "nolabels", "tagged"] if config.policy == "cfi"
                             else ["baseline", "tagged"])
            expected = {
                "baseline": build_image(text, config, tagged=False),
                "nolabels": build_image(text, config, with_labels=False),
                "tagged": build_image(text, config, cfi_label_direct_calls=direct),
            }
            for kind, image in variants:
                assert image == expected[kind], (kind, config)


def test_build_variants_run_the_pass_only_for_the_tagged_build():
    # a computed call without .calltype: only the cfi pass rejects it
    source = ("main:\n    la t0, f\n    jalr ra, t0, 0\n    ecall\n"
              '.globl f\nf:\n    .signature "i64()"\n    ret\n')
    variants = build_variants(source, make_config(carrier="lui", coverage=3, policy="cfi"))
    assert [next(variants)[0], next(variants)[0]] == ["baseline", "nolabels"]
    with pytest.raises(MissingSignature):
        next(variants)


# A computed call to a function defined in another file of the unit.
CALLER = 'main:\n    la t0, f\n    .calltype "i64()"\n    jalr ra, t0, 0\n    li a7, 93\n    ecall\n'
CALLEE = 'f:\n    .signature "i64()"\n    li a0, 5\n    ret\n'
CFI3 = make_config(carrier="lui", coverage=3, policy="cfi")


def test_a_function_whose_address_another_file_takes_gets_its_entry_label():
    assert assemble_sources([CALLER, CALLEE]).fragment("f").address_taken
    two = build_image([CALLER, CALLEE], CFI3)
    one = build_image(CALLEE + ".entry main\n" + CALLER, CFI3)  # f is not exported here either
    # one label ahead of the checked jalr, one at f's entry
    assert len(two.label_addrs) == len(one.label_addrs) == 2
    for image in (one, two):
        state, _, _ = run(image, mode="aware")
        assert (state.stop_reason, state.exit_code) == ("exit", 5)


def test_a_jump_to_a_function_of_another_file_links():
    sources = ["main:\n    j f\n", "f:\n    li a0, 7\n    li a7, 93\n    ecall\n"]
    for image in (build_image(sources, CFI3, tagged=False), build_image(sources, CFI3)):
        for mode in ("compat", "aware"):
            state, _, _ = run(image, mode=mode)
            assert (state.stop_reason, state.exit_code) == ("exit", 7)


def _split_at_globl(text):
    """The text cut into one file per `.globl` line, each starting at one."""
    files = [[]]
    for line in text.splitlines(keepends=True):
        if line.startswith(".globl") and files[-1]:
            files.append([])
        files[-1].append(line)
    return ["".join(lines) for lines in files]


def test_a_program_split_into_files_links_to_the_same_images():
    from test_emitlink import _buildable_cells

    cells = _buildable_cells()
    assert len(cells) == 35
    split_programs = 0
    for text in generate_corpus(7, 40):
        files = _split_at_globl(text)
        assert "".join(files) == text
        if len(files) == 1:
            continue
        split_programs += 1
        for config in cells:
            split = dict(build_variants(files, config, cfi_label_direct_calls=True))
            whole = dict(build_variants(text, config, cfi_label_direct_calls=True))
            assert split == whole, config
    assert split_programs > 20


def test_passes_and_link_replace_insn_records_and_never_change_them():
    """Insn is not frozen: a rewrite must put a new Insn in its TaggedInsn.
    Every Insn the assembler made keeps its fields through every pass and link."""
    cells = [make_config(carrier="lui", coverage=3),
             make_config(carrier="lui", coverage=3, policy="cfi"),
             make_config(carrier="lui", coverage=3, policy="unarith"),
             make_config(carrier="lui", coverage=7, policy="coverage")]
    replaced = 0
    for text in generate_corpus(7, 40):
        for config in cells:
            program = assemble_sources(text)
            slots = [slot for fragment in program.fragments for slot in fragment.insns]
            recorded = [(slot.insn, dataclasses.astuple(slot.insn)) for slot in slots]
            link(program, config, tagged=False)
            apply_policy(program, config, cfi_label_direct_calls=True)
            link(program, config)
            for insn, fields in recorded:
                assert dataclasses.astuple(insn) == fields
            replaced += sum(slot.insn is not insn for slot, (insn, _) in zip(slots, recorded))
    assert replaced  # the label passes did rewrite branches
