import pytest

from rvtag.corpus import generate_corpus
from rvtag.instrument import MissingSignature
from rvtag.pipeline import build_image, build_variants
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
