import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rvtag.codec import TagCarrier, tag_packer, tag_reader
from rvtag.emitlink import Image, TagRegion
from rvtag.emulator import Emulator
from rvtag.tagplan import (
    ConfigError,
    Misaligned,
    TableNA,
    carrier_groups,
    insn_address,
    landing_offset,
    loads_config,
    make_config,
    TEXT_BASE,
    remap_offset,
    slot_tags,
    tagged_size,
)


def simulate_remap(offset, coverage):
    """Brute-force oracle: walk the word stream inserting one carrier per
    completed coverage-group and report where the offset is displaced to."""
    displaced = 0
    consumed = 0
    while consumed < offset:
        consumed += 4
        displaced += 4
        if consumed % (4 * coverage) == 0:
            displaced += 4  # carrier closing this group
    return displaced


def test_remap_worked_example():
    assert remap_offset(12, 3) == 16


def test_remap_zero():
    for coverage in (1, 3, 7, 15):
        assert remap_offset(0, coverage) == 0


def test_remap_derived_values():
    assert remap_offset(40, 3) == 52
    assert remap_offset(2048, 15) == 2184
    assert remap_offset(4000, 3) == 5332


def test_remap_rejects_misaligned():
    with pytest.raises(Misaligned):
        remap_offset(6, 3)


def test_remap_against_simulator():
    rng = random.Random(20240817)
    for _ in range(10_000):
        coverage = rng.choice((1, 3, 7, 15))
        offset = 4 * rng.randrange(0, 4096)
        assert remap_offset(offset, coverage) == simulate_remap(offset, coverage)


@settings(max_examples=200)
@given(st.integers(0, 100_000).map(lambda k: 4 * k),
       st.integers(0, 100_000).map(lambda k: 4 * k),
       st.sampled_from((1, 3, 7, 15)))
def test_remap_monotonic(o1, o2, coverage):
    if o1 < o2:
        assert remap_offset(o1, coverage) < remap_offset(o2, coverage)


def test_landing_and_instruction_addresses():
    # N=3 layout: carrier@0 i0@4 i1@8 i2@12 carrier@16 i3@20 ...
    assert landing_offset(0, 3) == 0       # group boundary: land on the carrier
    assert landing_offset(4, 3) == 8       # interior: land on the instruction
    assert landing_offset(8, 3) == 12
    assert landing_offset(12, 3) == 16     # boundary again
    assert insn_address(0, 3) == 4
    assert insn_address(12, 3) == 20


@settings(max_examples=200)
@given(st.integers(0, 2000), st.sampled_from((1, 3, 7, 15)))
def test_group_accounting(count, coverage):
    groups = -(-count // coverage)
    assert tagged_size(count, coverage) == 4 * (count + groups)


# ---------------------------------------------------------------------------
# Configuration

def test_config_cfi_example():
    config = loads_config(
        "carrier = lui\n"
        "coverage = 3\n"
        "policy = cfi\n"
        "tags = N:0, CFL:1\n"
        "default_tag = N\n"
    )
    assert config.carrier is TagCarrier.LUI_NOP
    assert config.coverage == 3
    assert config.bits_per_tag == 6
    assert config.policy == "cfi"
    assert config.default_tag == 0
    assert config.value_of("CFL") == 1


def test_config_coverage31_is_na():
    with pytest.raises(TableNA):
        loads_config("carrier = lui\ncoverage = 31\n")


def test_config_addi_coverage15_is_na():
    with pytest.raises(TableNA):
        loads_config("carrier = addi\ncoverage = 15\n")


def test_config_custom_coverage1():
    config = loads_config("carrier = custom\ncoverage = 1\n")
    assert config.bits_per_tag == 15
    assert config.carrier.backward_compatible is False


def test_config_unknown_key():
    with pytest.raises(ConfigError) as info:
        loads_config("carrier = lui\ncoverage = 3\nwidth = 9\n")
    assert "width" in str(info.value)


def test_config_bad_values():
    with pytest.raises(ConfigError):
        loads_config("carrier = lui\ncoverage = five\n")
    with pytest.raises(ConfigError):
        loads_config("carrier = mips\ncoverage = 3\n")
    with pytest.raises(ConfigError):
        loads_config("carrier = lui\ncoverage = 2\n")
    with pytest.raises(ConfigError, match="unknown key 'labels'"):
        loads_config("carrier = lui\ncoverage = 3\nlabels = maybe\n")
    with pytest.raises(ConfigError):
        loads_config("carrier = lui\ncoverage = 3\ndefault_tag = BOGUS\n")


@pytest.mark.parametrize("carrier", [5, None, "LUI", TagCarrier])
def test_config_unknown_carrier_is_a_config_error(carrier):
    with pytest.raises(ConfigError, match=r"carrier: unknown carrier .* \(lui, addi, custom\)"):
        make_config(carrier=carrier)


def test_config_carrier_by_name_or_member():
    for carrier in TagCarrier:
        assert make_config(carrier=carrier.value, coverage=1).carrier is carrier
        assert make_config(carrier=carrier, coverage=1).carrier is carrier


def test_bits_per_tag_follows_the_layout_after_replace():
    config = make_config(carrier="lui", coverage=7)
    assert config.bits_per_tag == 2
    assert dataclasses.replace(config, coverage=3).bits_per_tag == 6
    assert dataclasses.replace(config, carrier=TagCarrier.CUSTOM).bits_per_tag == 3
    with pytest.raises(TypeError):
        dataclasses.replace(config, bits_per_tag=6)


def test_config_tag_width_validation():
    # coverage 15 on lui leaves 1 bit per tag; value 2 cannot fit
    with pytest.raises(ConfigError):
        make_config(carrier="lui", coverage=15, tags=(("N", 0), ("BIG", 2)))


def test_config_tags_need_names_and_distinct_values():
    with pytest.raises(ConfigError, match="tags: 'A' and 'B' share value 1"):
        loads_config("tags = N:0, A:1, B:1\n")
    with pytest.raises(ConfigError, match="tags: value 1 has no name"):
        loads_config("tags = :1, N:0\n")
    with pytest.raises(ConfigError, match="tags: 'BCF' and 'HOT' share value 2"):
        make_config(carrier="lui", coverage=7, policy="coverage",
                    tags=(("CL", 0), ("CI", 1), ("BCF", 2), ("N", 3), ("HOT", 2)))


def test_config_policy_requires_canonical_values():
    with pytest.raises(ConfigError):
        make_config(carrier="lui", coverage=3, policy="cfi",
                    tags=(("N", 0), ("CFL", 2)))
    with pytest.raises(ConfigError):
        make_config(carrier="lui", coverage=3, policy="cfi", tags=(("N", 0),))


def test_config_policy_defaults():
    coverage = make_config(carrier="lui", coverage=7, policy="coverage")
    assert dict(coverage.tag_names) == {"CL": 0, "CI": 1, "BCF": 2, "N": 3}
    assert coverage.default_tag == 3
    unarith = make_config(carrier="lui", coverage=3, policy="unarith")
    assert dict(unarith.tag_names) == {"N": 0, "UN_ARTH": 1}


@pytest.mark.parametrize("coverage", [1, 3, 15])
def test_config_coverage_policy_needs_coverage7(coverage):
    with pytest.raises(ConfigError, match="coverage 7"):
        make_config(carrier="lui", coverage=coverage, policy="coverage")
    with pytest.raises(ConfigError, match="coverage 7"):
        loads_config(f"carrier = lui\ncoverage = {coverage}\npolicy = coverage\n")


def test_carrier_groups_clip_to_next_region_and_text_end():
    lui = TagCarrier.LUI_NOP
    # The first region claims 3 groups of 4 words but the second starts
    # after 5 words; the second claims 2 groups of 8 words but text ends
    # 3 words in.
    regions = (TagRegion(0x100, 3, 3, lui), TagRegion(0x114, 2, 7, lui))
    assert list(carrier_groups(regions, 0x120)) == [
        (regions[0], 0x100, 0x110),
        (regions[0], 0x110, 0x114),
        (regions[1], 0x114, 0x120),
    ]
    assert list(carrier_groups((), 0x120)) == []


def test_slot_tags_of_mixed_clipped_regions_match_the_group_walk():
    # The regions above as a real image: the second group of the first region
    # is a bare carrier, and one carrier word sits in both regions, where it
    # reads as (5, 0, 0) at coverage 3 and as (1, 1, 0, ...) at coverage 7.
    lui, nop = TagCarrier.LUI_NOP, 0x00000013
    shared = tag_packer(lui, 3)((5, 0, 0))
    words = (tag_packer(lui, 3)((1, 2, 3)), nop, nop, nop, shared, shared, nop, nop)
    image = Image(text=b"".join(word.to_bytes(4, "little") for word in words), data=b"",
                  entry=TEXT_BASE, policy="none",
                  tag_regions=(TagRegion(TEXT_BASE, 3, 3, lui),
                               TagRegion(TEXT_BASE + 0x14, 2, 7, lui)))
    groups = list(carrier_groups(image.tag_regions, image.text_end))
    assert [(addr - TEXT_BASE, end - TEXT_BASE) for _, addr, end in groups] == [
        (0x0, 0x10), (0x10, 0x14), (0x14, 0x20)]
    reference = {}
    for region, carrier_addr, group_end in groups:
        offset = carrier_addr - TEXT_BASE
        word = int.from_bytes(image.text[offset:offset + 4], "little")
        reference[carrier_addr] = None
        reference.update(zip(range(carrier_addr + 4, group_end, 4),
                             tag_reader(region.carrier, region.coverage)(word)))
    tags = slot_tags(image.text, image.tag_regions, image.text_end)
    assert list(tags.items()) == list(reference.items())
    assert list(tags.values()) == [None, 1, 2, 3, None, None, 1, 1]
    assert Emulator(image, mode="aware")._tags == tags
    compat = Emulator(image, mode="compat")._tags
    assert list(compat.items()) == [(carrier_addr, None) for _, carrier_addr, _ in groups]


def test_config_file_round_trip(tmp_path):
    path = tmp_path / "tags.conf"
    path.write_text("carrier = lui\ncoverage = 7\npolicy = coverage\n")
    from rvtag.tagplan import load_config

    config = load_config(path)
    assert config.coverage == 7 and config.policy == "coverage"
