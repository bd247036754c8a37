"""Tag schedule configuration, the memory map, the offset arithmetic that places
every word the linker emits, and the one slot schedule of a linked image.

A carrier word precedes each group of `coverage` instructions.  For an offset
o in the untagged layout, remap_offset(o) = o + 4*floor(o / 4N): offsets at a
group boundary map to that group's carrier slot, and the instruction word
itself always sits one word past remap_offset.  placement(N) states that rule
once, as one call per offset.  In a linked image, region_spans() clips each
region once, carrier_groups() walks its groups, and slot_tags(), the one
reader of carrier words, reads a region's carriers in one strided slice and
decodes each distinct word once per call.  EFFECTS names the tags that
policies act on.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from itertools import chain

from .codec import COVERAGE_VALUES, TAG_BITS, NotACarrier, TagCarrier, tag_reader
from .errors import BuildError


class ConfigError(BuildError):
    """A configuration key is missing, malformed, or inconsistent."""


class TableNA(ConfigError):
    """The requested carrier/coverage combination has no tag layout."""


class Misaligned(BuildError):
    """An offset that must be word-aligned is not."""


INSN_SIZE = 4

# The fixed memory map: text, data up to the stack bottom, and the stack.
TEXT_BASE = 0x10000
DATA_BASE = 0x20000
STACK_TOP = 0x800000
STACK_SIZE = 0x4000

POLICIES = ("none", "cfi", "unarith", "coverage")  # an index is RVTI flag bits 2-3

# Built-in tag vocabularies, used when a config names a policy without an
# explicit tag list.
POLICY_TAG_SETS = {
    "none": (("N", 0),),
    "cfi": (("N", 0), ("CFL", 1)),
    "unarith": (("N", 0), ("UN_ARTH", 1)),
    "coverage": (("CL", 0), ("CI", 1), ("BCF", 2), ("N", 3)),
}
# Per policy, tag value -> name of every built-in tag with an effect: all
# but N.  make_config forbids remapping them, so enforcement and label
# scanning read them from here.
EFFECTS = {policy: {value: name for name, value in tags if name != "N"}
           for policy, tags in POLICY_TAG_SETS.items()}


@dataclass(frozen=True)
class TagConfig:
    """Validated tag schedule: carrier, coverage, tag vocabulary, policy."""

    carrier: TagCarrier
    coverage: int
    policy: str = "none"
    tag_names: tuple = (("N", 0),)
    default_tag: int = 0

    def value_of(self, name: str):
        return dict(self.tag_names).get(name)

    def name_of(self, value: int) -> str:
        return next((n for n, v in self.tag_names if v == value), str(value))

    @property
    def tag_values(self) -> frozenset:
        return frozenset(v for _, v in self.tag_names)

    @property
    def bits_per_tag(self) -> int:
        return TAG_BITS[(self.carrier, self.coverage)]


def make_config(carrier="lui", coverage=3, policy="none", tags=None,
                default_tag=None) -> TagConfig:
    """Build and validate a TagConfig from plain values."""
    try:
        carrier = TagCarrier(carrier)
    except ValueError:
        raise ConfigError(f"carrier: unknown carrier {carrier!r} (lui, addi, custom)") from None
    if coverage not in COVERAGE_VALUES:
        raise ConfigError(f"coverage: {coverage} is not one of {COVERAGE_VALUES}")
    bits = TAG_BITS.get((carrier, coverage))
    if bits is None:
        raise TableNA(f"{carrier.value} carrier does not support coverage {coverage}")
    if policy not in POLICIES:
        raise ConfigError(f"policy: unknown policy {policy!r}")
    if policy == "coverage" and coverage != 7:
        raise ConfigError(f"policy=coverage needs coverage 7, config says {coverage}")
    tag_names = tuple(tags) if tags is not None else POLICY_TAG_SETS[policy]
    if not tag_names:
        raise ConfigError("tags: at least one tag must be declared")
    owners = {}  # value -> the one tag name it has
    for name, value in tag_names:
        if not name:
            raise ConfigError(f"tags: value {value} has no name")
        if name in owners.values():
            raise ConfigError(f"tags: duplicate tag name {name!r}")
        if value in owners:
            raise ConfigError(f"tags: {owners[value]!r} and {name!r} share value {value}")
        owners[value] = name
        if not 0 <= value < (1 << bits):
            raise ConfigError(
                f"tags: value {value} of {name!r} does not fit {bits}-bit tags"
            )
    # Enforcement hardcodes the policy vocabularies, so a config may extend
    # them but not remap them.
    declared = dict(tag_names)
    for name, value in POLICY_TAG_SETS[policy]:
        if declared.get(name, value) != value:
            raise ConfigError(
                f"tags: policy {policy!r} requires {name}={value}, "
                f"config says {declared[name]}")
        if name not in declared:
            raise ConfigError(f"tags: policy {policy!r} requires tag {name!r}")
    if default_tag is None:
        default_tag = "N"
    if isinstance(default_tag, str):
        if default_tag not in declared:
            raise ConfigError(f"default_tag: {default_tag!r} is not a declared tag")
        default_tag = declared[default_tag]
    elif default_tag not in owners:
        raise ConfigError(f"default_tag: value {default_tag} is not declared")
    return TagConfig(
        carrier=carrier,
        coverage=coverage,
        policy=policy,
        tag_names=tag_names,
        default_tag=default_tag,
    )


def loads_config(text: str) -> TagConfig:
    """Parse `key = value` lines into a validated TagConfig."""
    fields = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in fields:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        fields[key] = value

    known = {"carrier", "coverage", "default_tag", "policy", "tags"}
    for key in fields:
        if key not in known:
            raise ConfigError(f"unknown key {key!r}")

    kwargs = {key: fields[key] for key in ("carrier", "policy") if key in fields}
    if "coverage" in fields:
        try:
            kwargs["coverage"] = int(fields["coverage"], 0)
        except ValueError:
            raise ConfigError(f"coverage: {fields['coverage']!r} is not an integer") from None
    if "tags" in fields:
        pairs = []
        for item in fields["tags"].split(","):
            item = item.strip()
            if not item:
                continue
            if ":" not in item:
                raise ConfigError(f"tags: entry {item!r} is not name:value")
            name, _, num = item.partition(":")
            try:
                pairs.append((name.strip(), int(num.strip(), 0)))
            except ValueError:
                raise ConfigError(f"tags: value of {name.strip()!r} is not an integer") from None
        kwargs["tags"] = tuple(pairs)
    if "default_tag" in fields:
        word = fields["default_tag"]
        try:
            kwargs["default_tag"] = int(word, 0)
        except ValueError:
            kwargs["default_tag"] = word
    return make_config(**kwargs)


def load_config(path) -> TagConfig:
    """Read and parse a tag configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return loads_config(text)


# ---------------------------------------------------------------------------
# Offset arithmetic

def placement(coverage: int):
    """place(offset, landing=False), one call: where the instruction word at
    untagged `offset` sits, or with `landing`, where a transfer to it lands.
    A group boundary lands on its carrier, so its tags are fetched on entry."""
    group = INSN_SIZE * coverage

    def place(offset: int, landing: bool = False) -> int:
        if offset % INSN_SIZE:
            raise Misaligned(f"offset {offset} is not a multiple of {INSN_SIZE}")
        # past each carrier up to its own group's; a boundary landing stops on it
        return offset + INSN_SIZE * (offset // group + (not landing or offset % group != 0))
    return place


def remap_offset(offset: int, coverage: int) -> int:
    """Map an untagged fragment offset into the carrier-interleaved layout:
    a group boundary maps to its group's carrier slot, and the instruction
    at `offset` always sits at remap_offset + 4."""
    return placement(coverage)(offset) - INSN_SIZE


def insn_address(offset: int, coverage: int) -> int:
    """Tagged-layout address of the instruction word at untagged `offset`."""
    return placement(coverage)(offset)


def landing_offset(offset: int, coverage: int) -> int:
    """Where control transfers targeting untagged `offset` should land."""
    return placement(coverage)(offset, landing=True)


def tagged_size(fragment_insn_count: int, coverage: int) -> int:
    """Byte size of a fragment once carriers are interleaved: where a
    transfer to its end would land."""
    return placement(coverage)(INSN_SIZE * fragment_insn_count, landing=True)


# ---------------------------------------------------------------------------
# Slot schedule of a linked image

def region_spans(regions, text_end: int):
    """Yield (region, stride, bound) for every region: its groups of stride
    bytes from region.start to bound, clipped to the next region and text_end."""
    for region, end in zip(regions, [r.start for r in regions[1:]] + [text_end]):
        stride = INSN_SIZE * (region.coverage + 1)
        yield region, stride, min(region.start + stride * region.group_count, end, text_end)


def carrier_groups(regions, text_end: int):
    """Yield (region, carrier_addr, group_end) for every carrier group.

    The carrier word at carrier_addr tags the instruction words in
    (carrier_addr, group_end), slot i at carrier_addr + 4*(i+1).
    """
    for region, stride, bound in region_spans(regions, text_end):
        for carrier_addr in range(region.start, bound, stride):
            yield region, carrier_addr, min(carrier_addr + stride, bound)


def slot_tags(text, regions, text_end: int) -> dict:
    """pc -> tag of every slot of carrier_groups(regions, text_end), None at
    each carrier, read little-endian from `text`, the bytes at TEXT_BASE.
    Raises NotACarrier, naming its slot, for the first carrier word that
    does not fit its region's layout."""
    tags = {}
    rows = {}  # per layout: carrier word -> (None, *its tags), for this call only
    for region, stride, bound in region_spans(regions, text_end):
        read = tag_reader(region.carrier, region.coverage)
        view = memoryview(text)[region.start - TEXT_BASE:bound - TEXT_BASE]
        carriers = view.cast("I")[::stride // INSN_SIZE]
        words = struct.unpack(f"<{len(carriers)}I", carriers.tobytes())
        known = rows.setdefault(read, {})
        for word in [word for word in dict.fromkeys(words) if word not in known]:
            try:  # the new distinct words in slot order, so the first bad one raises
                known[word] = (None, *read(word))
            except NotACarrier as exc:
                slot = region.start + stride * words.index(word)
                raise NotACarrier(f"tag slot {slot:#x}: {exc}") from None
        tags.update(zip(range(region.start, bound, INSN_SIZE),
                        chain.from_iterable(map(known.__getitem__, words))))
    return tags
