"""Tag schedule configuration, the memory map, the offset arithmetic that places
every word the linker emits, and the one slot schedule of a linked image.

A carrier word precedes each group of `coverage` instructions.  For an offset
o in the untagged layout, remap_offset(o) = o + 4*floor(o / 4N): offsets at a
group boundary map to that group's carrier slot, and the instruction word
itself always sits one word past remap_offset.  In a linked image,
carrier_groups() is the single walker over the carrier groups, and
slot_tags() the single reader of their carrier words, which label scanning
and the emulator's pc -> tag table both call.  EFFECTS names the tags that
policies act on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

POLICIES = ("none", "cfi", "unarith", "coverage")

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
    labels_enabled: bool = True
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


def make_config(carrier="lui", coverage=3, labels=True, policy="none",
                tags=None, default_tag=None) -> TagConfig:
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
    if policy == "coverage" and not labels:
        raise ConfigError("policy=coverage needs labels enabled")
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
        labels_enabled=bool(labels),
        policy=policy,
        tag_names=tag_names,
        default_tag=default_tag,
    )


_BOOL_WORDS = {"true": True, "on": True, "1": True, "yes": True,
               "false": False, "off": False, "0": False, "no": False}


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

    known = {"carrier", "coverage", "labels", "default_tag", "policy", "tags"}
    for key in fields:
        if key not in known:
            raise ConfigError(f"unknown key {key!r}")

    kwargs = {key: fields[key] for key in ("carrier", "policy") if key in fields}
    if "coverage" in fields:
        try:
            kwargs["coverage"] = int(fields["coverage"], 0)
        except ValueError:
            raise ConfigError(f"coverage: {fields['coverage']!r} is not an integer") from None
    if "labels" in fields:
        word = fields["labels"].lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(f"labels: {fields['labels']!r} is not a boolean")
        kwargs["labels"] = _BOOL_WORDS[word]
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

def remap_offset(offset: int, coverage: int) -> int:
    """Map an untagged fragment offset into the carrier-interleaved layout.

    Group-boundary offsets land on the carrier slot for their group; the
    instruction originally at `offset` always sits at remap_offset + 4.
    """
    if offset % INSN_SIZE:
        raise Misaligned(f"offset {offset} is not a multiple of {INSN_SIZE}")
    return offset + INSN_SIZE * (offset // (INSN_SIZE * coverage))


def insn_address(offset: int, coverage: int) -> int:
    """Tagged-layout address of the instruction word at untagged `offset`."""
    return remap_offset(offset, coverage) + INSN_SIZE


def landing_offset(offset: int, coverage: int) -> int:
    """Where control transfers targeting untagged `offset` should land.

    Group boundaries land on the carrier so the whole group's tags are
    fetched on entry; interior targets land on the instruction itself.
    """
    remapped = remap_offset(offset, coverage)
    if offset % (INSN_SIZE * coverage) == 0:
        return remapped
    return remapped + INSN_SIZE


def tagged_size(fragment_insn_count: int, coverage: int) -> int:
    """Byte size of a fragment once carriers are interleaved."""
    groups = -(-fragment_insn_count // coverage)
    return INSN_SIZE * (fragment_insn_count + groups)


# ---------------------------------------------------------------------------
# Slot schedule of a linked image

def carrier_groups(regions, text_end: int):
    """Yield (region, carrier_addr, group_end) for every carrier group.

    The carrier word at carrier_addr tags the instruction words in
    (carrier_addr, group_end), slot i at carrier_addr + 4*(i+1).  A region
    spans group_count groups of coverage+1 words, clipped to the next
    region's start and to text_end.
    """
    for i, region in enumerate(regions):
        stride = INSN_SIZE * (region.coverage + 1)
        bound = min(region.start + stride * region.group_count, text_end)
        if i + 1 < len(regions):
            bound = min(bound, regions[i + 1].start)
        for carrier_addr in range(region.start, bound, stride):
            yield region, carrier_addr, min(carrier_addr + stride, bound)


def slot_tags(text, groups) -> dict:
    """pc -> tag of every slot of `groups` (from carrier_groups), with None
    at each carrier, read from `text`, the bytes of text at TEXT_BASE.  This
    is the one reader of carrier words.

    Raises NotACarrier, naming its slot, for a carrier word that does not
    fit its region's layout.
    """
    tags = {}
    region = None
    for group_region, carrier_addr, group_end in groups:
        if group_region is not region:
            region = group_region
            read = tag_reader(region.carrier, region.coverage)
        offset = carrier_addr - TEXT_BASE
        try:
            values = read(int.from_bytes(text[offset:offset + INSN_SIZE], "little"))
        except NotACarrier as exc:
            raise NotACarrier(f"tag slot {carrier_addr:#x}: {exc}") from None
        tags[carrier_addr] = None
        tags.update(zip(range(carrier_addr + INSN_SIZE, group_end, INSN_SIZE), values))
    return tags
