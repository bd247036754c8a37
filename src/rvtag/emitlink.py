"""The linker, in one placement loop per fragment, and RVTI image I/O.

tagplan's offset arithmetic is the one placement rule.  With a carrier
ahead of each group of N instructions, the instruction at untagged fragment
offset o sits at base + insn_address(o), a control transfer to o lands on
base + landing_offset(o) (a group boundary lands on its carrier), and a
fragment of n instructions takes tagged_size = landing_offset(4n) bytes.
Fragments are 16-byte aligned with zero fill between them.  HI/LO relocation
pairs resolve correctly with up to MAX_PAIR_GAP words (carriers and labels)
between the two instructions.
link resolves a fragment's relocations first, then writes it group by group.

The memory map is tagplan's, with three disjoint segments: text in [TEXT_BASE,
DATA_BASE), data in [DATA_BASE, STACK_TOP - STACK_SIZE) and the stack below
STACK_TOP.  Image.text_base and Image.data_base are these constants, not
fields.  link raises BuildError for text or data past its segment;
read_image raises FormatError for other bases, for text that is not whole
words, and for a segment past its end.

Image file format "RVTI", little-endian throughout:

    magic   4s   = b"RVTI"
    version u16  = 1
    flags   u16    bit0 tags present, bit1 backward compatible,
                   bits 2-3 policy, its index in tagplan.POLICIES
                   (none/cfi/unarith/coverage), bits 4-15 zero
    entry   u64
    text_base u64, text_len u32, text bytes
    data_base u64, data_len u32, data bytes
    region_count u32, then per region:
        start u64, group_count u32, coverage u8, carrier u8, pad u16 = 0

Region starts are word-aligned, strictly increasing and inside text; each
region has at least one group, and its last carrier starts before the next
region (or the end of text); each (carrier, coverage) pair has a tag
layout; nothing follows the table.  The flags agree with the table: bit0
is set if there is a region, and bit1 is clear if a region's carrier is not
backward compatible.  A tagged unit whose fragments are all empty has bit0
set and no regions.
tagplan.region_spans turns the table into one span per region, and
tagplan.slot_tags reads their carriers into the slot schedule that
scan_labels and the emulator share.  The image stores no label list: a
label is a lui x0 word, so scan_labels reads the labels from the words.
"""

from __future__ import annotations

import os
import stat
import struct
from dataclasses import dataclass
from typing import ClassVar

from . import codec, tagplan
from .codec import TagCarrier
from .errors import BuildError
from .frontend import Program, UndefinedSymbol
from .tagplan import DATA_BASE, STACK_SIZE, STACK_TOP, TEXT_BASE, TagConfig

FUNCTION_ALIGN = 16
MAX_PAIR_GAP = 3

_CARRIER_CODES = {TagCarrier.LUI_NOP: 0, TagCarrier.ADDI_NOP: 1, TagCarrier.CUSTOM: 2}
_CARRIER_FROM_CODE = {v: k for k, v in _CARRIER_CODES.items()}


class RelocOutOfRange(BuildError):
    """A branch or jump no longer reaches its target in the final layout."""


class PairTooFar(BuildError):
    """More than MAX_PAIR_GAP words sit between a HI/LO relocation pair."""


class FormatError(BuildError):
    """Malformed image file."""


@dataclass(frozen=True)
class TagRegion:
    start: int
    group_count: int
    coverage: int
    carrier: TagCarrier


@dataclass(frozen=True)
class Image:
    """Linked flat executable plus the tag-region sidecar."""

    text_base: ClassVar[int] = TEXT_BASE
    data_base: ClassVar[int] = DATA_BASE
    text: bytes
    data: bytes
    entry: int
    policy: str
    tag_regions: tuple = ()

    @property
    def text_end(self) -> int:
        return TEXT_BASE + len(self.text)

    @property
    def tags_present(self) -> bool:
        return bool(self.tag_regions)

    @property
    def backward_compatible(self) -> bool:
        """Whether a tag-unaware machine runs the image: no region uses the
        custom carrier, which it faults on."""
        return all(region.carrier.backward_compatible for region in self.tag_regions)

    @property
    def label_addrs(self) -> tuple:
        """(address, kind) of every metadata label, read from the words."""
        return scan_labels(self)


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


def link(program: Program, config: TagConfig | None = None, *, tagged: bool = True) -> Image:
    """Place, encode and relocate every instruction of `program`.

    Per fragment, the HI/LO, Branch and Jal relocations first resolve at
    their sites' final addresses into one offset -> immediate map, so their
    errors come first.  Then the fragment goes out group by group: a carrier
    packing the next `coverage` tags (None means config.default_tag; a short
    last group pads with it; each distinct group is packed once per call),
    then those words, each encoded once from its final immediate.  An
    untagged link takes the same path with the identity offset map and no
    carriers.  `program` is not modified.
    """
    if tagged and config is None:
        raise BuildError("link needs a TagConfig to emit tags")
    if tagged:
        coverage = config.coverage
        at = tagplan.placement(coverage)
        pack = codec.tag_packer(config.carrier, coverage)
        packed = {}  # each distinct group's tags -> its carrier word, for this call only
    else:  # the identity offset map: no carriers
        at = lambda offset, landing=False: offset

    # A fragment's symbol is its base: landing_offset(0) == 0, the first carrier.
    # Its size is where a transfer to its end would land.
    symbols = {}
    cursor = TEXT_BASE
    for fragment in program.fragments:
        symbols[fragment.name] = cursor
        cursor = _align(cursor + at(tagplan.INSN_SIZE * len(fragment.insns), True),
                        FUNCTION_ALIGN)
    for name, offset in program.data_symbols.items():
        symbols[name] = DATA_BASE + offset

    text = bytearray()
    regions = []
    encoders = codec.ENCODERS
    for fragment in program.fragments:
        base = symbols[fragment.name]
        insns = fragment.insns
        for reloc in fragment.relocations:
            if reloc.target not in symbols:
                raise UndefinedSymbol(
                    f"{fragment.name!r} references undefined symbol {reloc.target!r}")

        # Every relocated word's final immediate, by its untagged offset.
        # HI/LO pairs resolve jointly, enforcing the interposition window.
        imms = {}
        his, los = {}, {}
        for reloc in fragment.relocations:
            if reloc.kind in ("Hi20", "Lo12I"):
                if reloc.pair_id is None:
                    raise BuildError(f"{reloc.kind} relocation without pair id")
                (his if reloc.kind == "Hi20" else los)[reloc.pair_id] = reloc
        for pair_id in sorted(his.keys() | los.keys()):
            hi, lo = his.get(pair_id), los.get(pair_id)
            if hi is None or lo is None:
                raise BuildError(f"incomplete HI/LO pair {pair_id}")
            gap = (at(lo.offset) - (site := at(hi.offset))) // 4 - 1
            if gap < 0:
                raise BuildError(f"HI/LO pair {pair_id} out of order")
            if gap > MAX_PAIR_GAP:
                raise PairTooFar(
                    f"{fragment.name!r}: {gap} words between HI and LO "
                    f"(limit {MAX_PAIR_GAP})")
            imms[hi.offset], imms[lo.offset] = codec.hi_lo(symbols[hi.target] - base - site)

        for reloc in fragment.relocations:
            if reloc.kind not in ("Branch", "Jal"):
                continue
            site = at(reloc.offset)
            delta = symbols[reloc.target] - (base + site)
            lo_bound, hi_bound = codec.BRANCH_REACH if reloc.kind == "Branch" else codec.JAL_REACH
            if not lo_bound <= delta <= hi_bound:
                raise RelocOutOfRange(
                    f"{fragment.name!r}+{site:#x}: target {reloc.target!r} "
                    f"is {delta} bytes away, outside [{lo_bound}, {hi_bound}]")
            imms[reloc.offset] = delta

        # Group by group: the carrier, then the group's words.
        if tagged and insns:
            default = config.default_tag
            tags = [default if slot.tag is None else slot.tag for slot in insns]
            tags += [default] * (-len(insns) % coverage)
            groups = list(zip(*[iter(tags)] * coverage))
            regions.append(TagRegion(start=base, group_count=len(groups),
                                     coverage=coverage, carrier=config.carrier))
        words = []
        try:
            for index, slot in enumerate(insns):
                if tagged and not index % coverage:
                    group = groups[index // coverage]
                    if group not in packed:
                        packed[group] = pack(group)
                    words.append(packed[group])
                insn = slot.insn
                site = 4 * index
                imm = imms.get(site)
                if imm is None:
                    imm = insn.imm
                    if insn.mnemonic in codec.TRANSFER_MNEMONICS:
                        imm = at(site + imm, True) - at(site)
                words.append(encoders[insn.mnemonic](insn.rd, insn.rs1, insn.rs2, imm))
        except codec.OperandRange as exc:
            raise RelocOutOfRange(
                f"{fragment.name!r}: {insn.mnemonic} immediate no longer "
                f"encodable after tag interleaving: {exc}") from None

        text += bytes(base - TEXT_BASE - len(text))  # zero fill to the aligned base
        text += struct.pack(f"<{len(words)}I", *words)

    for name, size, base, limit, end in (
            ("text", len(text), TEXT_BASE, "data base", DATA_BASE),
            ("data", len(program.data), DATA_BASE, "stack bottom", STACK_TOP - STACK_SIZE)):
        if base + size > end:
            raise BuildError(f"{name} ({size} bytes at {base:#x}) overruns {limit} {end:#x}")
    entry_symbol = program.entry
    if entry_symbol not in symbols:
        raise UndefinedSymbol(f"entry symbol {entry_symbol!r} is not defined")

    return Image(
        text=bytes(text),
        data=bytes(program.data),
        entry=symbols[entry_symbol],
        policy=(config.policy if tagged else "none"),
        tag_regions=tuple(regions),
    )


# ---------------------------------------------------------------------------
# Image file I/O

_HEADER = struct.Struct("<4sHH")
_U64 = struct.Struct("<Q")
_U32 = struct.Struct("<I")
_REGION = struct.Struct("<QIBBH")

MAGIC = b"RVTI"
VERSION = 1


def write_image(image: Image, path) -> None:
    blob = bytearray()
    flags = _layout_flags(image) | tagplan.POLICIES.index(image.policy) << 2
    blob += _HEADER.pack(MAGIC, VERSION, flags)
    blob += _U64.pack(image.entry)
    blob += _U64.pack(TEXT_BASE)
    blob += _U32.pack(len(image.text))
    blob += image.text
    blob += _U64.pack(DATA_BASE)
    blob += _U32.pack(len(image.data))
    blob += image.data
    blob += _U32.pack(len(image.tag_regions))
    for region in image.tag_regions:
        blob += _REGION.pack(region.start, region.group_count,
                             region.coverage, _CARRIER_CODES[region.carrier], 0)
    replace_file(path, blob)


def _layout_flags(image: Image) -> int:
    """Flag bits 0-1, tags present and backward compatible, which follow
    from the region table."""
    return image.tags_present | image.backward_compatible << 1


def replace_file(path, data: bytes) -> None:
    """Write `data` to `path` as a new file, the way rvtag writes every output.

    An existing regular file is unlinked, not truncated: on ext4 (with its
    default auto_da_alloc) a truncate-and-rewrite forces the file's writeback
    when it is closed, and a new file under the same name does not.  Any
    other path is never unlinked: a symlink is written through, and a
    device such as /dev/null is written in place.  The new file takes its
    mode from the umask, and other hard links keep the old content.
    """
    try:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.unlink(path)
    except FileNotFoundError:
        pass
    with open(path, "wb") as handle:
        handle.write(data)


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.pos = 0

    def skip(self, size: int) -> int:  # -> where the skipped bytes start
        start, self.pos = self.pos, self.pos + size
        if self.pos > len(self.blob):
            raise FormatError("truncated image file")
        return start

    def take(self, fmt: struct.Struct):
        return fmt.unpack_from(self.blob, self.skip(fmt.size))

    def segment(self, name, base, end) -> bytes:
        """A segment's bytes, after checking its header puts it in [base, end)."""
        start, = self.take(_U64)
        length, = self.take(_U32)
        if start != base or start + length > end:
            raise FormatError(f"{name} of {length} bytes at {start:#x} is outside "
                              f"[{base:#x}, {end:#x}) of the memory map")
        return self.blob[self.skip(length):self.pos]


def read_image(path) -> Image:
    with open(path, "rb") as handle:
        blob = handle.read()
    reader = _Reader(blob)
    magic, version, flags = reader.take(_HEADER)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    if flags & 0xFFF0:
        raise FormatError(f"reserved flag bits {flags & 0xFFF0:#x} are set")
    entry, = reader.take(_U64)
    text = reader.segment("text", TEXT_BASE, DATA_BASE)
    if len(text) % tagplan.INSN_SIZE:
        raise FormatError(f"text length {len(text)} is not a whole number of words")
    data = reader.segment("data", DATA_BASE, STACK_TOP - STACK_SIZE)
    region_count, = reader.take(_U32)
    regions = []
    for _ in range(region_count):
        start, group_count, coverage, carrier_code, pad = reader.take(_REGION)
        if pad:
            raise FormatError(f"region {start:#x}: pad {pad:#x} is not zero")
        if not group_count:
            raise FormatError(f"region {start:#x} has no carrier groups")
        if carrier_code not in _CARRIER_FROM_CODE:
            raise FormatError(f"unknown carrier code {carrier_code}")
        carrier = _CARRIER_FROM_CODE[carrier_code]
        if (carrier, coverage) not in codec.TAG_BITS:
            raise FormatError(f"region {start:#x}: {carrier.value} carrier has no "
                              f"coverage-{coverage} tag layout")
        if not TEXT_BASE <= start < TEXT_BASE + len(text):
            raise FormatError(f"region {start:#x} starts outside text "
                              f"[{TEXT_BASE:#x}, {TEXT_BASE + len(text):#x})")
        if start % tagplan.INSN_SIZE:
            raise FormatError(f"region {start:#x} is not word-aligned")
        if regions and start <= regions[-1].start:
            raise FormatError(f"region {start:#x} does not follow region "
                              f"{regions[-1].start:#x}")
        regions.append(TagRegion(start=start, group_count=group_count,
                                 coverage=coverage, carrier=carrier))
    # Each region's last carrier starts before the next region, or before
    # the end of text for the last one.
    for region, bound in zip(regions, [r.start for r in regions[1:]] + [TEXT_BASE + len(text)]):
        stride = tagplan.INSN_SIZE * (region.coverage + 1)
        if region.start + stride * (region.group_count - 1) >= bound:
            raise FormatError(f"region {region.start:#x}: {region.group_count} carrier "
                              f"groups of {stride} bytes run past {bound:#x}")
    if reader.pos != len(blob):
        raise FormatError(f"{len(blob) - reader.pos} trailing bytes after the region table")
    image = Image(text=text, data=data, entry=entry, policy=tagplan.POLICIES[flags >> 2],
                  tag_regions=tuple(regions))
    implied = _layout_flags(image)
    if flags & 3 != implied:
        raise FormatError(f"flag bits 0-1 are {flags & 3:#04b}, but the region table "
                          f"implies {implied:#04b}")
    return image


def scan_labels(image: Image) -> tuple:
    """(address, kind) of every metadata label in a linked image.

    This is the one place label addresses are computed.  Labels are lui x0
    words at non-carrier slots whose positional tag is one of the policy's
    label tags: CFL under cfi ("cfl"), CL under coverage ("cl").  Raises
    NotACarrier for a malformed carrier word of a policy with labels.
    """
    kinds = {tag: name.lower() for tag, name in tagplan.EFFECTS[image.policy].items()
             if name in ("CFL", "CL")}
    if not kinds:
        return ()
    text = image.text
    tags = tagplan.slot_tags(text, image.tag_regions, image.text_end)
    found = []
    for addr, tag in tags.items():  # a label is a lui x0 word
        if tag in kinds and _U32.unpack_from(text, addr - TEXT_BASE)[0] & 0xFFF == codec.OP_LUI:
            found.append((addr, kinds[tag]))
    return tuple(found)
