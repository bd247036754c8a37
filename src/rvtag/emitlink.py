"""Tag interleaving, layout, relocation resolution, and flat image emission.

Carrier words precede each coverage-group; fragments are 16-byte aligned
with zero fill between them.  HI/LO relocation pairs resolve correctly with
up to max_pair_gap words (carriers and labels) between the two instructions.

Image file format "RVTI", little-endian throughout:

    magic   4s   = b"RVTI"
    version u16  = 1
    flags   u16    bit0 tags present, bit1 backward compatible,
                   bits 2-3 policy (none/cfi/unarith/coverage)
    entry   u64
    text_base u64, text_len u32, text bytes
    data_base u64, data_len u32, data bytes
    region_count u32, then per region:
        start u64, group_count u32, coverage u8, carrier u8, pad u16

Region starts are word-aligned, strictly increasing and inside text; each
(carrier, coverage) pair has a tag layout.  tagplan.carrier_groups turns the
table into the slot schedule that label recovery and the emulator share.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

from . import codec, tagplan
from .codec import Insn, TagCarrier, TagPack
from .errors import BuildError
from .frontend import Fragment, Program, Relocation, TaggedInsn, UndefinedSymbol
from .tagplan import TagConfig

TEXT_BASE = 0x10000
DATA_BASE = 0x20000
FUNCTION_ALIGN = 16
MAX_PAIR_GAP = 3

_CARRIER_CODES = {TagCarrier.LUI_NOP: 0, TagCarrier.ADDI_NOP: 1, TagCarrier.CUSTOM: 2}
_CARRIER_FROM_CODE = {v: k for k, v in _CARRIER_CODES.items()}
_POLICY_CODES = {"none": 0, "cfi": 1, "unarith": 2, "coverage": 3}
_POLICY_FROM_CODE = {v: k for k, v in _POLICY_CODES.items()}


class RelocOutOfRange(BuildError):
    """A branch or jump no longer reaches its target in the final layout."""


class PairTooFar(BuildError):
    """More than max_pair_gap words sit between a HI/LO relocation pair."""


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

    text_base: int
    text: bytes
    data_base: int
    data: bytes
    entry: int
    tags_present: bool
    backward_compatible: bool
    policy: str
    tag_regions: tuple = ()
    label_addrs: tuple = ()

    @property
    def text_end(self) -> int:
        return self.text_base + len(self.text)


def _align(value: int, alignment: int) -> int:
    return (value + alignment - 1) & ~(alignment - 1)


def _resolved_tag(tagged: TaggedInsn, config: TagConfig) -> int:
    return config.default_tag if tagged.tag is None else tagged.tag


def emit_tags(program: Program, config: TagConfig) -> Program:
    """Interleave one carrier word ahead of each coverage-group.

    Returns a new Program whose fragment instruction lists contain the
    carrier slots, whose local branch immediates are rewritten for the
    tagged layout, and whose relocation offsets point at the relocated
    instructions' tagged-layout positions.  Labels count as ordinary
    covered instructions; trailing partial groups pad with the default tag.
    """
    coverage = config.coverage
    out = Program(
        data=program.data,
        data_symbols=dict(program.data_symbols),
        entry=program.entry,
        entry_explicit=program.entry_explicit,
        lineage_count=program.lineage_count,
        lineage_first_tag=dict(program.lineage_first_tag),
    )
    for fragment in program.fragments:
        relocated = fragment.reloc_offsets()
        new_insns = []
        for index, tagged in enumerate(fragment.insns):
            if index % coverage == 0:
                members = fragment.insns[index:index + coverage]
                tags = [_resolved_tag(m, config) for m in members]
                tags += [config.default_tag] * (coverage - len(tags))
                word = codec.pack_tags(
                    config.carrier,
                    TagPack(coverage=coverage, bits_per_tag=config.bits_per_tag,
                            tags=tuple(tags)),
                )
                new_insns.append(TaggedInsn(insn=Insn("lui"), carrier_word=word))
            insn = tagged.insn
            mnemonic = insn.mnemonic
            site = 4 * index
            if (mnemonic in codec.BRANCH_MNEMONICS or mnemonic == "jal") \
                    and site not in relocated:
                target = site + insn.imm
                new_imm = (tagplan.landing_offset(target, coverage)
                           - tagplan.insn_address(site, coverage))
                insn = replace(insn, imm=new_imm)
            new_insns.append(TaggedInsn(  # explicit: about 2x faster than replace()
                insn=insn, tag=tagged.tag, lineage=tagged.lineage, is_label=tagged.is_label,
                label_value=tagged.label_value, annotations=tagged.annotations,
                calltype=tagged.calltype, carrier_word=tagged.carrier_word))
        new_fragment = Fragment(
            name=fragment.name,
            insns=new_insns,
            relocations=[
                Relocation(r.kind, tagplan.insn_address(r.offset, coverage),
                           r.target, r.pair_id)
                for r in fragment.relocations
            ],
            exported=fragment.exported,
            internal=fragment.internal,
            address_taken=fragment.address_taken,
            signature=fragment.signature,
        )
        out.fragments.append(new_fragment)
    return out


@dataclass(frozen=True)
class Layout:
    """Final addresses derived from untagged offsets."""

    fragment_bases: dict
    symbols: dict          # name -> address control transfers should reach
    text_size: int


def adjust_symbols(program: Program, config: TagConfig | None,
                   text_base: int = TEXT_BASE, data_base: int = DATA_BASE) -> Layout:
    """Compute fragment bases and final symbol addresses.

    Bases accumulate the carrier-inflated fragment sizes with 16-byte
    alignment between functions; each symbol offset goes through the
    remap arithmetic (function entries land on their first carrier slot).
    """
    coverage = config.coverage if config is not None else None
    bases = {}
    cursor = text_base
    for fragment in program.fragments:
        bases[fragment.name] = cursor
        count = len(fragment.insns)
        size = tagplan.tagged_size(count, coverage) if coverage else 4 * count
        cursor = _align(cursor + size, FUNCTION_ALIGN)
    last = program.fragments[-1] if program.fragments else None
    if last is not None:
        count = len(last.insns)
        size = tagplan.tagged_size(count, coverage) if coverage else 4 * count
        text_size = bases[last.name] + size - text_base
    else:
        text_size = 0
    symbols = {}
    for fragment in program.fragments:
        offset = tagplan.landing_offset(0, coverage) if coverage else 0
        symbols[fragment.name] = bases[fragment.name] + offset
    for name, offset in program.data_symbols.items():
        symbols[name] = data_base + offset
    return Layout(fragment_bases=bases, symbols=symbols, text_size=text_size)


def _fragment_words(fragment: Fragment) -> list:
    words = []
    for tagged in fragment.insns:
        if tagged.carrier_word is not None:
            words.append(tagged.carrier_word)
        else:
            try:
                words.append(codec.encode(tagged.insn))
            except codec.OperandRange as exc:
                raise RelocOutOfRange(
                    f"{fragment.name!r}: {tagged.insn.mnemonic} immediate no longer "
                    f"encodable after tag interleaving: {exc}") from None
    return words


def link(program: Program, config: TagConfig | None = None, *, tagged: bool = True,
         text_base: int = TEXT_BASE, data_base: int = DATA_BASE,
         max_pair_gap: int = MAX_PAIR_GAP) -> Image:
    """Resolve all relocations against the final layout and emit an Image."""
    if tagged and config is None:
        raise BuildError("link needs a TagConfig to emit tags")
    emitted = emit_tags(program, config) if tagged else program
    layout = adjust_symbols(program, config if tagged else None,
                            text_base=text_base, data_base=data_base)

    text = bytearray(layout.text_size)
    regions = []
    labels = []
    symbols = layout.symbols
    for original, fragment in zip(program.fragments, emitted.fragments):
        base = layout.fragment_bases[fragment.name]
        words = _fragment_words(fragment)

        for reloc in fragment.relocations:
            if reloc.target not in symbols:
                raise UndefinedSymbol(
                    f"{fragment.name!r} references undefined symbol {reloc.target!r}")

        # HI/LO pairs: resolve jointly, enforcing the interposition window.
        pairs = {}
        for reloc in fragment.relocations:
            if reloc.kind in ("Hi20", "Lo12I"):
                if reloc.pair_id is None:
                    raise BuildError(f"{reloc.kind} relocation without pair id")
                pairs.setdefault(reloc.pair_id, {})[reloc.kind] = reloc
        for pair_id, sides in sorted(pairs.items()):
            if set(sides) != {"Hi20", "Lo12I"}:
                raise BuildError(f"incomplete HI/LO pair {pair_id}")
            hi, lo = sides["Hi20"], sides["Lo12I"]
            gap = (lo.offset - hi.offset) // 4 - 1
            if gap < 0:
                raise BuildError(f"HI/LO pair {pair_id} out of order")
            if gap > max_pair_gap:
                raise PairTooFar(
                    f"{fragment.name!r}: {gap} words between HI and LO "
                    f"(limit {max_pair_gap})")
            site_hi = base + hi.offset
            target = symbols[hi.target]
            delta = target - site_hi
            hi20 = ((delta + 0x800) >> 12) & 0xFFFFF
            lo12 = (delta & 0xFFF) - (delta & 0x800) * 2
            hi_index = hi.offset // 4
            lo_index = lo.offset // 4
            words[hi_index] = codec.encode(
                replace(fragment.insns[hi_index].insn, imm=hi20))
            words[lo_index] = codec.encode(
                replace(fragment.insns[lo_index].insn, imm=lo12))

        for reloc in fragment.relocations:
            if reloc.kind not in ("Branch", "Jal"):
                continue
            site = base + reloc.offset
            target = symbols[reloc.target]
            delta = target - site
            lo_bound, hi_bound = codec.BRANCH_REACH if reloc.kind == "Branch" else codec.JAL_REACH
            if not lo_bound <= delta <= hi_bound:
                raise RelocOutOfRange(
                    f"{fragment.name!r}+{reloc.offset:#x}: target {reloc.target!r} "
                    f"is {delta} bytes away, outside [{lo_bound}, {hi_bound}]")
            index = reloc.offset // 4
            words[index] = codec.encode(replace(fragment.insns[index].insn, imm=delta))

        offset = base - text_base
        for i, word in enumerate(words):
            text[offset + 4 * i:offset + 4 * i + 4] = word.to_bytes(4, "little")

        if tagged and fragment.insns:
            count = len(original.insns)
            groups = -(-count // config.coverage)
            regions.append(TagRegion(start=base, group_count=groups,
                                     coverage=config.coverage, carrier=config.carrier))
            label = tagplan.policy_label(config.policy)
            if label is not None:
                label_tag, kind = label
                for i, slot in enumerate(fragment.insns):
                    if slot.is_label and slot.tag == label_tag:
                        labels.append((base + 4 * i, kind))

    if program.data and text_base + len(text) > data_base:
        raise BuildError(
            f"text ({len(text)} bytes at {text_base:#x}) overruns data base "
            f"{data_base:#x}")
    entry_symbol = program.entry
    if entry_symbol not in layout.symbols:
        raise UndefinedSymbol(f"entry symbol {entry_symbol!r} is not defined")

    return Image(
        text_base=text_base,
        text=bytes(text),
        data_base=data_base,
        data=bytes(program.data),
        entry=layout.symbols[entry_symbol],
        tags_present=tagged,
        backward_compatible=(config.carrier.backward_compatible if tagged else True),
        policy=(config.policy if tagged and config is not None else "none"),
        tag_regions=tuple(regions),
        label_addrs=tuple(labels),
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
    flags = (1 if image.tags_present else 0)
    flags |= (1 if image.backward_compatible else 0) << 1
    flags |= _POLICY_CODES[image.policy] << 2
    blob += _HEADER.pack(MAGIC, VERSION, flags)
    blob += _U64.pack(image.entry)
    blob += _U64.pack(image.text_base)
    blob += _U32.pack(len(image.text))
    blob += image.text
    blob += _U64.pack(image.data_base)
    blob += _U32.pack(len(image.data))
    blob += image.data
    blob += _U32.pack(len(image.tag_regions))
    for region in image.tag_regions:
        blob += _REGION.pack(region.start, region.group_count,
                             region.coverage, _CARRIER_CODES[region.carrier], 0)
    with open(path, "wb") as handle:
        handle.write(blob)


class _Reader:
    def __init__(self, blob):
        self.blob = blob
        self.pos = 0

    def take(self, fmt: struct.Struct):
        end = self.pos + fmt.size
        if end > len(self.blob):
            raise FormatError("truncated image file")
        values = fmt.unpack_from(self.blob, self.pos)
        self.pos = end
        return values

    def bytes(self, count):
        end = self.pos + count
        if end > len(self.blob):
            raise FormatError("truncated image file")
        chunk = self.blob[self.pos:end]
        self.pos = end
        return bytes(chunk)


def read_image(path) -> Image:
    with open(path, "rb") as handle:
        blob = handle.read()
    reader = _Reader(blob)
    magic, version, flags = reader.take(_HEADER)
    if magic != MAGIC:
        raise FormatError(f"bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"unsupported version {version}")
    entry, = reader.take(_U64)
    text_base, = reader.take(_U64)
    text_len, = reader.take(_U32)
    text = reader.bytes(text_len)
    data_base, = reader.take(_U64)
    data_len, = reader.take(_U32)
    data = reader.bytes(data_len)
    region_count, = reader.take(_U32)
    regions = []
    for _ in range(region_count):
        start, group_count, coverage, carrier_code, _pad = reader.take(_REGION)
        if carrier_code not in _CARRIER_FROM_CODE:
            raise FormatError(f"unknown carrier code {carrier_code}")
        carrier = _CARRIER_FROM_CODE[carrier_code]
        if (carrier, coverage) not in codec.TAG_BITS:
            raise FormatError(f"region {start:#x}: {carrier.value} carrier has no "
                              f"coverage-{coverage} tag layout")
        if not text_base <= start < text_base + text_len:
            raise FormatError(f"region {start:#x} starts outside text "
                              f"[{text_base:#x}, {text_base + text_len:#x})")
        if start % tagplan.INSN_SIZE:
            raise FormatError(f"region {start:#x} is not word-aligned")
        if regions and start <= regions[-1].start:
            raise FormatError(f"region {start:#x} does not follow region "
                              f"{regions[-1].start:#x}")
        regions.append(TagRegion(start=start, group_count=group_count,
                                 coverage=coverage, carrier=carrier))
    policy = _POLICY_FROM_CODE.get((flags >> 2) & 0x3, "none")
    image = Image(
        text_base=text_base,
        text=text,
        data_base=data_base,
        data=data,
        entry=entry,
        tags_present=bool(flags & 1),
        backward_compatible=bool(flags & 2),
        policy=policy,
        tag_regions=tuple(regions),
    )
    return replace(image, label_addrs=scan_labels(image))


def scan_labels(image: Image) -> tuple:
    """Recover metadata-label addresses from a linked image.

    Labels are lui x0 words at non-carrier slots whose positional tag is
    the policy's label tag (CFL under cfi, CL under coverage).
    """
    label = tagplan.policy_label(image.policy)
    if label is None:
        return ()
    label_tag, kind = label

    def word_at(addr):
        offset = addr - image.text_base
        return int.from_bytes(image.text[offset:offset + 4], "little")

    found = []
    for region, carrier_addr, group_end in tagplan.carrier_groups(
            image.tag_regions, image.text_end):
        for addr in range(carrier_addr + 4, group_end, 4):
            word = word_at(addr)
            if word & 0x7F == codec.OP_LUI and (word >> 7) & 0x1F == 0:
                tags = codec.tag_reader(region.carrier, region.coverage)(word_at(carrier_addr))
                if tags[(addr - carrier_addr) // 4 - 1] == label_tag:
                    found.append((addr, kind))
    return tuple(found)
