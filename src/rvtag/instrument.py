"""Tagging API and policy passes.

set/get tags on instructions, replicate tags across pseudo-expansion
lineages, insert metadata labels (lui x0 payload words), and the three
shipped policies: control-flow labels, unsigned-arithmetic checks, and
coverage tracking.

insert_labels adds all of a fragment's labels in one pass, moving each
local branch and relocation once; insert_label is its one-label form.  The
cfi and coverage passes call it once per fragment, so they run in linear time.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from .codec import ADDSUB_MNEMONICS, TRANSFER_MNEMONICS, Insn
from .errors import BuildError
from .frontend import Fragment, Program, TaggedInsn
from .tagplan import TagConfig


class UnknownTag(BuildError):
    """Tag name or value not declared in the active configuration."""


class InvalidRef(BuildError):
    """Instruction reference does not name an instruction."""


class LabelOverflow(BuildError):
    """Label payload does not fit the 20-bit immediate."""


class MissingSignature(BuildError):
    """A function or call site that needs a control-flow label has no
    signature annotation."""


class ConfigMismatch(BuildError):
    """The policy pass is incompatible with the tag configuration."""


# ---------------------------------------------------------------------------
# Tagging API

def _resolve_ref(program: Program, insn_ref) -> TaggedInsn:
    try:
        frag_index, insn_index = insn_ref
        fragment = program.fragments[frag_index]
        if insn_index < 0:
            raise IndexError(insn_index)
        return fragment.insns[insn_index]
    except (TypeError, ValueError, IndexError):
        raise InvalidRef(f"no instruction at {insn_ref!r}") from None


def _resolve_tag(config: TagConfig, tag) -> int:
    if isinstance(tag, str):
        value = config.value_of(tag)
        if value is None:
            raise UnknownTag(f"tag {tag!r} is not declared")
        return value
    if tag not in config.tag_values:
        raise UnknownTag(f"tag value {tag} is not declared")
    return tag


def set_tag(program: Program, insn_ref, tag, config: TagConfig) -> None:
    """Assign a declared tag to one instruction.

    The first assignment seen for a pseudo-expansion lineage is recorded so
    propagate_lineage can replicate it across the whole expansion.
    """
    insn = _resolve_ref(program, insn_ref)
    value = _resolve_tag(config, tag)
    insn.tag = value
    if insn.lineage is not None and insn.lineage not in program.lineage_first_tag:
        program.lineage_first_tag[insn.lineage] = value


def get_tag(program: Program, insn_ref, config: TagConfig) -> int:
    """Current tag of an instruction; untouched instructions report the
    configured default."""
    insn = _resolve_ref(program, insn_ref)
    return config.default_tag if insn.tag is None else insn.tag


def propagate_lineage(program: Program) -> Program:
    """Replicate each lineage's first-assigned tag onto every member."""
    if not program.lineage_first_tag:
        return program
    for fragment in program.fragments:
        for insn in fragment.insns:
            if insn.lineage in program.lineage_first_tag:
                insn.tag = program.lineage_first_tag[insn.lineage]
    return program


# ---------------------------------------------------------------------------
# Label insertion

def insert_labels(program: Program, frag_index: int, labels) -> Program:
    """Insert lui x0 metadata labels into one fragment in a single pass.

    labels holds (insn index, label value, tag) triples, indexes taken in
    the fragment as it is; a label goes in ahead of the instruction at its
    index, and labels at one index keep their given order.  Every value and
    position is checked before anything changes.  A local branch at site s
    moves to s + #labels at <= s and its target t to t + #labels at < t, so
    a branch to an insertion point lands on the outermost label there; a
    relocation moves with its instruction.
    """
    labels = list(labels)
    for _, value, _ in labels:
        if not 0 <= value < (1 << 20):
            raise LabelOverflow(f"label value {value:#x} does not fit 20 bits")
    try:
        fragment = program.fragments[frag_index]
    except (TypeError, IndexError):
        raise InvalidRef(f"no fragment at index {frag_index!r}") from None
    ahead = {}  # insn index -> labels inserted ahead of it, outermost first
    for insn_index, value, tag in labels:
        if not 0 <= insn_index <= len(fragment.insns):
            raise InvalidRef(f"index {insn_index} outside fragment {fragment.name!r}")
        ahead.setdefault(insn_index, []).append(TaggedInsn(
            insn=Insn("lui", rd=0, imm=value), tag=tag, is_label=True))
    points = sorted(4 * index for index, _, _ in labels)
    relocated = fragment.reloc_offsets()
    insns = []
    for index, tagged in enumerate(fragment.insns):
        insns += ahead.get(index, ())
        insn = tagged.insn
        if insn.mnemonic in TRANSFER_MNEMONICS and 4 * index not in relocated:
            target = 4 * index + insn.imm
            tagged.insn = Insn(insn.mnemonic, rd=insn.rd, rs1=insn.rs1, rs2=insn.rs2,
                               imm=target + 4 * bisect_left(points, target) - 4 * len(insns))
        insns.append(tagged)
    insns += ahead.get(len(fragment.insns), ())
    fragment.insns[:] = insns
    for reloc in fragment.relocations:
        reloc.offset += 4 * bisect_right(points, reloc.offset)
    return program


def insert_label(program: Program, position, value: int, tag) -> Program:
    """Insert one lui x0 metadata label at position (fragment index,
    instruction index): insert_labels with a single label, so a branch to
    the insertion point now lands on the label, which leads its block."""
    try:
        frag_index, insn_index = position
    except (TypeError, ValueError):
        frag_index, insn_index = None, 0  # insert_labels: InvalidRef after the value check
    return insert_labels(program, frag_index, [(insn_index, value, tag)])


# ---------------------------------------------------------------------------
# Control-flow label policy

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x00000100000001B3


def cfi_label_value(signature: str) -> int:
    """20-bit label from a signature string: 64-bit FNV-1a xor-folded; zero
    is reserved as invalid and remaps to 1."""
    digest = FNV_OFFSET
    for byte in signature.encode("utf-8"):
        digest = ((digest ^ byte) * FNV_PRIME) & 0xFFFFFFFFFFFFFFFF
    folded = (digest ^ (digest >> 20) ^ (digest >> 40) ^ (digest >> 60)) & 0xFFFFF
    return folded or 1


def lo12_relocations(fragment: Fragment) -> dict:
    """Byte offset -> the first Lo12I relocation at that offset."""
    return {r.offset: r for r in reversed(fragment.relocations) if r.kind == "Lo12I"}


def is_computed_call(fragment: Fragment, index: int, lo12: dict) -> bool:
    """A jalr with no Lo12I relocation in lo12, excluding the plain return form."""
    insn = fragment.insns[index].insn
    if insn.mnemonic != "jalr" or 4 * index in lo12:
        return False
    return not (insn.rd == 0 and insn.rs1 == 1)  # ret: backward edges are not checked


def pass_cfi(program: Program, config: TagConfig, label_direct_calls: bool = False) -> Program:
    """Label non-internal function entries and computed call sites.

    Entry labels carry the hash of the function's signature; call-site
    labels carry the hash of the annotated call type.  With
    label_direct_calls, direct auipc/jalr pairs also receive the callee's
    label between the two instructions.
    """
    if config.policy != "cfi":
        raise ConfigMismatch(f"pass_cfi needs policy=cfi, config says {config.policy!r}")
    cfl = _resolve_tag(config, "CFL")
    signatures = {f.name: f.signature for f in program.fragments}

    for frag_index, fragment in enumerate(program.fragments):
        labels = []  # (insn index, label value, tag), entry label first
        lo12 = lo12_relocations(fragment)
        for index, tagged in enumerate(fragment.insns):
            lo = lo12.get(4 * index)
            if is_computed_call(fragment, index, lo12):
                if tagged.calltype is None:
                    raise MissingSignature(
                        f"computed call at {fragment.name}+{4 * index:#x} "
                        f"has no .calltype annotation")
                value = cfi_label_value(tagged.calltype)
            elif label_direct_calls and lo is not None and tagged.insn.mnemonic == "jalr":
                callee_sig = signatures.get(lo.target)
                if callee_sig is None:
                    raise MissingSignature(
                        f"direct call to {lo.target!r} in {fragment.name!r}: "
                        f"callee has no .signature")
                value = cfi_label_value(callee_sig)
            else:
                continue
            # The checked transfer itself carries CFL so the enforcement side
            # can tell labelled call sites from plain jalr forms.
            tagged.tag = cfl
            if index and fragment.insns[index - 1].is_label \
                    and fragment.insns[index - 1].tag == cfl:
                continue  # already labelled (idempotence)
            labels.append((index, value, cfl))

        first = fragment.insns[0] if fragment.insns else None
        if (fragment.exported or fragment.address_taken) and not fragment.internal \
                and not (first is not None and first.is_label and first.tag == cfl):
            if fragment.signature is None:
                raise MissingSignature(
                    f"non-internal function {fragment.name!r} has no .signature")
            # outermost: ahead of a call-site label at index 0
            labels.insert(0, (0, cfi_label_value(fragment.signature), cfl))
        insert_labels(program, frag_index, labels)
    return program


# ---------------------------------------------------------------------------
# Unsigned-arithmetic policy

def pass_unarith(program: Program, config: TagConfig) -> Program:
    """Tag !unsigned add/sub forms for overflow checking; !optout wins."""
    if config.policy != "unarith":
        raise ConfigMismatch(
            f"pass_unarith needs policy=unarith, config says {config.policy!r}")
    un_arth = _resolve_tag(config, "UN_ARTH")
    for fragment in program.fragments:
        for tagged in fragment.insns:
            if tagged.insn.mnemonic not in ADDSUB_MNEMONICS:
                continue
            if "unsigned" in tagged.annotations and "optout" not in tagged.annotations:
                tagged.tag = un_arth
    return program


# ---------------------------------------------------------------------------
# Coverage policy

def _block_leaders(fragment: Fragment) -> set:
    """Instruction indexes that begin a basic block."""
    leaders = {0}
    relocated = fragment.reloc_offsets()
    for index, tagged in enumerate(fragment.insns):
        mnemonic = tagged.insn.mnemonic
        if mnemonic in TRANSFER_MNEMONICS or mnemonic == "jalr":
            leaders.add(index + 1)
            if mnemonic != "jalr" and 4 * index not in relocated:
                leaders.add((4 * index + tagged.insn.imm) // 4)
    # the fragment's end, or a target outside it, starts no block in it
    return leaders.intersection(range(len(fragment.insns)))


def pass_coverage(program: Program, config: TagConfig, mode: str = "all_branches") -> Program:
    """Insert counting labels at block leaders and tag control flow.

    Needs the coverage-7 two-bit layout; CL labels start at zero and are
    incremented in place by the tag-aware emulator.
    """
    if config.policy != "coverage":
        raise ConfigMismatch(
            f"pass_coverage needs policy=coverage, config says {config.policy!r}")
    if config.coverage != 7:
        raise ConfigMismatch(
            f"coverage tracking needs coverage=7, config says {config.coverage}")
    if mode not in ("all_branches", "computed_only"):
        raise ConfigMismatch(f"unknown coverage mode {mode!r}")
    cl = _resolve_tag(config, "CL")
    ci = _resolve_tag(config, "CI")
    bcf = _resolve_tag(config, "BCF")

    for frag_index, fragment in enumerate(program.fragments):
        insert_labels(program, frag_index, [
            (index, 0, cl) for index in _block_leaders(fragment)
            # rerun: a leader that is already a CL label is counted once
            if not (fragment.insns[index].is_label and fragment.insns[index].tag == cl)])
        lo12 = lo12_relocations(fragment)
        for index, tagged in enumerate(fragment.insns):
            mnemonic = tagged.insn.mnemonic
            if "count" in tagged.annotations and not tagged.is_label:
                tagged.tag = ci
                continue
            if mnemonic in TRANSFER_MNEMONICS:
                if mode == "all_branches":
                    tagged.tag = bcf
            elif mnemonic == "jalr":
                computed = 4 * index not in lo12
                if mode == "all_branches" or computed:
                    tagged.tag = bcf
    return program
