"""Assemble -> instrument -> link orchestration shared by the CLI, demos,
and tests."""

from __future__ import annotations

from . import emitlink, frontend, instrument
from .emitlink import Image
from .frontend import Program
from .tagplan import TagConfig


def assemble_sources(sources, defsym=None, filenames=None) -> Program:
    """Assemble one or more source texts into a single link unit, in one
    pass; errors name each text by its `filenames` entry, else `<input i>`."""
    if isinstance(sources, str):
        sources = [sources]
    if filenames is None:
        filenames = [f"<input {i}>" for i in range(len(sources))]
    return frontend.assemble_unit(zip(sources, map(str, filenames)), defsym)


def apply_policy(program: Program, config: TagConfig, *,
                 with_labels=True, cfi_label_direct_calls=False,
                 coverage_mode="all_branches") -> Program:
    """Propagate lineage tags, then run the configured policy pass, in place.
    The pass runs last, so a set_tag on a pseudo-instruction cannot overwrite
    its tags.  with_labels=False skips the cfi pass: the labels-off build."""
    instrument.propagate_lineage(program)
    if config.policy == "cfi" and with_labels:
        instrument.pass_cfi(program, config, label_direct_calls=cfi_label_direct_calls)
    elif config.policy == "unarith":
        instrument.pass_unarith(program, config)
    elif config.policy == "coverage":
        instrument.pass_coverage(program, config, mode=coverage_mode)
    return program


def build_image(sources, config: TagConfig, *, tagged=True, with_labels=True,
                defsym=None, cfi_label_direct_calls=False,
                coverage_mode="all_branches", filenames=None) -> Image:
    """Source text(s) to a linked image.

    Baseline builds (tagged=False) skip the policy passes entirely so they
    stay byte-comparable with an untouched assembly of the same source.
    """
    program = assemble_sources(sources, defsym=defsym, filenames=filenames)
    if tagged:
        apply_policy(program, config, with_labels=with_labels,
                     cfi_label_direct_calls=cfi_label_direct_calls,
                     coverage_mode=coverage_mode)
    return emitlink.link(program, config, tagged=tagged)


def build_variants(sources, config: TagConfig, *, defsym=None, cfi_label_direct_calls=False,
                   coverage_mode="all_branches", filenames=None):
    """Assemble once and yield (kind, image): "baseline" (untagged), then under
    cfi "nolabels" (tagged, no pass run), then "tagged".

    link does not modify its program and the passes run after the earlier
    links, so one assembly serves every image, each equal to its build_image
    call.  The generator is lazy: a caller that stops after the baseline
    runs no pass.
    """
    program = assemble_sources(sources, defsym=defsym, filenames=filenames)
    yield "baseline", emitlink.link(program, config, tagged=False)
    if config.policy == "cfi":
        yield "nolabels", emitlink.link(apply_policy(program, config, with_labels=False), config)
    apply_policy(program, config, cfi_label_direct_calls=cfi_label_direct_calls,
                 coverage_mode=coverage_mode)
    yield "tagged", emitlink.link(program, config)
