"""Command-line surface: assemble | build | link | run | diff-run | enforce | report.

`enforce IMAGE` is `run --mode aware IMAGE`: one parser entry, one body.
The commands raise their errors, and main is the one place that turns each
class into its `rvtag: ...` line on stderr and its exit code: 0 success,
1 usage, 2 build, image or run error, 3 policy violation, 4 equivalence
failure.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from pathlib import Path

from . import codec, corpus, emitlink, emulator, pipeline, tagplan
from .emulator import BadInstruction, LimitExceeded, PolicyViolation
from .errors import BuildError, RvtagError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUILD = 2
EXIT_POLICY = 3
EXIT_EQUIV = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class CliError(RvtagError):
    pass


def _positive(text: str) -> int:
    """argparse type of a count that must be at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


class EquivalenceFailure(RvtagError):
    """Baseline and tagged runs diverged; message names the first cell."""


def _parse_defsyms(items):
    table = {}
    for item in items or []:
        name, sep, value = item.partition("=")
        if not sep:
            raise CliError(f"--defsym expects name=value, got {item!r}")
        try:
            table[name] = int(value, 0)
        except ValueError:
            raise CliError(f"--defsym {name}: {value!r} is not an integer") from None
    return table


def _load_config(args):
    path = getattr(args, "config", None) or os.environ.get("RVTAG_CONFIG")
    if not path:
        raise CliError("no tag configuration: pass --config or set RVTAG_CONFIG")
    return tagplan.load_config(path)


def _read_sources(paths):
    sources = []
    for path in paths:
        with open(path, "r", encoding="utf-8") as handle:
            try:
                sources.append(handle.read())
            except UnicodeDecodeError as exc:
                raise BuildError(f"cannot read source {path}: {exc}") from None
    return sources


def _emit_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# assemble

def cmd_assemble(args) -> int:
    defsym = _parse_defsyms(args.defsym)
    program = pipeline.assemble_sources(_read_sources(args.inputs), defsym=defsym,
                                        filenames=args.inputs)
    summary = {
        "entry": program.entry,
        "fragments": [{"name": frag.name, "instructions": len(frag.insns),
                       "relocations": len(frag.relocations), "exported": frag.exported,
                       "internal": frag.internal, "signature": frag.signature}
                      for frag in program.fragments],
        "data_bytes": len(program.data),
        "data_symbols": dict(sorted(program.data_symbols.items())),
    }
    if args.json:
        sys.stdout.write(_emit_json(summary))
    else:
        print(f"entry: {program.entry}")
        for frag in summary["fragments"]:
            marks = "".join(
                m for m, on in (("G", frag["exported"]), ("I", frag["internal"])) if on)
            print(f"  {frag['name']:24} {frag['instructions']:5} insns "
                  f"{frag['relocations']:3} relocs {marks}")
        print(f"data: {len(program.data)} bytes, {len(program.data_symbols)} symbols")
    return EXIT_OK


# ---------------------------------------------------------------------------
# link / build

def cmd_link(args) -> int:
    config = _load_config(args)
    defsym = _parse_defsyms(args.defsym)
    image = pipeline.build_image(
        _read_sources(args.inputs), config, tagged=not args.no_tags, defsym=defsym,
        cfi_label_direct_calls=args.cfi_label_direct_calls,
        coverage_mode=args.coverage_mode, filenames=args.inputs)
    emitlink.write_image(image, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_build(args) -> int:
    config = _load_config(args)
    defsym = _parse_defsyms(args.defsym)
    variants = pipeline.build_variants(
        _read_sources(args.inputs), config, defsym=defsym,
        cfi_label_direct_calls=args.cfi_label_direct_calls,
        coverage_mode=args.coverage_mode, filenames=args.inputs)
    out = Path(args.out)
    _, baseline = next(variants)
    baseline_path = out.with_suffix(".base.rvti")
    emitlink.write_image(baseline, baseline_path)
    rows = [(str(baseline_path), len(baseline.text), None)]
    images = dict(variants)  # none is written unless the tagged build succeeds
    for kind, path in (("tagged", out), ("nolabels", out.with_suffix(".nolabels.rvti"))):
        if kind in images:
            emitlink.write_image(images[kind], path)
            size = len(images[kind].text)
            rows.append((str(path), size, _pct(len(baseline.text), size)))

    if args.json:
        sys.stdout.write(_emit_json([
            {"image": name, "text_bytes": size, "growth_pct": growth or 0.0}
            for name, size, growth in rows]))
    else:
        print(f"{'image':40} {'text bytes':>10} {'growth':>8}")
        for name, size, growth in rows:
            cell = f"{growth:7.2f}%" if growth is not None else "       -"
            print(f"{name:40} {size:>10} {cell}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# run (enforce is run --mode aware)

def _write_coverage(path, labels, state, policy_state) -> None:
    """Write a run's CL counts (read from its final text at the CL labels
    among `labels`, the image's label_addrs), CI counts and BCF edges to
    `path` as JSON."""
    payload = {
        "cl": [{"addr": addr, "count": (state.memory.read(addr, 4) >> 12) & 0xFFFFF}
               for addr, kind in labels if kind == "cl"],
        "ci": {hex(pc): count for pc, count in sorted(policy_state.ci_counts.items())},
        "bcf": {
            hex(pc): {hex(target): count for target, count in sorted(targets.items())}
            for pc, targets in sorted(policy_state.bcf.items())
        },
    }
    emitlink.replace_file(path, _emit_json(payload).encode("utf-8"))


def cmd_run(args) -> int:
    image = emitlink.read_image(args.image)
    # the coverage map needs the labels: read them first, so that a malformed
    # carrier fails before the run prints anything
    labels = image.label_addrs if args.dump_coverage else ()
    state, counters, policy_state = emulator.run(image, mode=args.mode,
                                                 max_insns=args.max_insns)
    print(f"exit={state.exit_code} reason={state.stop_reason} "
          f"retired={counters.retired} tag_fetches={counters.tag_fetches} "
          f"labels={counters.labels_seen}")
    if state.stdout:
        sys.stdout.buffer.write(bytes(state.stdout))
        sys.stdout.write("\n")
    if args.dump_coverage:
        _write_coverage(args.dump_coverage, labels, state, policy_state)
        print(f"coverage written to {args.dump_coverage}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# diff-run

REPORT_SCHEMA = "rvtag-report-v1"


def _pct(baseline: int, tagged: int) -> float:
    if baseline == 0:
        return 0.0
    return (tagged - baseline) * 100.0 / baseline


def report(counters_baseline, counters_tagged, sizes) -> dict:
    """The rvtag-report-v1 row: dynamic and static overhead of a tagged
    run and build over the untagged baseline; sizes are their text bytes."""
    baseline_bytes, tagged_bytes = sizes
    return {
        "schema": REPORT_SCHEMA,
        "baseline_dynamic": counters_baseline.total,
        "tagged_dynamic": counters_tagged.total,
        "dynamic_overhead_pct": _pct(counters_baseline.total, counters_tagged.total),
        "baseline_text_bytes": baseline_bytes,
        "tagged_text_bytes": tagged_bytes,
        "static_overhead_pct": _pct(baseline_bytes, tagged_bytes),
        "tagged_labels_seen": counters_tagged.labels_seen,
    }


def compare_states(base, tagged, data_base=None) -> str | None:
    """First architectural divergence between two final states, or None.

    Memory is compared over Memory.segments[:2], data and stack.  data_base
    is ignored; only bench/run.py still passes it."""
    for i in range(1, 32):
        if base.regs[i] != tagged.regs[i]:
            return f"x{i}: baseline {base.regs[i]:#x} != tagged {tagged.regs[i]:#x}"
    if base.exit_code != tagged.exit_code:
        return f"exit code: {base.exit_code} != {tagged.exit_code}"
    if base.stop_reason != tagged.stop_reason:
        return f"stop reason: {base.stop_reason!r} != {tagged.stop_reason!r}"
    if bytes(base.stdout) != bytes(tagged.stdout):
        return "stdout streams differ"
    for (addr, a), (_, b) in zip(base.memory.segments[:2], tagged.memory.segments[:2]):
        if len(a) != len(b):
            return f"memory segment at {addr:#x}: {len(a)} != {len(b)} bytes"
        if a != b:
            i = next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)
            return f"memory[{addr + i:#x}]: baseline {a[i]:#x} != tagged {b[i]:#x}"
    return None


_NOLABEL_KEYS = ("tagged_dynamic", "dynamic_overhead_pct",
                 "tagged_text_bytes", "static_overhead_pct")


def diff_one(name, sources, config, *, defsym=None, max_insns,
             cfi_label_direct_calls=False, filenames=None) -> dict:
    """Build one program's variants from one assembly, run each, and compare
    each tagged run with the baseline run.

    The row is the tagged build's report; under cfi the labels-off build's
    figures ride along as nolabel_* keys, so the label cost shows up
    separately.  `filenames` names the sources in build errors, as in
    pipeline.assemble_sources.
    """
    variants = pipeline.build_variants(sources, config, defsym=defsym,
                                       cfi_label_direct_calls=cfi_label_direct_calls,
                                       filenames=filenames)
    _, baseline = next(variants)
    base_state, base_counters, _ = emulator.run(baseline, mode="compat", max_insns=max_insns)
    images = dict(variants)
    result = {"program": name}
    for kind in ("tagged", "nolabels"):
        if kind not in images:
            continue
        state, counters, _ = emulator.run(images[kind], mode="compat", max_insns=max_insns)
        divergence = compare_states(base_state, state)
        if divergence is not None:
            raise EquivalenceFailure(f"{name}: {divergence}")
        row = report(base_counters, counters, (len(baseline.text), len(images[kind].text)))
        if kind == "tagged":
            result.update(row)
        else:
            result.update((f"nolabel_{key}", row[key]) for key in _NOLABEL_KEYS)
    return result


def cmd_diff_run(args) -> int:
    if args.seed is not None and not args.generate:
        raise CliError("--seed seeds the generated corpus: pass --generate N too")
    config = _load_config(args)
    defsym = _parse_defsyms(args.defsym)
    programs = []
    if args.generate:
        seed = args.seed if args.seed is not None else random.randrange(1 << 30)
        print(f"corpus seed: {seed}", file=sys.stderr if args.json else sys.stdout)
        for i, text in enumerate(corpus.generate_corpus(seed, args.generate)):
            programs.append((f"gen-{seed}-{i}", [text], None))
    for path, text in zip(args.inputs, _read_sources(args.inputs)):
        programs.append((path, [text], [path]))
    if not programs:
        raise CliError("nothing to run: pass inputs or --generate N")

    results = [diff_one(name, sources, config, defsym=defsym, max_insns=args.max_insns,
                        cfi_label_direct_calls=args.cfi_label_direct_calls,
                        filenames=filenames)
               for name, sources, filenames in programs]

    total_base = sum(r["baseline_dynamic"] for r in results)
    total_tagged = sum(r["tagged_dynamic"] for r in results)
    aggregate = {
        "programs": len(results),
        "baseline_dynamic": total_base,
        "tagged_dynamic": total_tagged,
        "dynamic_overhead_pct": _pct(total_base, total_tagged),
    }
    if args.json:
        sys.stdout.write(_emit_json({"schema": REPORT_SCHEMA,
                                     "results": results, "aggregate": aggregate}))
    else:
        _print_overheads(results, aggregate)
        print(f"equivalence: {len(results)}/{len(results)} programs identical")
    return EXIT_OK


def _print_overheads(results, aggregate) -> None:
    """The dynamic-overhead table of diff-run and report: one row per
    program, the aggregate row when there is one, and a labels-off column
    when any row has a labels-off figure."""
    nolabels = any("nolabel_dynamic_overhead_pct" in r for r in results)
    extra = f" {'no labels':>10}" if nolabels else ""
    print(f"{'program':28} {'baseline':>9} {'tagged':>9} {'overhead':>9}{extra}")
    for r in results:
        row = (f"{r['program']:28} {r['baseline_dynamic']:>9} "
               f"{r['tagged_dynamic']:>9} {r['dynamic_overhead_pct']:>8.2f}%")
        if "nolabel_dynamic_overhead_pct" in r:
            row += f" {r['nolabel_dynamic_overhead_pct']:>9.2f}%"
        print(row)
    if aggregate:
        print(f"{'aggregate':28} {aggregate['baseline_dynamic']:>9} "
              f"{aggregate['tagged_dynamic']:>9} "
              f"{aggregate['dynamic_overhead_pct']:>8.2f}%")


# ---------------------------------------------------------------------------
# report

_REPORT_NUMBERS = ("baseline_dynamic", "tagged_dynamic", "dynamic_overhead_pct")


def _is_report_row(row, named=True) -> bool:
    """Whether _print_overheads can render `row`; the aggregate row is not
    named, and a labels-off figure is optional."""
    return (isinstance(row, dict) and (not named or isinstance(row.get("program"), str))
            and all(type(row.get(key)) in (int, float) for key in _REPORT_NUMBERS)
            and type(row.get("nolabel_dynamic_overhead_pct", 0.0)) in (int, float))


def cmd_report(args) -> int:
    try:
        with open(args.report, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CliError(f"{args.report}: not a JSON report: {exc}") from None
    if not isinstance(payload, dict):
        raise CliError(f"{args.report}: not a JSON report: the top level is not an object")
    schema = payload.get("schema")
    if schema != REPORT_SCHEMA:
        raise CliError(f"unknown report schema {schema!r}")
    results, aggregate = payload.get("results", []), payload.get("aggregate")
    if not isinstance(results, list) or not all(map(_is_report_row, results)):
        raise CliError(f"{args.report}: not a JSON report: results is not a list of rows")
    if aggregate is not None and not _is_report_row(aggregate, named=False):
        raise CliError(f"{args.report}: not a JSON report: aggregate is not a row")
    if args.json:
        sys.stdout.write(_emit_json(payload))
        return EXIT_OK
    _print_overheads(results, aggregate)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

def _add_build_flags(parser):
    parser.add_argument("--config", help="tag configuration file "
                                         "(default: $RVTAG_CONFIG)")
    parser.add_argument("--defsym", action="append", metavar="NAME=VALUE",
                        help="numeric symbol override (repeatable)")
    parser.add_argument("--cfi-label-direct-calls", action="store_true",
                        help="also label direct auipc/jalr call sites")
    parser.add_argument("--coverage-mode", choices=("all_branches", "computed_only"),
                        default="all_branches")


def build_parser() -> _Parser:
    parser = _Parser(prog="rvtag",
                     description="RISC-V instruction tagging toolchain")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assemble", help="assemble sources and print a summary")
    p.add_argument("inputs", nargs="+")
    p.add_argument("--defsym", action="append", metavar="NAME=VALUE")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_assemble)

    p = sub.add_parser("link", help="assemble and link one image")
    _add_build_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--no-tags", action="store_true",
                   help="produce an untagged baseline image")
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=cmd_link)

    p = sub.add_parser("build", help="build baseline and tagged images")
    _add_build_flags(p)
    p.add_argument("--out", required=True, help="tagged image path")
    p.add_argument("--json", action="store_true")
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("run", help="execute an image")
    p.add_argument("image")
    p.add_argument("--mode", choices=("compat", "aware"), default="compat")
    p.add_argument("--max-insns", type=_positive, default=10 ** 8)
    p.add_argument("--dump-coverage", metavar="OUT.json")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("diff-run",
                       help="compare untagged baseline and tagged compat runs")
    p.add_argument("inputs", nargs="*")
    p.add_argument("--config")
    p.add_argument("--defsym", action="append", metavar="NAME=VALUE")
    p.add_argument("--generate", type=_positive, metavar="N",
                   help="also test N generated corpus programs")
    p.add_argument("--seed", type=int)
    p.add_argument("--max-insns", type=_positive, default=10 ** 8)
    p.add_argument("--cfi-label-direct-calls", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_diff_run)

    p = sub.add_parser("enforce", help="run tag-aware: run --mode aware")
    p.add_argument("image")
    p.add_argument("--max-insns", type=_positive, default=10 ** 8)
    p.add_argument("--dump-coverage", metavar="OUT.json")
    p.set_defaults(func=cmd_run, mode="aware")

    p = sub.add_parser("report", help="validate and render a JSON report")
    p.add_argument("report")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BadInstruction, LimitExceeded) as exc:
        print(f"rvtag: run failed: {exc}", file=sys.stderr)
        return EXIT_BUILD
    except PolicyViolation as exc:
        print(f"rvtag: policy violation: {exc}", file=sys.stderr)
        return EXIT_POLICY
    except EquivalenceFailure as exc:
        print(f"rvtag: equivalence failure: {exc}", file=sys.stderr)
        return EXIT_EQUIV
    except CliError as exc:
        print(f"rvtag: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (emitlink.FormatError, codec.NotACarrier) as exc:
        print(f"rvtag: image error: {exc}", file=sys.stderr)
        return EXIT_BUILD
    except RvtagError as exc:
        print(f"rvtag: build error: {exc}", file=sys.stderr)
        return EXIT_BUILD
    except OSError as exc:
        print(f"rvtag: {exc}", file=sys.stderr)
        return EXIT_BUILD


if __name__ == "__main__":
    sys.exit(main())
