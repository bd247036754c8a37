#!/usr/bin/env python3
"""Layered benchmark of the rvtag toolchain.

    python3 bench/run.py --workload kernel|corpus|large_unit --seed N \\
        [--seconds S] [--trace 0|1]
    python3 bench/run.py --smoke          # every workload at minimum size

One workload runs in this process and thread. Set-up makes the inputs from
the seed and builds reference images with `pipeline.build_image`; then
passes of the workload's fixed work repeat until --seconds have gone. Each
pass builds, runs and checks every image through the layers' public
functions, writing each tagged image and reading it back first. The first pass is a warm-up and is not counted.
With --trace 1, traced and untraced passes alternate and the per-layer
figures come from the traced ones. Times are reference seconds (timing.py).

Prints a metric table, writes bench/out/<workload>-seed<N>-trace<T>.json
(and the spans of a traced run), and ends with one JSON line holding
correct, attempted, failed and metrics. bench/README.md explains the
workloads and metrics.
"""

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import timing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("kernel", "corpus", "large_unit")
SETUP_REPEATS = 5
MAX_INSNS = 10 ** 8
AWARE_POLICIES = ("none", "cfi", "unarith", "coverage")

# Full and smoke sizes: kernel loop iterations, corpus programs, large-unit
# functions (each called workloads.LARGE_CALLS_PER_FUNCTION times).
SIZES = {
    "kernel": (1500, 50),
    "corpus": (200, 35),
    "large_unit": (150, 4),
}


class CheckFailed(Exception):
    """An output of the toolchain differs from what the benchmark expects."""


@dataclass(frozen=True)
class Cell:
    """One build configuration; carrier None is the untagged baseline."""

    carrier: str | None
    coverage: int = 3
    policy: str = "none"
    labels: bool = True
    direct_calls: bool = False
    compat: bool = True
    aware: bool = True

    @property
    def name(self) -> str:
        if self.carrier is None:
            return "untagged"
        return (f"{self.carrier}{self.coverage}.{self.policy}"
                + ("" if self.labels else ".nolabels"))


BASELINE = Cell(None, aware=False)

KERNEL_CELLS = (
    BASELINE,
    Cell("lui", 3, "none"),
    Cell("lui", 3, "cfi", compat=False),
    Cell("lui", 3, "unarith", compat=False),
    Cell("lui", 7, "coverage", compat=False),
)

LARGE_CELLS = (
    BASELINE,
    Cell("lui", 3, "none"),
    Cell("lui", 3, "unarith", compat=False),
    Cell("lui", 3, "cfi", direct_calls=True, compat=False),
    Cell("lui", 7, "coverage", compat=False),
)


@dataclass
class Job:
    """One source and the cells it is verified under. A split job makes one
    unit per cell, sharing the baseline; otherwise the job is one unit."""

    name: str
    source: str
    lines: int
    a0: int | None
    cells: tuple
    split: bool


def corpus_cells(rvtag) -> list:
    """Every (carrier, coverage, policy) cell the corpus can be built under.

    make_config accepts the coverage policy at any N, but pass_coverage
    needs N=7, so the other N are left out here.
    """
    codec, tagplan = rvtag.codec, rvtag.tagplan
    cells = []
    for carrier, coverage in sorted(codec.TAG_BITS, key=lambda k: (k[0].value, k[1])):
        for policy in tagplan.POLICIES:
            if policy == "coverage" and coverage != 7:
                continue
            try:
                tagplan.make_config(carrier=carrier.value, coverage=coverage, policy=policy)
            except tagplan.ConfigError:
                continue
            cells.append(Cell(carrier.value, coverage, policy,
                              compat=carrier.value != "custom"))
    return cells


def corpus_job_cells(cell: Cell) -> tuple:
    """A corpus program's path: the baseline, its cell and, under cfi, the
    label-free build that `build` and `diff-run` add."""
    if cell.policy != "cfi":
        return (BASELINE, cell)
    nolabels = Cell(cell.carrier, cell.coverage, "cfi", labels=False,
                    compat=cell.compat, aware=False)
    return (BASELINE, cell, nolabels)


def insn_count(program) -> int:
    return sum(len(fragment.insns) for fragment in program.fragments)


class Bench:
    """Drives the layers for one workload and keeps per-pass measurements."""

    def __init__(self, rvtag, recorder: timing.Recorder, work_dir: Path):
        self.rv = rvtag
        self.rec = recorder
        self.work_dir = work_dir
        self.configs = {}
        self.references = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.reset_pass()

    def reset_pass(self):
        self.counts = Counter()
        self.units = []
        self.overhead = Counter()

    def config(self, cell: Cell):
        if cell not in self.configs:
            self.configs[cell] = self.rv.tagplan.make_config(
                carrier=cell.carrier or "lui", coverage=cell.coverage, policy=cell.policy)
        return self.configs[cell]

    # -- set-up ---------------------------------------------------------------
    def make_jobs(self, workload: str, seed: int, size: int) -> list:
        rng = random.Random(seed)
        if workload == "kernel":
            source, a0 = workloads.kernel(rng, size)
            return [Job("kernel", source, workloads.source_lines(source), a0,
                        KERNEL_CELLS, split=True)]
        if workload == "large_unit":
            source, a0 = workloads.large_unit(rng, size)
            return [Job("large_unit", source, workloads.source_lines(source), a0,
                        LARGE_CELLS, split=True)]
        texts = self.rec.call("corpus.generate", self.rv.corpus.generate_corpus, seed, size)
        cells = corpus_cells(self.rv)
        return [Job(f"p{i}", text, workloads.source_lines(text), None,
                    corpus_job_cells(cells[i % len(cells)]), split=False)
                for i, text in enumerate(texts)]

    def build_references(self, jobs) -> dict:
        """pipeline.build_image output for the first job of every cell; the
        passes check that their layer-by-layer builds match it byte for byte."""
        references = {}
        seen = set()
        for job in jobs:
            for cell in job.cells:
                if cell in seen:
                    continue
                seen.add(cell)
                references[job.name, cell] = self.rec.call(
                    "pipeline.build_image", self.rv.pipeline.build_image,
                    job.source, self.config(cell), tagged=cell.carrier is not None,
                    with_labels=cell.labels, cfi_label_direct_calls=cell.direct_calls)
        return references

    # -- one verified unit ---------------------------------------------------
    def build(self, job: Job, cell: Cell):
        rec, rv, config = self.rec, self.rv, self.config(cell)
        program = rec.call("frontend.assemble", rv.pipeline.assemble_sources, job.source)
        before = insn_count(program)
        self.counts["frontend.lines"] += job.lines
        self.counts["frontend.insns_out"] += before
        tagged = cell.carrier is not None
        if tagged:
            rec.call(f"instrument.{cell.policy}", rv.pipeline.apply_policy, program, config,
                     with_labels=cell.labels, cfi_label_direct_calls=cell.direct_calls)
            self.counts["instrument.insns_added"] += insn_count(program) - before
        image = rec.call("emitlink.link", rv.emitlink.link, program, config, tagged=tagged)
        self.counts["emitlink.text_bytes"] += len(image.text)
        self.counts["emitlink.carrier_words"] += sum(r.group_count for r in image.tag_regions)
        reference = self.references.get((job.name, cell))
        if reference is not None and image != reference:
            raise CheckFailed(f"{cell.name}: layer-by-layer build differs from build_image")
        if not tagged or not cell.labels:
            return image  # diff-run keeps these in memory; enforce reads only the tagged image
        path = self.work_dir / f"{cell.name}.rvti"
        rec.call("emitlink.write", rv.emitlink.write_image, image, path)
        self.counts["emitlink.image_bytes"] += path.stat().st_size
        loaded = rec.call("emitlink.read", rv.emitlink.read_image, path)
        if loaded != image:
            raise CheckFailed(f"{cell.name}: image changed through write/read")
        return loaded

    def emulate(self, image, mode: str, policy: str):
        key = "compat" if mode == "compat" else f"aware.{policy}"
        machine = self.rec.call("emulator.init", self.rv.emulator.Emulator,
                                image, mode=mode, max_insns=MAX_INSNS)
        state, counters, _ = self.rec.call(f"emulator.run.{key}", machine.run)
        self.counts[f"fetches.{key}"] += counters.total
        self.counts["emulator.retired"] += counters.retired
        self.counts["emulator.tag_fetches"] += counters.tag_fetches
        self.counts["emulator.labels_seen"] += counters.labels_seen
        return state, counters

    def check(self, job: Job, what: str, baseline, state, data_base: int):
        if job.a0 is not None and state.regs[10] != job.a0:
            raise CheckFailed(f"{what}: a0 {state.regs[10]:#x} != model {job.a0:#x}")
        if baseline is None:
            return
        divergence = self.rec.call("cli.compare", self.rv.cli.compare_states,
                                   baseline, state, data_base)
        if divergence is not None:
            raise CheckFailed(f"{what}: {divergence}")

    def verify(self, job: Job, cell: Cell, baseline=None):
        """Build, write, read, run and check one cell. For the baseline cell
        returns (state, counters, text bytes) for the cells that follow."""
        image = self.build(job, cell)
        if cell.carrier is None:
            state, counters = self.emulate(image, "compat", "none")
            self.check(job, "untagged", None, state, image.data_base)
            return state, counters, len(image.text)
        if baseline is None:
            raise CheckFailed(f"{cell.name}: no baseline to compare with")
        base_state, base_counters, base_bytes = baseline
        compat_counters = None
        if cell.compat:
            state, compat_counters = self.emulate(image, "compat", cell.policy)
            self.check(job, f"{cell.name} compat", base_state, state, image.data_base)
        if not cell.aware:
            return None
        state, counters = self.emulate(image, "aware", cell.policy)
        self.check(job, f"{cell.name} aware", base_state, state, image.data_base)
        if cell.policy == "none" and compat_counters is not None and counters != compat_counters:
            raise CheckFailed(f"{cell.name}: aware counters {counters} != compat {compat_counters}")
        self.overhead["base_fetches"] += base_counters.total
        self.overhead["tagged_fetches"] += counters.total
        self.overhead["base_bytes"] += base_bytes
        self.overhead["tagged_bytes"] += len(image.text)
        return None

    def unit(self, name: str, fn, *args):
        """Run one unit; a failure is recorded and the pass goes on."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            with self.rec.span("bench.unit", unit=name):
                result = fn(*args)
        except Exception:  # a failed unit is counted, not fatal
            self.failed += 1
            if len(self.failures) < 3:
                self.failures.append(f"{name}:\n{traceback.format_exc()}")
            return None
        self.units.append((name, start, time.perf_counter()))
        return result

    def verify_job(self, job: Job):
        baseline = self.verify(job, BASELINE)
        for cell in job.cells[1:]:
            self.verify(job, cell, baseline)

    def run_pass(self, jobs):
        with self.rec.span("bench.pass"):
            for job in jobs:
                if not job.split:
                    self.unit(job.name, self.verify_job, job)
                    continue
                baseline = self.unit(f"{job.name}/untagged", self.verify, job, BASELINE)
                for cell in job.cells[1:]:
                    self.unit(f"{job.name}/{cell.name}", self.verify, job, cell, baseline)


# ---------------------------------------------------------------------------
# measurement

def median(values):
    return statistics.median(values) if values else 0.0


def median_per_unit(passes) -> dict:
    """Each unit's median latency over the passes."""
    latencies = {}
    for p in passes:
        for unit, value in p["latencies"].items():
            latencies.setdefault(unit, []).append(value)
    return {unit: median(values) for unit, values in latencies.items()}


def percentile(values, pct):
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def measure(bench: Bench, jobs, seconds: float, trace: bool, smoke: bool) -> list:
    """Passes until `seconds` have gone. Pass 0 is a warm-up (dropped unless
    smoke); with tracing, odd passes are traced. Each pass starts after a
    full garbage collection and ends with a calibration, so its times can be
    put in reference seconds at once and its call log dropped."""
    rec, clock = bench.rec, bench.rec.clock
    min_passes = (1 if smoke else 2) + trace
    deadline = time.perf_counter() + seconds
    passes = []
    while len(passes) < min_passes or time.perf_counter() < deadline:
        traced = trace and len(passes) % 2 == 1
        rec.tracing = traced
        bench.reset_pass()
        rec.log.clear()
        gc.collect()
        first_span = len(rec.spans)
        start = time.perf_counter()
        bench.run_pass(jobs)
        end = time.perf_counter()
        clock.calibrate()
        passes.append({
            "traced": traced,
            "wall": clock.seconds(start, end),
            "seconds": rec.seconds_by_name(),
            "latencies": {name: clock.seconds(a, b) for name, a, b in bench.units},
            "spans": (first_span, len(rec.spans)),
            "counts": bench.counts,
            "overhead": bench.overhead,
        })
    rec.tracing = False
    return passes if smoke else passes[1:]


BUILD_STAGES = ("frontend.", "instrument.", "emitlink.link")


def end_to_end(passes, setup_s: float):
    """A unit's latency is its median over the measured passes, and a pass
    is timed as the sum of those, so a burst of contention that slows one
    pass moves neither. Rates are medians over passes of per-pass totals."""
    plain = [p for p in passes if not p["traced"]]
    units = median_per_unit(plain)
    lat_ms = [1000.0 * s for s in units.values()]
    wall = sum(units.values())
    calls = [(p["counts"], p["seconds"]) for p in plain]

    def fetch_rate(key):
        return median([rate(counts[f"fetches.{key}"], seconds.get(f"emulator.run.{key}", 0.0))
                       for counts, seconds in calls])

    def build_rate(counts, seconds):
        build_s = sum(v for k, v in seconds.items() if k.startswith(BUILD_STAGES))
        return rate(counts["frontend.lines"], build_s)

    last = plain[-1]["overhead"]
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "compat_fetches_per_s": (fetch_rate("compat"), "1/s"),
        **{f"aware_{policy}_fetches_per_s": (fetch_rate(f"aware.{policy}"), "1/s")
           for policy in AWARE_POLICIES},
        "build_lines_per_s": (median([build_rate(*c) for c in calls]), "1/s"),
        "programs_per_s": (rate(len(units), wall), "1/s"),
        "program_p50_ms": (percentile(lat_ms, 50), "ms"),
        "program_p95_ms": (percentile(lat_ms, 95), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "dynamic_overhead_pct": (100.0 * rate(last["tagged_fetches"] - last["base_fetches"],
                                              last["base_fetches"]), "%"),
        "static_overhead_pct": (100.0 * rate(last["tagged_bytes"] - last["base_bytes"],
                                             last["base_bytes"]), "%"),
    }
    return metrics, len(lat_ms)


SELF_TIME_LAYERS = ("frontend", "instrument", "emitlink", "emulator", "cli", "bench")
COUNTED_LAYERS = ("frontend", "instrument", "emitlink", "emulator", "cli", "corpus", "pipeline")


def per_layer(passes, rec: timing.Recorder, generate_s: float) -> dict:
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    self_times = [rec.self_seconds(*p["spans"]) for p in traced]

    seconds = [p["seconds"] for p in traced]

    def secs(name):
        return (median([s.get(name, 0.0) for s in seconds]), "s")

    def prefixed(prefix):
        return (median([sum(v for k, v in s.items() if k.startswith(prefix))
                        for s in seconds]), "s")

    def count(name):
        return (median([p["counts"][name] for p in traced]), "count")

    metrics = {
        "frontend.assemble_s": secs("frontend.assemble"),
        "frontend.lines": count("frontend.lines"),
        "frontend.insns_out": count("frontend.insns_out"),
        "instrument.pass_s": prefixed("instrument."),
        "instrument.cfi_s": secs("instrument.cfi"),
        "instrument.unarith_s": secs("instrument.unarith"),
        "instrument.coverage_s": secs("instrument.coverage"),
        "instrument.insns_added": count("instrument.insns_added"),
        "emitlink.link_s": secs("emitlink.link"),
        "emitlink.text_bytes": count("emitlink.text_bytes"),
        "emitlink.carrier_words": count("emitlink.carrier_words"),
        "emitlink.write_s": secs("emitlink.write"),
        "emitlink.read_s": secs("emitlink.read"),
        "emitlink.image_bytes": count("emitlink.image_bytes"),
        "emulator.init_s": secs("emulator.init"),
        "emulator.run_s.compat": secs("emulator.run.compat"),
        **{f"emulator.run_s.aware.{policy}": secs(f"emulator.run.aware.{policy}")
           for policy in AWARE_POLICIES},
        "emulator.retired": count("emulator.retired"),
        "emulator.tag_fetches": count("emulator.tag_fetches"),
        "emulator.labels_seen": count("emulator.labels_seen"),
        "cli.compare_s": secs("cli.compare"),
        "corpus.generate_s": (generate_s, "s"),
    }
    for layer in SELF_TIME_LAYERS:
        metrics[f"{layer}.self_s"] = (median([t.get(layer, 0.0) for t in self_times]), "s")
    for layer in COUNTED_LAYERS:
        metrics[f"{layer}.calls"] = (rec.calls[layer], "count")
        metrics[f"{layer}.errors"] = (rec.errors[layer], "count")
    traced_wall = median([p["wall"] for p in traced])
    plain_wall = median([p["wall"] for p in plain])
    metrics["trace.overhead_pct"] = (100.0 * (traced_wall / plain_wall - 1.0), "%")
    metrics["trace.spans"] = (median([hi - lo for lo, hi in (p["spans"] for p in traced)]),
                              "count")
    return metrics


# ---------------------------------------------------------------------------
# environment and output

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git_dir = ROOT / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git_dir / ref).exists():
            return (git_dir / ref).read_text().strip()
        for line in (git_dir / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def as_metrics(table: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in table.items()}


def run_workload(rvtag, clock: timing.Clock, workload: str, seed: int, seconds: float,
                 trace: bool, smoke: bool, import_s: float) -> dict:
    """Set up, measure and check one workload; the clock must be running."""
    work_dir = OUT_DIR / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    rec = timing.Recorder(clock)
    bench = Bench(rvtag, rec, work_dir)
    full, small = SIZES[workload]
    size = small if smoke else full

    setups = []
    for _ in range(1 if smoke else SETUP_REPEATS):
        bench.configs.clear()
        gc.collect()
        start = time.perf_counter()
        jobs = bench.make_jobs(workload, seed, size)
        generated = time.perf_counter()
        bench.references = bench.build_references(jobs)
        setups.append((start, generated, time.perf_counter()))
    passes = measure(bench, jobs, seconds, trace, smoke)
    setup_runs = [clock.seconds(start, end) for start, _, end in setups]
    e2e, samples = end_to_end(passes, import_s + median(setup_runs))
    if any(p["overhead"] != passes[-1]["overhead"] for p in passes):
        bench.failed += 1
        bench.failures.append("simulated counts differ between passes")

    result = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "smoke": smoke,
        "env": environment(seed),
        "time": "reference seconds",
        "host_speed_median": median(clock.speeds),
        "import_s": import_s,
        "setup_runs_s": setup_runs,
        "passes": len(passes),
        "latency_samples": samples,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "error_rate": rate(bench.failed, bench.attempted),
        "failures": bench.failures,
        "end_to_end": as_metrics(e2e),
    }
    if trace:
        generate_s = median([clock.seconds(start, generated) for start, generated, _ in setups])
        result["per_layer"] = as_metrics(per_layer(passes, rec, generate_s))
        spans_path = OUT_DIR / f"{workload}-seed{seed}.spans.json"
        rec.write_spans(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    with open(OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    return result


def print_result(result: dict) -> None:
    print(f"# workload={result['workload']} seed={result['env']['seed']} "
          f"passes={result['passes']} latency_samples={result['latency_samples']} "
          f"trace={result['trace']} host_speed={result['host_speed_median']:.3f}")
    print(f"# env {json.dumps(result['env'], sort_keys=True)}")
    rows = list(result["end_to_end"].items()) + list(result.get("per_layer", {}).items())
    rows.append(("error_rate", {"value": result["error_rate"], "unit": "ratio"}))
    for name, metric in rows:
        print(f"  {name:34} {metric['value']:>16.6g} {metric['unit']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload (or --workload) once at minimum size")
    args = parser.parse_args(argv)
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    clock = timing.Clock()
    with clock.running():
        start = time.perf_counter()
        try:
            from rvtag import cli, codec, corpus, emitlink, emulator, pipeline, tagplan
        except ImportError as exc:
            print(f"bench: cannot import rvtag from {ROOT / 'src'}: {exc}", file=sys.stderr)
            return 2
        end = time.perf_counter()
        clock.calibrate()
        import_s = clock.seconds(start, end)
        rvtag = argparse.Namespace(cli=cli, codec=codec, corpus=corpus, emitlink=emitlink,
                                   emulator=emulator, pipeline=pipeline, tagplan=tagplan)
        names = [args.workload] if args.workload else list(WORKLOADS)
        seconds = 0.0 if args.smoke else args.seconds
        results = [run_workload(rvtag, clock, name, args.seed, seconds, bool(args.trace),
                                args.smoke, import_s) for name in names]
    for result in results:
        print_result(result)
    section = "per_layer" if args.trace else "end_to_end"
    if len(results) == 1:
        metrics = results[0][section]
    else:
        metrics = {f"{r['workload']}.{name}": metric
                   for r in results for name, metric in r[section].items()}
    print(json.dumps({
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
