"""Benchmark of the colorbasis pipeline.

    python3 perfbench/run.py --workload deep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The program is imported from ``src/``
and driven only through ``config.load_config``, ``pipeline.run_pipeline``
and ``pipeline.run_stage``.  Inputs are generated from the seed under
``.perfbench_work/`` (removed on exit), and every output directory lives
there too.

One cycle of the closed loop is one ``run`` op (``run_pipeline`` into a
fresh output directory) and one ``rerun`` op (``run_stage`` for every
stage after ``segment``, over the directory the run just wrote).  Each
op's artifacts must hash like the warm-up run's; the manifest is hashed
without its timing fields.

``--trace 0`` times the loop and reports the end-to-end metrics.
``--trace 1`` alternates untraced and traced cycles and reports the
per-layer metrics from spans recorded around the calls into each module
(see ``spans.py``); the spans are written to ``.perfbench_out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent

# The bundled demo alone is not a timed workload: its compute takes
# milliseconds, so its times would be disk write latency.  Set-up still
# runs it and checks its known-good outputs.
WORKLOADS = {
    # few large languages: segmentation training dominates
    "deep": {"languages": 4, "words": 1000, "extra_colors": 0, "jobs": 1},
    # many small languages over the pool, 220 colors
    "broad": {"languages": 48, "words": 50, "extra_colors": 200, "jobs": 2},
}
SETUPS = 3
MIN_CYCLES = 3
MIN_TRACED_CYCLES = 2
DEMO_TOP = ["white", "black", "red", "green", "yellow", "blue"]
NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

#: per-layer units whose values must repeat exactly between traced cycles
EXACT_UNITS = ("count", "ratio")
#: a ratio of two timings, so it varies like one
TIMED_RATIOS = {"segmentation.pool_efficiency"}
#: span names whose time is the features stage's computation
FEATURE_COMPUTE = (
    "features.compound_counts",
    "features.word_concreteness",
    "features.translation_concreteness",
    "features.pos_features",
    "features.etymology_features",
    "features.word_length_feature",
    "features.load_concreteness",
    "features.load_corpus",
    "features.load_etymology",
)


def cpu_seconds() -> float:
    """User plus system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def high_percentile(values: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it; the
    median when there are fewer than twenty samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 20:
        return "p50", statistics.median(ordered)
    p = math.floor(100 * (1 - 10 / n))
    return f"p{p}", ordered[min(n - 1, math.ceil(p / 100 * n) - 1)]


def filesystem_type(path: Path) -> str:
    best, kind = "", "unknown"
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return kind
    target = str(path.resolve())
    for line in mounts:
        fields = line.split()
        if len(fields) >= 3 and (target + "/").startswith(fields[1].rstrip("/") + "/"):
            if len(fields[1]) >= len(best):
                best, kind = fields[1], fields[2]
    return kind


def output_digest(out: Path) -> tuple[str, dict]:
    """sha256 over every artifact, the manifest without its timings; and
    the manifest itself."""
    h = hashlib.sha256()
    manifest = {}
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            untimed = json.loads(data)
            for stage in untimed.get("stages", {}).values():
                stage.pop("duration_s", None)
            data = json.dumps(untimed, sort_keys=True).encode()
        h.update(str(path.relative_to(out)).encode() + b"\0" + data + b"\0")
    return h.hexdigest(), manifest


class Op(NamedTuple):
    ok: bool
    wall: float
    cpu: float
    manifest: dict


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        from colorbasis import config, pipeline

        self.sizes = WORKLOADS[workload]
        self.jobs = self.sizes["jobs"]
        self.seed = seed
        self.work = work
        self.load_config = config.load_config
        self.run_pipeline = pipeline.run_pipeline
        self.run_stage = pipeline.run_stage
        self.stage_order = pipeline.STAGE_ORDER
        self.rerun_stages = pipeline.STAGE_ORDER[pipeline.STAGE_ORDER.index("segment") + 1:]

    def config(self, tag: str, jobs: int | None = None, load=None):
        overrides = {"output_dir": str(self.work / "out" / tag)}
        if jobs is not None:
            overrides["jobs"] = jobs
        return (load or self.load_config)(self.config_path, overrides)

    # -- set-up ---------------------------------------------------------

    def setup(self) -> tuple[list[float], list[str]]:
        """Generate inputs, load the config and make the warm-up run,
        ``SETUPS`` times; check the generator and the reference outputs."""
        from synth import write_inputs

        times, inputs, digests = [], [], []
        for k in range(SETUPS):
            started = time.perf_counter()
            directory = self.work / f"inputs{k}"
            self.config_path = write_inputs(directory, self.seed, **self.sizes)
            cfg = self.config(f"warmup{k}")
            manifest = self.run_pipeline(cfg)
            times.append(time.perf_counter() - started)
            # the input directory holds only generated files
            inputs.append(output_digest(directory)[0])
            digests.append(output_digest(cfg.output_dir)[0])
            shutil.rmtree(cfg.output_dir)
            if k < SETUPS - 1:
                shutil.rmtree(directory)
        self.reference = digests[0]
        problems = []
        if len(set(inputs)) != 1:
            problems.append("the same seed gave different inputs")
        other = self.work / "other-seed"
        write_inputs(other, self.seed + 1, **self.sizes)
        if output_digest(other)[0] == inputs[0]:
            problems.append("a different seed gave identical inputs")
        shutil.rmtree(other)
        if len(set(digests)) != 1:
            problems.append("warm-up runs disagree")
        ingest = manifest["stages"]["ingest"]["counts"]
        if ingest["lexicon_rows_skipped"]:
            problems.append(f"{ingest['lexicon_rows_skipped']} lexicon rows skipped")
        if manifest["dropped_colors"]:
            problems.append(f"colors dropped: {manifest['dropped_colors']}")
        self.entries = ingest["lexicon_entries"]
        if self.jobs > 1:
            cfg = self.config("jobs1", jobs=1)
            if not self.op(lambda: self.run_pipeline(cfg), cfg.output_dir).ok:
                problems.append("jobs 1 and jobs 2 outputs differ")
        return times, problems

    def demo(self) -> tuple[float, list[str]]:
        """One untraced run of the bundled demo (rows shuffled by the seed);
        its wall time and the problems with its known-good outputs."""
        from synth import write_inputs

        cfg = self.load_config(
            write_inputs(self.work / "demo", self.seed),
            {"output_dir": str(self.work / "demo" / "out")},
        )
        started = time.perf_counter()
        self.run_pipeline(cfg)
        wall = time.perf_counter() - started
        lines = (cfg.output_dir / "ranking.csv").read_text(encoding="utf-8").splitlines()[1:]
        top = [line.split(",")[0] for line in lines[:6]]
        problems = [] if top == DEMO_TOP else [f"demo top six is {top}"]
        gammas = (cfg.output_dir / "gamma.csv").read_text(encoding="utf-8").splitlines()
        aggregate = [line for line in gammas if line.startswith("aggregate,")]
        if aggregate != ["aggregate,1.000000,1.000000"]:
            problems.append(f"demo aggregate gamma row is {aggregate}")
        shutil.rmtree(self.work / "demo")
        return wall, problems

    # -- ops ------------------------------------------------------------

    def op(self, fn, out: Path, keep: bool = False) -> Op:
        """Run one op, timing it, and check its artifacts against the
        reference.

        Unless ``keep``, the output directory is removed after the check:
        dirty pages left behind would be flushed to disk during later ops.
        """
        cpu = cpu_seconds()
        started = time.perf_counter()
        try:
            fn()
            wall, cpu = time.perf_counter() - started, cpu_seconds() - cpu
            digest, manifest = output_digest(out)
            return Op(digest == self.reference, wall, cpu, manifest)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            return Op(False, math.nan, math.nan, {})
        finally:
            if not keep:
                shutil.rmtree(out, ignore_errors=True)

    def rerun(self, cfg, run_stage=None):
        for stage in self.rerun_stages:
            (run_stage or self.run_stage)(cfg, stage)

    def measure(self, seconds: float) -> tuple[dict, int, int]:
        """Closed loop of run and rerun ops for ``seconds``; returns the
        samples of the successful ops, and the ops attempted and failed."""
        samples = {"run_s": [], "rerun_s": [], "run_cpu_s": []}
        failed = 0
        deadline = time.perf_counter() + seconds
        i = 0
        while i < MIN_CYCLES or time.perf_counter() < deadline:
            cfg = self.config(f"run{i}")
            run = self.op(lambda: self.run_pipeline(cfg), cfg.output_dir, keep=True)
            rerun = self.op(lambda: self.rerun(cfg), cfg.output_dir)
            if run.ok:
                samples["run_s"].append(run.wall)
                samples["run_cpu_s"].append(run.cpu)
            if rerun.ok:
                samples["rerun_s"].append(rerun.wall)
            failed += (not run.ok) + (not rerun.ok)
            i += 1
        return samples, 2 * i, failed

    def trace(self, seconds: float):
        """Cycles of untraced and traced ops for ``seconds``; returns the
        per-layer metrics of each cycle, the ops attempted and failed, and
        the tracer."""
        from spans import Tracer

        tracer = Tracer()
        load = tracer.span("config.load_config", self.load_config)
        run_pipeline = tracer.span("pipeline.run_pipeline", self.run_pipeline)
        run_stage = tracer.span("pipeline.run_stage", self.run_stage)
        cycles, attempted, failed = [], 0, 0
        deadline = time.perf_counter() + seconds
        i = 0
        while i < MIN_TRACED_CYCLES or time.perf_counter() < deadline:
            # untraced jobs-1 run: the base for the tracing overhead
            cfg = self.config(f"plain{i}", jobs=1)
            plain = pool = self.op(lambda: self.run_pipeline(cfg), cfg.output_dir)
            if self.jobs > 1:
                # untraced run at the workload's jobs, for pool efficiency
                cfg = self.config(f"pool{i}")
                pool = self.op(lambda: self.run_pipeline(cfg), cfg.output_dir)
            run = f"cycle{i}"
            tracer.begin(run)
            cfg = self.config(f"traced{i}", jobs=1, load=load)
            with tracer.install():
                traced = self.op(lambda: run_pipeline(cfg), cfg.output_dir, keep=True)
            tracer.begin(f"{run}-rerun")
            with tracer.install():
                rerun = self.op(lambda: self.rerun(cfg, run_stage), cfg.output_dir)
            ops = [plain, traced, rerun] + ([pool] if pool is not plain else [])
            attempted += len(ops)
            failed += sum(not op.ok for op in ops)
            if all(op.ok for op in ops):
                segment_s = pool.manifest["stages"]["segment"]["duration_s"]
                cycles.append(self.layer_metrics(tracer, run, plain.wall, segment_s))
            i += 1
        return cycles, attempted, failed, tracer

    def layer_metrics(self, tracer, run: str, plain_s: float, segment_s: float) -> dict:
        durations, self_times = tracer.durations(run)
        counts = tracer.counts[run]

        def total(name):
            return sum(durations.get(name, ()))

        train = durations.get("segmentation.train_segmenter", [0.0])
        m = {f"pipeline.{s}_s": self_times.get(f"pipeline.{s}", 0.0) for s in self.stage_order}
        m["pipeline.overhead_s"] = self_times["pipeline.run_pipeline"]
        m["pipeline.write_s"] = counts["pipeline.write_s"]
        m["pipeline.files_written"] = counts["pipeline.files_written"]
        m["pipeline.files_overwritten"] = counts["pipeline.files_overwritten"]
        m["segmentation.train_segmenter_s"] = sum(train)
        m["segmentation.train_segmenter_max_s"] = max(train)
        m["segmentation.word_types"] = counts["segmentation.word_types"]
        m["segmentation.multi_segment_share"] = (
            counts["segmentation.multi_segment_words"] / counts["segmentation.word_types"])
        m["segmentation.pool_efficiency"] = sum(train) / (self.jobs * segment_s)
        m["segmentation.discover_affixes_s"] = total("segmentation.discover_affixes")
        m["segmentation.affix_presence_feature_s"] = total("segmentation.affix_presence_feature")
        m["compounds.extract_candidates_s"] = total("compounds.extract_candidates")
        m["compounds.score_and_filter_s"] = total("compounds.score_and_filter")
        for key in ("splits_enumerated", "candidates", "accepted"):
            m[f"compounds.{key}"] = counts[f"compounds.{key}"]
        m["compounds.split_yield"] = m["compounds.candidates"] / m["compounds.splits_enumerated"]
        m["compounds.accept_ratio"] = m["compounds.accepted"] / m["compounds.candidates"]
        m["lexicon.load_lexicon_s"] = total("lexicon.load_lexicon")
        m["lexicon.round_trip_s"] = total("lexicon.round_trip")
        m["lexicon.round_trip_calls"] = len(durations.get("lexicon.round_trip", ()))
        m["features.compute_s"] = sum(total(name) for name in FEATURE_COMPUTE)
        m["features.assemble_feature_matrix_s"] = total("features.assemble_feature_matrix")
        m["stats.bootstrap_then_full_aggregate_s"] = total("stats.bootstrap_then_full_aggregate")
        m["stats.aggregate_calls"] = len(durations.get("stats.aggregate", ()))
        m["stats.gamma_s"] = total("stats.gamma")
        m["stats.gamma_calls"] = len(durations.get("stats.gamma", ()))
        m["stats.rfe_s"] = total("stats.rfe")
        m["wcs.heterogeneity_report_s"] = total("wcs.heterogeneity_report")
        m["config.load_config_s"] = total("config.load_config")
        m["trace.overhead_s"] = total("pipeline.run_pipeline") - plain_s
        return m


def report_end_to_end(declared: dict, entries: int, setup_times, samples,
                      attempted: int, failed: int) -> dict:
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    timings = {"run_s": samples["run_s"], "rerun_s": samples["rerun_s"],
               "run_cpu_s": samples["run_cpu_s"], "setup_s": setup_times}
    metrics = {}
    for name, values in timings.items():
        if not values:
            metrics[name] = 0.0
            continue
        metrics[name] = statistics.median(values)
        label, high = high_percentile(values)
        print(f"{name:<16} median {metrics[name]:.6f} s   {label} {high:.6f} s   n={len(values)}")
        print(f"{'':<16} samples {' '.join(f'{v:.4f}' for v in values)}")
    metrics["entries_per_s"] = entries / metrics["run_s"] if metrics["run_s"] else 0.0
    metrics["peak_rss_mb"] = self_rss
    print(f"{'entries_per_s':<16} {metrics['entries_per_s']:.3f} 1/s   "
          f"({entries} entries / median run_s)")
    print(f"{'peak_rss_mb':<16} {self_rss:.3f} MB   (pool children: {child_rss:.3f} MB)")
    print(f"{'failed_ops':<16} {failed / attempted:.6f}   ({failed} of {attempted} ops)")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()}


def report_per_layer(declared: dict, cycles, disk_run_s) -> tuple[dict, list[str]]:
    problems = []
    metrics = {}
    for name, unit in declared.items():
        if name == "pipeline.disk_run_s":
            value = disk_run_s
        elif not cycles:
            value = 0.0
        else:
            values = [c[name] for c in cycles]
            if unit in EXACT_UNITS and name not in TIMED_RATIOS:
                value = values[0]
                if len(set(values)) != 1:
                    problems.append(f"{name} differs between traced cycles: {values}")
            else:
                value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<40} {value if unit == 'count' else f'{value:.6f}'} {unit}")
    print(f"traced cycles: {len(cycles)}")
    return metrics, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "colorbasis" / "pipeline.py").is_file():
        print(f"error: no colorbasis sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import numpy

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {key: {m["name"]: m["unit"] for m in benchmark[key]}
                for key in ("end_to_end", "per_layer")}

    work = ROOT / ".perfbench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        print(f"workload {args.workload} {WORKLOADS[args.workload]} seed {args.seed}; "
              f"output fs {filesystem_type(work)}; nproc {len(os.sched_getaffinity(0))}; "
              f"python {platform.python_version()}; numpy {numpy.__version__}")
        setup_times, problems = bench.setup()
        demo_s, more = bench.demo()
        problems += more
        if args.trace:
            cycles, attempted, failed, tracer = bench.trace(args.seconds)
            metrics, more = report_per_layer(declared["per_layer"], cycles, demo_s)
            problems += more
            tracer.write(ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl")
        else:
            samples, attempted, failed = bench.measure(args.seconds)
            metrics = report_end_to_end(declared["end_to_end"], bench.entries, setup_times,
                                        samples, attempted, failed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    bad_names = [name for name in metrics if not NAME_RE.fullmatch(name)]
    problems += [f"metric name {name!r} is malformed" for name in bad_names]
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
