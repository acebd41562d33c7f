"""Layered, seeded benchmark for persphere.

    python3 perfbench/run.py --workload series_pipeline --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

Run from the repository root. The library is imported from `src/`. One run
repeats closed-loop pipeline passes over the same seeded inputs until the
next pass would end after `--seconds`, setting up (input generation plus a
warm-up pass over the smallest items) before the first pass and after each
untraced one, then checks the last pass's outputs against independent
oracles. Untraced passes and set-ups are timed by a host-speed probe
(`hostspeed.py`), and their times are reported scaled to the reference
host speed; the raw times are printed beside them.

With `--trace 0` every pass is untraced and the end-to-end metrics are
printed. With `--trace 1` passes alternate untraced and traced, the
traced-only breakdown calls run once afterwards, the spans are written to
`.bench_out/`, and the per-layer metrics are printed. The last line of
stdout is always one JSON object with `correct`, `attempted`, `failed` and
`metrics`; the lines before it are a human-readable report.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOAD_NAMES = ("series_pipeline", "matching_baseline", "sphere_stats")
MIN_PASSES = 2  # untraced passes an untraced run makes at least
TAIL_SAMPLES = 10  # samples that must lie beyond the reported tail percentile
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

END_TO_END = (
    ("wall_s", "s", "lower"),
    ("item_p50_s", "s", "lower"),
    ("item_tail_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("loo_accuracy", "fraction", "higher"),
)


def _layer_metrics() -> tuple:
    def timed(*spans):
        return [(f"{s}.busy_s", "s", "lower") for s in spans]

    def called(*spans):
        return [(f"{s}.calls", "count", "lower") for s in spans]

    dm = [
        (f"analysis.distance_matrix.{m}.{field}", unit, "lower")
        for m in ("hilbert", "w1", "w2")
        for field, unit in (("busy_s", "s"), ("pairs", "count"), ("per_pair_s", "s"))
    ]
    return tuple(
        called("embedding.delay_embed")
        + timed("embedding.delay_embed")
        + [("embedding.points_out", "count", "lower")]
        + called("persistence.diagram_of_cloud")
        + timed("persistence.diagram_of_cloud")
        + [
            ("persistence.points_in", "count", "lower"),
            ("persistence.simplices", "count", "lower"),
        ]
        + timed("persistence.build_rips", "persistence.compute_persistence")
        + [
            ("persistence.h0_pairs", "count", "lower"),
            ("persistence.h1_pairs", "count", "lower"),
            ("persistence.useful_ratio", "ratio", "higher"),
        ]
        + timed(
            "persistence.normalize_diagram",
            "persistence.write_diagrams",
            "persistence.read_diagrams",
        )
        + called("density.kde")
        + timed("density.kde")
        + [
            ("density.kde.points_in", "count", "lower"),
            ("density.kde.cells", "count", "lower"),
            ("density.kde.flops", "flop", "lower"),
        ]
        + timed("density.sqrt_transform", "density.write_grid", "density.read_grid", "sphere.pga")
        + called("sphere.project_coords")
        + timed("sphere.project_coords")
        + called("sphere.geodesic")
        + timed("sphere.geodesic", "sphere.extrinsic_mean")
        + [
            ("sphere.clamp_events", "count", "lower"),
            ("sphere.warnings", "count", "lower"),
        ]
        + called("wasserstein.wasserstein")
        + timed("wasserstein.wasserstein")
        + [
            ("wasserstein.assignment_n.sum", "count", "lower"),
            ("wasserstein.assignment_n.max", "count", "lower"),
            ("wasserstein.assignment_ops", "count", "lower"),
        ]
        + called("wasserstein.alexandrov_geodesic")
        + timed("wasserstein.alexandrov_geodesic")
        + dm
        + timed("analysis.loo_knn_accuracy", "analysis.pga_features", "analysis.write_matrix")
        + [
            ("trace.wall_s", "s", "lower"),
            ("trace.overhead_s", "s", "lower"),
            ("trace.glue_s", "s", "lower"),
            ("host.slowness", "ratio", "lower"),
        ]
    )


PER_LAYER = _layer_metrics()


def tail_percentile(samples_per_pass: int) -> float:
    """Highest listed percentile with at least TAIL_SAMPLES items beyond it in one pass."""
    fits = [p for p in PERCENTILES if samples_per_pass * (100.0 - p) / 100.0 >= TAIL_SAMPLES]
    return fits[-1] if fits else PERCENTILES[0]


def windowed_tail(items_per_pass: list, pct: float) -> float:
    """Median, over every run of MIN_PASSES consecutive passes, of the
    percentile `pct` of that run's pooled item times.

    A streak of host stalls (steal) as long as a pass moves the pooled tail
    of a whole run; the median over windows leaves it out unless it covers
    most of the run.
    """
    import numpy as np  # after run_one has pinned the BLAS threads

    k = MIN_PASSES
    return statistics.median(
        float(np.percentile(np.concatenate(items_per_pass[i : i + k]), pct))
        for i in range(len(items_per_pass) - k + 1)
    )


@dataclass
class Measured:
    inputs: dict
    setups: list = field(default_factory=list)  # Meters of the set-ups
    passes: list = field(default_factory=list)  # Meters of the untraced passes
    items: list = field(default_factory=list)  # per untraced pass, its scaled item times, s
    traced: list = field(default_factory=list)  # (raw pass time, Tracer) of traced passes
    out: dict | None = None  # outputs of the last untraced pass

    @property
    def walls(self) -> list:
        """Scaled untraced pass times, s."""
        return [p.scaled_s() for p in self.passes]

    @property
    def raw_walls(self) -> list:
        return [p.raw_s() for p in self.passes]


def measure(workload, seed: int, seconds: float, trace: bool, tmp: str) -> Measured:
    """Closed-loop passes until the next one would end after `seconds`.

    Set-up (input generation plus a warm-up slice) runs once before the
    first pass and again after each untraced pass, so its samples spread
    over the window like the passes do. Without `trace`, at least
    MIN_PASSES passes run. With `trace`, passes alternate untraced and
    traced, starting untraced, at least one of each runs, and one pass
    time is left over for the traced breakdown that follows. Traced passes
    run no probe.
    """
    from hostspeed import Meter
    from tracer import NULL, Tracer

    def setup():
        with Meter() as meter:
            inputs = workload.make_inputs(seed)
            workload.warm(inputs, tmp, meter)
        m.setups.append(meter)
        return inputs

    start = time.perf_counter()
    m = Measured(inputs={})
    m.inputs = setup()
    while True:
        tr = Tracer() if trace and len(m.traced) < len(m.passes) else NULL
        t0 = time.perf_counter()
        with Meter(probe=tr is NULL) as meter, tr.span("pass"):
            out = workload.run(m.inputs, tr, tmp, meter)
        took = time.perf_counter() - t0
        if tr is NULL:
            m.passes.append(meter)
            m.items.append(meter.items(workload.items))
            m.out = out
            setup()
        else:
            m.traced.append((meter.raw_s(), tr))
        if trace:
            enough, reserve = bool(m.traced), took
        else:
            enough, reserve = len(m.passes) >= MIN_PASSES, 0.0
        if enough and time.perf_counter() - start + took + reserve > seconds:
            return m


def layer_values(summaries, breakdown, counts, raw_walls, traced, slowness=1.0) -> dict:
    """Per-layer metrics from traced-pass summaries (median over passes),
    the breakdown summary and the counts. Times are raw, not scaled."""
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    values.update(counts)

    def span_value(span, key):
        if span in breakdown:
            return breakdown[span][key]
        return statistics.median(s.get(span, {}).get(key, 0) for s in summaries)

    for name, _, _ in PER_LAYER:
        span, key = name.rsplit(".", 1)
        if key == "busy_s":
            values[name] = span_value(span, "self_s")
        elif key == "calls":
            values[name] = span_value(span, "calls")
    for m in ("hilbert", "w1", "w2"):
        pairs = values[f"analysis.distance_matrix.{m}.pairs"]
        busy = values[f"analysis.distance_matrix.{m}.busy_s"]
        values[f"analysis.distance_matrix.{m}.per_pair_s"] = busy / pairs if pairs else 0.0
    found = values["persistence.h0_pairs"] + values["persistence.h1_pairs"]
    simplices = values["persistence.simplices"]
    values["persistence.useful_ratio"] = found / simplices if simplices else 0.0
    values["sphere.warnings"] = statistics.median(
        sum(rec["warnings"] for rec in s.values()) for s in summaries
    ) + sum(rec["warnings"] for rec in breakdown.values())
    values["trace.wall_s"] = statistics.median(t for t, _ in traced)
    values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(raw_walls)
    values["trace.glue_s"] = span_value("pass", "self_s")
    values["host.slowness"] = slowness
    return values


def environment() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (
        f"python {sys.version.split()[0]}, numpy {np.__version__}, "
        f"blas {blas.get('name')} {blas.get('version')}, "
        f"blas threads {_blas_threads()}, nproc {len(os.sched_getaffinity(0))}"
    )


def _blas_threads() -> str:
    """Thread count reported by the loaded OpenBLAS, if it can be found."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def run_one(name: str, seed: int, seconds: float, trace: bool, t_start: float) -> int:
    # One BLAS thread: a multi-threaded K x n kde product waits for a second
    # core, and on a shared 2-vCPU host that wait put its p99 at 10-20x p50.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, SRC)
    import hostspeed
    import numpy as np
    import persphere
    from tracer import Tracer, summarize
    from workloads import WORKLOADS

    if not os.path.abspath(persphere.__file__).startswith(SRC + os.sep):
        print(f"error: persphere imported from {persphere.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t_start
    workload = WORKLOADS[name]

    with tempfile.TemporaryDirectory(prefix=".bench_tmp_", dir=ROOT) as tmp:
        m = measure(workload, seed, seconds, trace, tmp)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        breakdown = Tracer()
        extra = workload.breakdown(m.inputs, m.out, breakdown) if trace else {}
        checks = workload.checks(m.inputs, m.out, tmp)
    failed = sum(not ok for _, ok in checks)
    for label, ok in checks:
        if not ok:
            print(f"check failed: {name}: {label}", file=sys.stderr)
    attempted = len(m.passes) + len(m.traced) + len(checks)
    slowness = statistics.median(p.median_slowness() for p in m.passes + m.setups)

    print(f"# {name} seed {seed}, {'traced' if trace else 'untraced'}, window {seconds:g} s")
    print(f"# {environment()}")
    print(
        f"# closed loop, 1 client; {len(m.passes)} untraced passes of {workload.items} items, "
        f"{len(m.traced)} traced passes, {len(m.setups)} set-ups"
    )
    if trace:
        units = {n: u for n, u, _ in PER_LAYER}
        counts = {**workload.counts(m.inputs, m.out), **extra}
        summaries = [summarize(tr.spans) for _, tr in m.traced]
        metrics = layer_values(summaries, summarize(breakdown.spans), counts, m.raw_walls,
                               m.traced, slowness)
        os.makedirs(OUT_DIR, exist_ok=True)
        for k, (took, tr) in enumerate(m.traced):
            tr.write(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}-pass{k}.json"),
                     workload=name, seed=seed, wall_s=took)
        breakdown.write(os.path.join(OUT_DIR, f"spans-{name}-seed{seed}-breakdown.json"),
                        workload=name, seed=seed)
        for key, unit in units.items():
            print(f"{key:48s} {metrics[key]:>14.6g} {unit}")
    else:
        units = {n: u for n, u, _ in END_TO_END}
        pct = tail_percentile(workload.items * MIN_PASSES)
        setups = [s.scaled_s() for s in m.setups]
        raw_items = [p.items(workload.items, scaled=False) for p in m.passes]
        metrics = {
            "wall_s": statistics.median(m.walls),
            "item_p50_s": float(np.percentile(np.concatenate(m.items), 50.0)),
            "item_tail_s": windowed_tail(m.items, pct),
            "setup_s": import_s / m.setups[0].median_slowness() + statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "loo_accuracy": float(m.out["loo"]),
        }
        print(f"# times scaled to the reference host speed; host slowness {slowness:.3f} "
              f"(median probe time over {hostspeed.NOMINAL_S * 1e3:g} ms)")
        notes = {
            "wall_s": f"median of {len(m.passes)} passes: "
            + " ".join(f"{w:.3f}" for w in m.walls)
            + "; raw " + " ".join(f"{w:.3f}" for w in m.raw_walls),
            "item_p50_s": f"p50 of {workload.items * len(m.passes)} item ingests; "
            f"raw {np.percentile(np.concatenate(raw_items), 50.0):.6g}",
            "item_tail_s": f"median of p{pct:g} over {len(m.passes) - MIN_PASSES + 1} windows "
            f"of {MIN_PASSES} passes ({workload.items * MIN_PASSES} item ingests each); "
            f"raw {windowed_tail(raw_items, pct):.6g}",
            "setup_s": f"import {import_s:.3f} s raw + median of {len(m.setups)} set-ups: "
            + " ".join(f"{x:.3f}" for x in setups),
            "peak_rss_mb": "ru_maxrss after the timed passes",
            "loo_accuracy": f"1-NN leave-one-out, floor {workload.loo_floor}",
        }
        for key, unit in units.items():
            print(f"{key:14s} {metrics[key]:>12.6g} {unit:8s} {notes[key]}")
    print(f"{'error_rate':14s} {failed / attempted:>12.6g} {'fraction':8s} "
          f"{failed} failed of {attempted} (passes + checks)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak_rss_mb is its own; one summary."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = val
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "persphere", "__init__.py")):
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace), t_start)


if __name__ == "__main__":
    sys.exit(main())
