"""The benchmark's three seeded workloads.

Each workload generates its own inputs with numpy from the seed, runs one
closed-loop pass of the pipeline through the public library API with
library defaults, and checks the outputs against independent oracles.
Every call into a library module is wrapped in `tr.span(...)`, which is a
no-op in untraced passes. Each item's ingest runs inside `meter.item(i)`
(see `hostspeed.py`).

The input sizes are fixed per workload and only their contents and order
depend on the seed, so the work a pass does hardly changes between seeds.
"""

from __future__ import annotations

import math
import os

import numpy as np

from persphere import (
    PersistenceDiagram,
    alexandrov_geodesic,
    build_rips,
    compute_persistence,
    delay_embed,
    diagram_of_cloud,
    distance,
    distance_matrix,
    extrinsic_mean,
    geodesic,
    h0_unionfind,
    kde,
    loo_knn_accuracy,
    normalize_diagram,
    pga,
    pga_features,
    project_coords,
    sqrt_transform,
    wasserstein,
)
from persphere.analysis import read_matrix, write_matrix
from persphere.density import read_grid, write_grid
from persphere.persistence import read_diagrams, write_diagrams
from hostspeed import Meter
from tracer import NULL

GRID = 64
SIGMA = 0.05
EMBED_M = 3
EMBED_TAU = 10
HALF_PI = math.pi / 2


def _class_sizes(lo: int, hi: int, per_class: int, classes: int) -> np.ndarray:
    """Evenly spread sizes dealt to the classes in turn, class-major.

    Every class spans lo..hi, and neighbouring sizes differ as little as
    they can, so no percentile of the item times sits on a wide size step.
    """
    sizes = np.rint(np.linspace(lo, hi, per_class * classes)).astype(int)
    return sizes.reshape(per_class, classes).T.ravel()


def _matrix_checks(name: str, dm, upper: float | None = None) -> list[tuple[str, bool]]:
    v = dm.values
    out = [
        (f"{name}: symmetric", bool(np.array_equal(v, v.T))),
        (f"{name}: zero diagonal", bool(np.all(np.diag(v) == 0.0))),
        (f"{name}: nonnegative", bool(np.all(v >= 0.0))),
    ]
    if upper is not None:
        out.append((f"{name}: at most pi/2", bool(np.all(v <= upper))))
    return out


def _same_diagram(a: PersistenceDiagram, b: PersistenceDiagram) -> bool:
    return np.array_equal(a.sorted_pairs(), b.sorted_pairs()) and np.array_equal(
        np.sort(a.essential), np.sort(b.essential)
    )


def _h0_check(i: int, pd0, cloud, temporal: bool) -> tuple[str, bool]:
    return (f"item {i}: H0 equals union-find", _same_diagram(pd0, h0_unionfind(cloud, temporal)))


def _diagram_roundtrip(path: str, diagrams) -> bool:
    back = read_diagrams(path)
    empty = PersistenceDiagram(0, np.empty((0, 2)))
    return all(_same_diagram(pd, back.get(pd.homology_dim, empty)) for pd in diagrams)


def _matrix_roundtrip(path: str, dm) -> bool:
    back = read_matrix(path, dm.metric)
    return back.labels == dm.labels and np.array_equal(back.values, dm.values)


def _assignment_sizes(sizes) -> np.ndarray:
    """nx + ny for every unordered pair of diagrams with the given sizes."""
    sizes = np.asarray(sizes)
    i, j = np.triu_indices(sizes.size, 1)
    return sizes[i] + sizes[j]


def _cloud_diameter(cloud: np.ndarray) -> float:
    diff = cloud[:, None, :] - cloud[None, :, :]
    return float(np.sqrt((diff * diff).sum(-1)).max())


def rips_size(n: int) -> int:
    """Simplices of the full-scale Rips complex up to triangles."""
    return n + math.comb(n, 2) + math.comb(n, 3)


def kde_flops(points: int) -> int:
    """Multiply-adds of one K x K grid over `points` kernels, counted as 2 K^2 n."""
    return 2 * GRID * GRID * points


class Workload:
    name = ""
    why = ""
    items = 0  # items ingested per pass
    item_key = ""  # the input list holding the raw items
    loo_floor = 0.0
    warm_items = 0  # items in the warm-up slice

    def make_inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def run(self, inp: dict, tr, tmp: str, meter: Meter) -> dict:
        raise NotImplementedError

    def breakdown(self, inp: dict, out: dict, tr) -> dict:
        """Traced-only calls on the pass's inputs; returns extra counts."""
        return {}

    def checks(self, inp: dict, out: dict, tmp: str) -> list[tuple[str, bool]]:
        raise NotImplementedError

    def counts(self, inp: dict, out: dict) -> dict:
        raise NotImplementedError

    def warm(self, inp: dict, tmp: str, meter: Meter) -> None:
        self.run(self.smallest(inp, self.warm_items), NULL, tmp, meter)

    def smallest(self, inp: dict, n: int) -> dict:
        """The inputs cut to their `n` smallest items.

        Item sizes do not depend on the seed, so neither does the work of a
        pass over this slice. Lists with one entry per item are cut; other
        values are kept.
        """
        raw = inp[self.item_key]
        keep = sorted(range(len(raw)), key=lambda i: len(getattr(raw[i], "pairs", raw[i])))[:n]
        return {
            k: [v[i] for i in keep] if isinstance(v, list) and len(v) == len(raw) else v
            for k, v in inp.items()
        }


# ---------------------------------------------------------------------------
# series_pipeline: the paper's own pipeline, dominated by persistence


def _series(rng, label: str, length: int) -> np.ndarray:
    t = np.arange(length)
    if label == "periodic":
        x = np.sin(2 * np.pi * t / rng.uniform(18, 30) + rng.uniform(0, 2 * np.pi))
    elif label == "two_tone":
        p = rng.uniform(18, 30)
        x = np.sin(2 * np.pi * t / p + rng.uniform(0, 2 * np.pi)) + 0.8 * np.sin(
            2 * np.pi * t / (p * rng.uniform(2.3, 3.1)) + rng.uniform(0, 2 * np.pi)
        )
    else:
        x = np.cumsum(rng.normal(size=length))
    x = (x - x.mean()) / x.std()
    # The walk's stronger noise keeps its H1 diagram from coming out empty.
    return x + (0.3 if label == "random_walk" else 0.1) * rng.normal(size=length)


def _embedded_diameter(x: np.ndarray) -> float:
    n = x.size - (EMBED_M - 1) * EMBED_TAU
    return _cloud_diameter(
        np.column_stack([x[j * EMBED_TAU : j * EMBED_TAU + n] for j in range(EMBED_M)])
    )


class SeriesPipeline(Workload):
    name = "series_pipeline"
    why = (
        "45 scalar series in 3 classes, delay-embedded to 40-70 points and taken through "
        "persistence, KDE, Hilbert k-NN and diagram CSV; persistence does most of the work"
    )
    classes = ("periodic", "two_tone", "random_walk")
    per_class = 15
    items = 45
    item_key = "series"
    loo_floor = 0.5
    warm_items = 3
    truncated = (2, 9)  # in-class positions that pass a max_scale below the diameter
    scale_fraction = 0.6

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        sizes = _class_sizes(40, 70, self.per_class, len(self.classes))
        series, labels, temporal, max_scale = [], [], [], []
        for idx, n in enumerate(sizes.tolist()):
            label = self.classes[idx // self.per_class]
            pos = idx % self.per_class
            x = _series(rng, label, n + (EMBED_M - 1) * EMBED_TAU)
            series.append(x)
            labels.append(label)
            temporal.append(pos % 2 == 1)
            max_scale.append(
                self.scale_fraction * _embedded_diameter(x) if pos in self.truncated else None
            )
        order = rng.permutation(sizes.size).tolist()
        pick = lambda xs: [xs[i] for i in order]  # noqa: E731
        return {
            "series": pick(series),
            "labels": pick(labels),
            "temporal": pick(temporal),
            "max_scale": pick(max_scale),
        }

    def run(self, inp, tr, tmp, meter):
        n = len(inp["series"])
        clouds, diagrams = [], []
        for i in range(n):
            with meter.item(i):
                with tr.span("embedding.delay_embed", i):
                    cloud = delay_embed(inp["series"][i], m=EMBED_M, tau=EMBED_TAU)
                with tr.span("persistence.diagram_of_cloud", i):
                    pds = diagram_of_cloud(
                        cloud, max_scale=inp["max_scale"][i], temporal_links=inp["temporal"][i]
                    )
            clouds.append(cloud)
            diagrams.append(pds)
        scale = max(pd1.max_finite() for _, pd1 in diagrams)
        pdfs, kde_points = [], []
        for i, (_, pd1) in enumerate(diagrams):
            with meter.item(i):
                with tr.span("persistence.normalize_diagram", i):
                    unit = normalize_diagram(pd1, scale)
                with tr.span("density.kde", i):
                    pdf = kde(unit, SIGMA, GRID)
                with tr.span("density.sqrt_transform", i):
                    sqrt_transform(pdf)
            pdfs.append(pdf)
            kde_points.append(unit.pairs.shape[0])
        with tr.span("analysis.distance_matrix.hilbert"):
            dm = distance_matrix(pdfs, "hilbert")
        with tr.span("analysis.loo_knn_accuracy"):
            acc = loo_knn_accuracy(dm, inp["labels"])
        for i, pds in enumerate(diagrams):
            path = os.path.join(tmp, f"diagram_{i:03d}.csv")
            with tr.span("persistence.write_diagrams", i):
                write_diagrams(path, pds)
            with tr.span("persistence.read_diagrams", i):
                read_diagrams(path)
        with tr.span("analysis.write_matrix"):
            write_matrix(os.path.join(tmp, "hilbert.csv"), dm)
        return {
            "loo": acc,
            "clouds": clouds,
            "diagrams": diagrams,
            "dms": {"hilbert": dm},
            "kde_points": kde_points,
        }

    def breakdown(self, inp, out, tr):
        simplices = 0
        for i, cloud in enumerate(out["clouds"]):
            ms = inp["max_scale"][i]
            if ms is None:
                ms = _cloud_diameter(cloud) or 1.0
            with tr.span("persistence.build_rips", i):
                filt = build_rips(cloud, ms, inp["temporal"][i])
            with tr.span("persistence.compute_persistence", i):
                compute_persistence(filt)
            simplices += len(filt.simplices)
        return {"persistence.simplices": simplices}

    def checks(self, inp, out, tmp):
        res = []
        for i, ((pd0, pd1), cloud) in enumerate(zip(out["diagrams"], out["clouds"])):
            if inp["max_scale"][i] is None:
                res.append(_h0_check(i, pd0, cloud, inp["temporal"][i]))
            path = os.path.join(tmp, f"check_{i:03d}.csv")
            write_diagrams(path, (pd0, pd1))
            res.append((f"item {i}: diagram CSV round trip", _diagram_roundtrip(path, (pd0, pd1))))
        dm = out["dms"]["hilbert"]
        res += _matrix_checks("hilbert", dm, HALF_PI)
        path = os.path.join(tmp, "check_matrix.csv")
        write_matrix(path, dm)
        res.append(("hilbert: matrix CSV round trip", _matrix_roundtrip(path, dm)))
        res.append((f"loo_accuracy >= {self.loo_floor}", out["loo"] >= self.loo_floor))
        return res

    def counts(self, inp, out):
        n = len(out["clouds"])
        points = sum(c.shape[0] for c in out["clouds"])
        return {
            "embedding.points_out": points,
            "persistence.points_in": points,
            "persistence.h0_pairs": sum(d[0].pairs.shape[0] for d in out["diagrams"]),
            "persistence.h1_pairs": sum(d[1].pairs.shape[0] for d in out["diagrams"]),
            "density.kde.points_in": sum(out["kde_points"]),
            "density.kde.cells": n * GRID * GRID,
            "density.kde.flops": sum(kde_flops(p) for p in out["kde_points"]),
            "analysis.distance_matrix.hilbert.pairs": math.comb(n, 2),
        }


# ---------------------------------------------------------------------------
# matching_baseline: the classical Wasserstein baseline, dominated by Hungarian


def _loop(rng, n: int, center, radius: float) -> np.ndarray:
    theta = 2 * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
    r = radius * (1.0 + rng.normal(0.0, 0.04, n))
    return np.column_stack([center[0] + r * np.cos(theta), center[1] + r * np.sin(theta)])


def _cloud(rng, label: str, n: int) -> np.ndarray:
    if label == "one_loop":
        return _loop(rng, n, (0.0, 0.0), 1.0)
    if label == "two_loops":
        half = n // 2
        return np.vstack(
            [_loop(rng, half, (-0.8, 0.0), 0.35), _loop(rng, n - half, (0.8, 0.0), 0.35)]
        )
    return rng.uniform(-1.0, 1.0, (n, 2))


class MatchingBaseline(Workload):
    name = "matching_baseline"
    why = (
        "24 2-D clouds of 25-40 points in 3 classes compared by w1, w2 and hilbert on "
        "normalized H0 diagrams; the Hungarian solves do most of the work"
    )
    classes = ("one_loop", "two_loops", "noise")
    per_class = 8
    items = 24
    item_key = "clouds"
    loo_floor = 0.7
    warm_items = 4
    triples = 200  # sampled w1 triangle-inequality checks
    sample_pairs = 20  # matrix pairs re-solved in the traced breakdown

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        sizes = _class_sizes(25, 40, self.per_class, len(self.classes))
        clouds = [
            _cloud(rng, self.classes[idx // self.per_class], n)
            for idx, n in enumerate(sizes.tolist())
        ]
        labels = [self.classes[idx // self.per_class] for idx in range(sizes.size)]
        order = rng.permutation(sizes.size).tolist()
        i, j = np.triu_indices(sizes.size, 1)
        pick = rng.choice(i.size, self.sample_pairs, replace=False)
        return {
            "clouds": [clouds[k] for k in order],
            "labels": [labels[k] for k in order],
            "sample": list(zip(i[pick].tolist(), j[pick].tolist())),
            "triples": rng.integers(0, sizes.size, (self.triples, 3)).tolist(),
        }

    def run(self, inp, tr, tmp, meter):
        n = len(inp["clouds"])
        h0 = []
        for i, cloud in enumerate(inp["clouds"]):
            with meter.item(i):
                with tr.span("persistence.diagram_of_cloud", i):
                    pd0, _ = diagram_of_cloud(cloud)
            h0.append(pd0)
        scale = max(pd.max_finite() for pd in h0)
        units = []
        for i, pd0 in enumerate(h0):
            with meter.item(i):
                with tr.span("persistence.normalize_diagram", i):
                    units.append(normalize_diagram(pd0, scale))
        pdfs = []
        for i, unit in enumerate(units):
            with tr.span("density.kde", i):
                pdfs.append(kde(unit, SIGMA, GRID))
        dms, accs = {}, {}
        for metric, items in (("w1", units), ("w2", units), ("hilbert", pdfs)):
            with tr.span(f"analysis.distance_matrix.{metric}"):
                dms[metric] = distance_matrix(items, metric)
            with tr.span("analysis.loo_knn_accuracy"):
                accs[metric] = loo_knn_accuracy(dms[metric], inp["labels"])
        mids = []
        for i in range(n - 1):
            with tr.span("wasserstein.alexandrov_geodesic", i):
                mids.append(alexandrov_geodesic(units[i], units[i + 1], 0.5))
        with tr.span("analysis.write_matrix"):
            write_matrix(os.path.join(tmp, "w1.csv"), dms["w1"])
        return {
            "loo": min(accs.values()),
            "accs": accs,
            "h0": h0,
            "units": units,
            "dms": dms,
            "mids": mids,
        }

    def breakdown(self, inp, out, tr):
        simplices = 0
        for i, cloud in enumerate(inp["clouds"]):
            with tr.span("persistence.build_rips", i):
                filt = build_rips(cloud, _cloud_diameter(cloud) or 1.0)
            with tr.span("persistence.compute_persistence", i):
                compute_persistence(filt)
            simplices += len(filt.simplices)
        units = out["units"]
        for a, b in inp["sample"]:
            for q in (1, 2):
                with tr.span("wasserstein.wasserstein", (a, b)):
                    wasserstein(units[a], units[b], q)
        return {"persistence.simplices": simplices}

    def checks(self, inp, out, tmp):
        res = [
            _h0_check(i, pd0, cloud, False)
            for i, (pd0, cloud) in enumerate(zip(out["h0"], inp["clouds"]))
        ]
        for metric, dm in out["dms"].items():
            res += _matrix_checks(metric, dm, HALF_PI if metric == "hilbert" else None)
        w1 = out["dms"]["w1"].values
        for a, b, c in inp["triples"]:
            ok = w1[a, c] <= w1[a, b] + w1[b, c] + 1e-12
            res.append((f"w1 triangle {a},{b},{c}", bool(ok)))
        units, w2 = out["units"], out["dms"]["w2"].values
        for i, mid in enumerate(out["mids"]):
            # The matched interpolation bounds both halves by half the distance.
            half = w2[i, i + 1] / 2 + 1e-9
            ok = max(wasserstein(units[i], mid, 2)[0], wasserstein(mid, units[i + 1], 2)[0]) <= half
            res.append((f"midpoint {i}: halfway in w2", bool(ok)))
        path = os.path.join(tmp, "check_matrix.csv")
        write_matrix(path, out["dms"]["w1"])
        res.append(("w1: matrix CSV round trip", _matrix_roundtrip(path, out["dms"]["w1"])))
        for metric, acc in out["accs"].items():
            res.append((f"{metric} loo_accuracy >= {self.loo_floor}", acc >= self.loo_floor))
        return res

    def counts(self, inp, out):
        n = len(inp["clouds"])
        points = sum(c.shape[0] for c in inp["clouds"])
        sizes = [u.pairs.shape[0] for u in out["units"]]
        solves = np.concatenate(
            [
                _assignment_sizes(sizes),  # w1 matrix
                _assignment_sizes(sizes),  # w2 matrix
                np.asarray(sizes[:-1]) + np.asarray(sizes[1:]),  # midpoints
            ]
        )
        return {
            "persistence.points_in": points,
            "persistence.h0_pairs": sum(pd.pairs.shape[0] for pd in out["h0"]),
            "density.kde.points_in": sum(sizes),
            "density.kde.cells": n * GRID * GRID,
            "density.kde.flops": sum(kde_flops(p) for p in sizes),
            "wasserstein.assignment_n.sum": int(solves.sum()),
            "wasserstein.assignment_n.max": int(solves.max()),
            "wasserstein.assignment_ops": int((solves.astype(np.int64) ** 3).sum()),
            "analysis.distance_matrix.hilbert.pairs": math.comb(n, 2),
            "analysis.distance_matrix.w1.pairs": math.comb(n, 2),
            "analysis.distance_matrix.w2.pairs": math.comb(n, 2),
        }


# ---------------------------------------------------------------------------
# sphere_stats: the paper's headline use on diagrams too large to match


# Per class, the means of its two blobs of (birth, persistence).
_BLOBS = (
    ((0.20, 0.10), (0.50, 0.30)),
    ((0.25, 0.15), (0.45, 0.25)),
    ((0.15, 0.20), (0.55, 0.15)),
)


def _unit_diagram(rng, cls: int, n: int) -> PersistenceDiagram:
    blobs = np.asarray(_BLOBS[cls]) + rng.normal(0.0, 0.06, (2, 2))
    which = rng.random(n) < 0.5
    centers = np.where(which[:, None], blobs[0], blobs[1])
    bp = centers + rng.normal(0.0, 0.07, (n, 2))
    birth = np.clip(bp[:, 0], 0.0, 0.9)
    death = np.minimum(birth + np.abs(bp[:, 1]) + 0.01, 1.0)
    return PersistenceDiagram(1, np.column_stack([birth, death]))


class SphereStats(Workload):
    name = "sphere_stats"
    why = (
        "1500 unit-square diagrams of 20-500 points in 3 classes through KDE, Hilbert "
        "k-NN, PGA, geodesics and the mean; no persistence or matching"
    )
    classes = ("class_a", "class_b", "class_c")
    per_class = 500
    items = 1500
    item_key = "diagrams"
    loo_floor = 0.6
    warm_items = 300
    components = 8
    geodesic_pairs = 200
    steps = (0.25, 0.5, 0.75)
    io_grids = 32

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        sizes = _class_sizes(20, 500, self.per_class, len(self.classes))
        diagrams = [
            _unit_diagram(rng, idx // self.per_class, n) for idx, n in enumerate(sizes.tolist())
        ]
        labels = [self.classes[idx // self.per_class] for idx in range(sizes.size)]
        order = rng.permutation(sizes.size).tolist()
        a = rng.integers(0, sizes.size, self.geodesic_pairs)
        b = (a + rng.integers(1, sizes.size, self.geodesic_pairs)) % sizes.size
        return {
            "diagrams": [diagrams[k] for k in order],
            "labels": [labels[k] for k in order],
            "pairs": list(zip(a.tolist(), b.tolist())),
        }

    def smallest(self, inp, n):
        cut = super().smallest(inp, n)
        cut["pairs"] = [(a % n, b % n) for a, b in inp["pairs"] if a % n != b % n]
        return cut

    def run(self, inp, tr, tmp, meter):
        n = len(inp["diagrams"])
        pdfs, psis = [], []
        for i, pd in enumerate(inp["diagrams"]):
            with meter.item(i):
                with tr.span("density.kde", i):
                    pdf = kde(pd, SIGMA, GRID)
                with tr.span("density.sqrt_transform", i):
                    psi = sqrt_transform(pdf)
            pdfs.append(pdf)
            psis.append(psi)
        with tr.span("analysis.distance_matrix.hilbert"):
            dm = distance_matrix(pdfs, "hilbert")
        with tr.span("analysis.loo_knn_accuracy"):
            acc = loo_knn_accuracy(dm, inp["labels"])
        with tr.span("analysis.pga_features"):
            model, coords = pga_features(psis, self.components)
        geos = []
        for a, b in inp["pairs"]:
            for s in self.steps:
                with tr.span("sphere.geodesic", (a, b)):
                    geos.append(geodesic(psis[a], psis[b], s))
        with tr.span("sphere.extrinsic_mean"):
            mean = extrinsic_mean(psis)
        for j in range(min(self.io_grids, n)):
            path = os.path.join(tmp, f"grid_{j:03d}.csv")
            with tr.span("density.write_grid", j):
                write_grid(path, psis[j].grid)
            with tr.span("density.read_grid", j):
                read_grid(path)
        return {
            "loo": acc,
            "psis": psis,
            "dms": {"hilbert": dm},
            "coords": coords,
            "geos": geos,
            "mean": mean,
        }

    def breakdown(self, inp, out, tr):
        psis = out["psis"]
        with tr.span("sphere.pga"):
            model = pga(psis, self.components)
        for i, psi in enumerate(psis):
            with tr.span("sphere.project_coords", i):
                project_coords(model, psi)
        return {"sphere.clamp_events": sum(g.clamp_mass > 0 for g in out["geos"])}

    def checks(self, inp, out, tmp):
        psis = out["psis"]
        res = _matrix_checks("hilbert", out["dms"]["hilbert"], HALF_PI)
        k = 0
        for a, b in inp["pairs"]:
            d = distance(psis[a], psis[b])
            for s in self.steps:
                got = distance(psis[a], out["geos"][k])
                res.append((f"geodesic {a},{b} at {s}: arc length", abs(got - s * d) <= 1e-9))
                k += 1
        for j in range(min(self.io_grids, len(psis))):
            path = os.path.join(tmp, f"check_grid_{j:03d}.csv")
            write_grid(path, psis[j].grid)
            same = np.array_equal(read_grid(path), psis[j].grid)
            res.append((f"grid {j}: CSV round trip", bool(same)))
        res.append(("pga coordinates shape", out["coords"].shape == (len(psis), self.components)))
        res.append((f"loo_accuracy >= {self.loo_floor}", out["loo"] >= self.loo_floor))
        return res

    def counts(self, inp, out):
        n = len(inp["diagrams"])
        points = [pd.pairs.shape[0] for pd in inp["diagrams"]]
        return {
            "density.kde.points_in": sum(points),
            "density.kde.cells": n * GRID * GRID,
            "density.kde.flops": sum(kde_flops(p) for p in points),
            "analysis.distance_matrix.hilbert.pairs": math.comb(n, 2),
        }


WORKLOADS = {w.name: w for w in (SeriesPipeline(), MatchingBaseline(), SphereStats())}
