"""Dataset-level tooling: distance matrices, k-NN, leave-one-out regression,
timing comparisons, and the synthetic 3-class benchmark."""

from __future__ import annotations

import time
from dataclasses import dataclass, asdict

import numpy as np

from .density import PersistencePdf, kde, sqrt_stack
from .errors import ParseError, read_csv, read_json, write_csv, write_json
from .persistence import PersistenceDiagram, diagram_of_cloud
from .wasserstein import pair_distances, wasserstein

METRICS = ("hilbert", "w1", "w2")


class ConfigurationError(ValueError):
    """Items cannot be compared under the requested metric."""


@dataclass
class DistanceMatrix:
    """Symmetric pairwise distances with item labels."""

    labels: list[str]
    values: np.ndarray
    metric: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n = self.values.shape[0]
        if self.values.shape != (n, n):
            raise ValueError("distance matrix must be square")
        if len(self.labels) != n:
            raise ValueError("label count does not match matrix size")
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        if not np.array_equal(self.values, self.values.T):
            raise ValueError("distance matrix must be exactly symmetric")
        if np.any(np.diag(self.values) != 0):
            raise ValueError("distance matrix diagonal must be exactly zero")
        if np.any(self.values < 0):
            raise ValueError("distances must be nonnegative")


def cross_distances(rows, cols, metric: str) -> np.ndarray:
    """
    Distances from every item of `rows` to every item of `cols`.

    For metric 'hilbert', items are PersistencePdf objects sharing grid
    resolution and bandwidth (mixed parameters raise ConfigurationError).
    Each side is stacked once by `sqrt_stack`, rows bit-identical to
    `sqrt_transform`, and every entry is the arc length
    arccos(clip(<a, b>)), taken from one matrix product. For 'w1'
    and 'w2', items are PersistenceDiagram objects compared by exact
    Wasserstein matching through `pair_distances`: the pairs whose points
    share one birth (all Rips H0 pairs) are solved together in one
    vectorized alignment, the others one at a time, and every entry
    equals the pair's `wasserstein` distance. Passing the same list as
    both sides computes each pair once and mirrors it, so the result is
    exactly symmetric with a zero diagonal.
    """
    same = rows is cols
    items = (*rows, *cols)
    if metric == "hilbert":
        if not all(isinstance(p, PersistencePdf) for p in items):
            raise ConfigurationError("hilbert metric expects PersistencePdf items")
        for p in items[1:]:
            if p.grid_size != items[0].grid_size:
                raise ConfigurationError(
                    f"mixed grid resolutions: {items[0].grid_size} vs {p.grid_size}"
                )
            if p.sigma != items[0].sigma:
                raise ConfigurationError(f"mixed bandwidths: {items[0].sigma} vs {p.sigma}")
        cells = items[0].grid.size if items else 0
        a = sqrt_stack(rows).reshape(len(rows), cells)
        b = a if same else sqrt_stack(cols).reshape(len(cols), cells)
        dist = a @ b.T
        dist /= cells
        np.clip(dist, -1.0, 1.0, out=dist)
        np.arccos(dist, out=dist)
    elif metric in ("w1", "w2"):
        if not all(isinstance(p, PersistenceDiagram) for p in items):
            raise ConfigurationError(f"{metric} expects PersistenceDiagram items")
        if same:
            i, j = np.triu_indices(len(rows), 1)
        else:
            i, j = (a.ravel() for a in np.indices((len(rows), len(cols))))
        dist = np.zeros((len(rows), len(cols)))
        dist[i, j] = pair_distances(
            [rows[a] for a in i.tolist()], [cols[b] for b in j.tolist()],
            1 if metric == "w1" else 2,
        )
    else:
        raise ValueError(f"unknown metric {metric!r}; pick one of {METRICS}")
    if same:
        upper = np.triu(dist, 1)
        dist = upper + upper.T
    return dist


def distance_matrix(items, metric: str, labels=None) -> DistanceMatrix:
    """
    All-pairs distances between items under `metric`, as computed by
    `cross_distances` with `items` on both sides: each pair is computed
    once and mirrored, so the matrix is exactly symmetric with a zero
    diagonal. Under 'w1' and 'w2', all pairs of one-birth (Rips H0)
    diagrams are solved together in one vectorized alignment.
    """
    items = list(items)
    if len(items) < 2:
        raise ValueError("need at least 2 items for a distance matrix")
    if labels is None:
        labels = [f"item_{i:03d}" for i in range(len(items))]
    labels = [str(b) for b in labels]
    values = cross_distances(items, items, metric)
    return DistanceMatrix(labels=labels, values=values, metric=metric)


def knn_classify(dists, train_labels, k: int = 1) -> list:
    """
    Majority vote over the k nearest training items per row of `dists`.

    `dists` has shape (n_test, n_train). The k nearest are those a stable
    sort of the row puts first, so equal distances go to the lower column.
    Vote ties break by the smallest summed distance within the k nearest,
    then by label sort order. NaN distances are rejected.
    """
    dists = np.asarray(dists, dtype=float)
    if dists.ndim == 1:
        dists = dists.reshape(1, -1)
    train_labels = list(train_labels)
    n_train = dists.shape[1]
    if n_train == 0 or len(train_labels) == 0:
        raise ValueError("training set is empty")
    if len(train_labels) != n_train:
        raise ValueError("label count does not match distance columns")
    if not 1 <= k <= n_train:
        raise ValueError(f"k must be in [1, {n_train}], got {k}")
    if np.isnan(dists).any():
        raise ValueError("distances contain NaN")
    # np.argmin returns the first minimum, the item a stable sort puts first.
    if k == 1:
        nearest = np.argmin(dists, axis=1)[:, None]
    else:
        nearest = np.argsort(dists, axis=1, kind="stable")[:, :k]
    predictions = []
    for row, idxs in zip(dists, nearest.tolist()):
        votes: dict = {}
        for idx in idxs:
            label = train_labels[idx]
            count, total = votes.get(label, (0, 0.0))
            votes[label] = (count + 1, total + float(row[idx]))
        winner = min(votes, key=lambda lab: (-votes[lab][0], votes[lab][1], str(lab)))
        predictions.append(winner)
    return predictions


def loo_knn_accuracy(matrix: DistanceMatrix, labels, k: int = 1) -> float:
    """
    Leave-one-out k-NN accuracy over a square distance matrix.

    Each item is classified by the k nearest of the other n - 1, so k must
    be in [1, n - 1].
    """
    labels = list(labels)
    n = len(labels)
    if matrix.values.shape[0] != n:
        raise ValueError("label count does not match the matrix")
    if not 1 <= k <= n - 1:
        raise ValueError(f"k must be in [1, {n - 1}], got {k}")
    dists = matrix.values.copy()
    np.fill_diagonal(dists, np.inf)
    predictions = knn_classify(dists, labels, k)
    return sum(p == lab for p, lab in zip(predictions, labels)) / n


def loo_regression(features, scores):
    """
    Leave-one-out ordinary least squares with an intercept.

    Each sample is predicted by a fit on all other samples. Rank-deficient
    designs fall back to ridge with a small trace-scaled regularizer
    (1e-8 * trace(X'X) / n_cols). Returns (predictions, pearson_r).
    """
    x = np.asarray(features, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    y = np.asarray(scores, dtype=float).reshape(-1)
    n = x.shape[0]
    if y.size != n:
        raise ValueError("feature and score counts differ")
    if n < 3:
        raise ValueError(f"need at least 3 samples, got {n}")
    predictions = np.empty(n)
    for i in range(n):
        mask = np.arange(n) != i
        design = np.column_stack([np.ones(n - 1), x[mask]])
        beta, _, rank, _ = np.linalg.lstsq(design, y[mask], rcond=None)
        if rank < design.shape[1]:
            gram = design.T @ design
            lam = 1e-8 * np.trace(gram) / design.shape[1]
            beta = np.linalg.solve(gram + lam * np.eye(design.shape[1]), design.T @ y[mask])
        predictions[i] = float(np.concatenate([[1.0], x[i]]) @ beta)
    return predictions, pearson_r(predictions, y)


def pearson_r(a, b) -> float:
    """Pearson correlation with a 0.0 guard for zero-variance inputs."""
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    da, db = a - a.mean(), b - b.mean()
    denom = np.sqrt((da * da).sum() * (db * db).sum())
    if denom == 0:
        return 0.0
    return float((da * db).sum() / denom)


# ---------------------------------------------------------------------------
# Timing comparison


@dataclass
class BenchReport:
    """Per-pair wall-time statistics for the two metric families."""

    n_points: int
    grid_size: int
    sigma: float
    pairs: int
    seed: int
    hilbert_mean_s: float
    hilbert_std_s: float
    w1_mean_s: float
    w1_std_s: float

    def __post_init__(self):
        if self.pairs < 1:
            raise ValueError("pair count must be >= 1")
        if self.hilbert_mean_s <= 0 or self.w1_mean_s <= 0:
            raise ValueError("mean times must be positive")


def write_bench_report(path, report: BenchReport) -> None:
    write_json(path, asdict(report))


def read_bench_report(path) -> BenchReport:
    try:
        return BenchReport(**read_json(path))
    except TypeError as exc:
        raise ParseError(f"{path}: not a benchmark report: {exc}") from exc


def random_diagram(rng: np.random.Generator, n_points: int) -> PersistenceDiagram:
    """Random unit-square diagram with `n_points` off-diagonal points."""
    births = rng.uniform(0.0, 0.6, n_points)
    deaths = births + rng.uniform(0.02, 0.35, n_points)
    return PersistenceDiagram(1, np.column_stack([births, deaths]))


def benchmark(
    n_points: int,
    grid_size: int = 64,
    sigma: float = 0.05,
    trials: int = 100,
    seed: int = 0,
    repeats: int = 7,
) -> BenchReport:
    """
    Time per-pair distance computation for both metric families.

    Generates `trials` seeded random diagram pairs with `n_points` points
    each. The matching side times one Hungarian solve per pair (mean and
    std over pairs). The sphere side amortizes density estimation (one
    density per diagram in any realistic pipeline), then times the batched
    inner-product-plus-arccos over all pairs; per-pair cost is the batch
    time divided by the pair count, with mean and std over `repeats` runs.
    """
    if trials < 10:
        raise ValueError(f"need at least 10 trials, got {trials}")
    if repeats < 2:
        raise ValueError(f"need at least 2 repeats, got {repeats}")

    rng = np.random.default_rng(seed)
    xs = [random_diagram(rng, n_points) for _ in range(trials)]
    ys = [random_diagram(rng, n_points) for _ in range(trials)]

    # Densities are computed once per diagram and reused across all pairs.
    cells = grid_size * grid_size
    flat_x = sqrt_stack([kde(d, sigma, grid_size) for d in xs]).reshape(trials, cells)
    flat_y = sqrt_stack([kde(d, sigma, grid_size) for d in ys]).reshape(trials, cells)

    def hilbert_batch():
        start = time.perf_counter()
        cosines = np.einsum("ij,ij->i", flat_x, flat_y) / cells
        np.arccos(np.clip(cosines, -1.0, 1.0))
        return (time.perf_counter() - start) / trials

    hilbert_batch()  # warmup
    hilbert_times = np.asarray([hilbert_batch() for _ in range(repeats)])

    wasserstein(xs[0], ys[0], 1)  # warmup
    w1_times = np.empty(trials)
    for t in range(trials):
        start = time.perf_counter()
        wasserstein(xs[t], ys[t], 1)
        w1_times[t] = time.perf_counter() - start

    return BenchReport(
        n_points=n_points,
        grid_size=grid_size,
        sigma=sigma,
        pairs=trials,
        seed=seed,
        hilbert_mean_s=float(hilbert_times.mean()),
        hilbert_std_s=float(hilbert_times.std()),
        w1_mean_s=float(w1_times.mean()),
        w1_std_s=float(w1_times.std()),
    )


# ---------------------------------------------------------------------------
# Synthetic benchmark data


CLASS_LABELS = ("one_loop", "two_loops", "noise")


def _loop_points(rng: np.random.Generator, n: int, center, radius: float) -> np.ndarray:
    # Evenly spaced angles with jitter keep the cycle's birth scale stable
    # across instances while the noise keeps instances distinct.
    theta = 2.0 * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n
    r = radius * (1.0 + rng.normal(0.0, 0.03, n))
    return np.column_stack(
        [center[0] + r * np.cos(theta), center[1] + r * np.sin(theta)]
    )


def _cloud(rng: np.random.Generator, label: str, n: int) -> np.ndarray:
    # One cloud of n points of the class `label`, one of CLASS_LABELS.
    if label == "one_loop":
        return _loop_points(rng, n, (0.0, 0.0), 1.0)
    if label == "two_loops":
        half = n // 2
        return np.vstack([_loop_points(rng, half, (-0.8, 0.0), 0.45),
                          _loop_points(rng, n - half, (0.8, 0.0), 0.45)])
    return rng.uniform(-1.0, 1.0, (n, 2))


def synthetic_clouds(
    per_class: int = 30,
    n_classes: int = 3,
    seed: int = 0,
    n_min: int = 20,
    n_max: int = 40,
):
    """
    Seeded 3-class point-cloud benchmark.

    Classes: one noisy loop (one dominant 1-cycle), two disjoint noisy
    loops (two 1-cycles), and uniform noise (only short-lived 1-cycles).
    Every cloud is drawn until its H1 diagram is non-empty so the density
    pipeline never sees an empty diagram; the redraw sequence is part of
    the seeded stream, so outputs are reproducible.

    Returns (clouds, labels).
    """
    if not 1 <= n_classes <= len(CLASS_LABELS):
        raise ValueError(f"n_classes must be in [1, {len(CLASS_LABELS)}]")
    if per_class < 1:
        raise ValueError("per_class must be >= 1")
    if not 3 <= n_min <= n_max:
        raise ValueError("need 3 <= n_min <= n_max")
    rng = np.random.default_rng(seed)
    clouds, labels = [], []
    for label in CLASS_LABELS[:n_classes]:
        for _ in range(per_class):
            for _attempt in range(64):
                n = int(rng.integers(n_min, n_max + 1))
                cloud = _cloud(rng, label, n)
                _, pd1 = diagram_of_cloud(cloud)
                if pd1.pairs.shape[0] > 0:
                    break
            else:
                raise RuntimeError(f"could not draw a cloud with 1-cycles for {label}")
            clouds.append(cloud)
            labels.append(label)
    return clouds, labels


# ---------------------------------------------------------------------------
# Distance-matrix CSV


def write_matrix(path, matrix: DistanceMatrix) -> None:
    """CSV with a label header row and a label column."""
    write_csv(path, matrix.values, ["", *matrix.labels], [[label] for label in matrix.labels])


def read_matrix(path, metric: str = "hilbert") -> DistanceMatrix:
    """Read a matrix written by write_matrix."""
    table = read_csv(path, ",...", text=1)
    labels = table.header[1:]
    if len(table.linenos) != len(labels):
        raise ParseError(f"{path}: row count does not match header labels")
    return DistanceMatrix(labels=labels, values=table.values, metric=metric)
