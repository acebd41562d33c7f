import importlib

import numpy as np
import pytest

from persphere.analysis import (
    BenchReport,
    ConfigurationError,
    DistanceMatrix,
    benchmark,
    cross_distances,
    distance_matrix,
    knn_classify,
    loo_knn_accuracy,
    loo_regression,
    pearson_r,
    random_diagram,
    read_bench_report,
    read_matrix,
    synthetic_clouds,
    write_bench_report,
    write_matrix,
)
from persphere.density import kde, sqrt_transform
from persphere.persistence import PersistenceDiagram, diagram_of_cloud, normalize_diagram
from persphere.sphere import pga_features, project_coords
from persphere.wasserstein import wasserstein

W = importlib.import_module("persphere.wasserstein")


def _pdfs(point_sets, sigma=0.05, k=32):
    return [
        kde(PersistenceDiagram(1, np.asarray(p, dtype=float)), sigma, k)
        for p in point_sets
    ]


def test_distance_matrix_identical_items():
    pdfs = _pdfs([[[0.3, 0.7]], [[0.3, 0.7]]])
    dm = distance_matrix(pdfs, "hilbert")
    assert dm.values.shape == (2, 2)
    assert np.all(np.diag(dm.values) == 0)
    assert abs(dm.values[0, 1]) < 1e-6

    pds = [PersistenceDiagram(1, np.array([[0.1, 0.5]]))] * 2
    dm_w = distance_matrix(pds, "w1")
    assert np.all(dm_w.values == 0)


def test_distance_matrix_bounds_and_symmetry():
    rng = np.random.default_rng(2)
    pdfs = _pdfs([[[b, b + 0.2]] for b in rng.uniform(0.1, 0.7, 6)])
    dm = distance_matrix(pdfs, "hilbert")
    assert np.array_equal(dm.values, dm.values.T)
    assert dm.values.max() <= np.pi / 2 + 1e-12

    pds = [random_diagram(rng, 3) for _ in range(5)]
    for metric in ("w1", "w2"):
        dm = distance_matrix(pds, metric)
        assert np.array_equal(dm.values, dm.values.T)
        assert np.all(dm.values >= 0)


def test_distance_matrix_configuration_errors():
    a = _pdfs([[[0.3, 0.7]]], k=32)[0]
    b = _pdfs([[[0.3, 0.7]]], k=64)[0]
    with pytest.raises(ConfigurationError):
        distance_matrix([a, b], "hilbert")
    c = _pdfs([[[0.3, 0.7]]], sigma=0.1, k=32)[0]
    with pytest.raises(ConfigurationError):
        distance_matrix([a, c], "hilbert")
    with pytest.raises(ConfigurationError):
        distance_matrix([a, PersistenceDiagram(1, np.array([[0.1, 0.3]]))], "hilbert")
    with pytest.raises(ValueError):
        distance_matrix([a], "hilbert")
    with pytest.raises(ConfigurationError):
        cross_distances([a, c], [a, c], "w1")
    with pytest.raises(ValueError, match="unknown metric"):
        cross_distances([a, c], [a, c], "l2")


def _sqrt_stack(pdfs):
    # Independent oracle, not the code under test: the square-root form
    # written out, the cellwise root over its discrete norm sqrt(sum / K^2).
    rows = []
    for p in pdfs:
        psi = np.sqrt(p.grid)
        rows.append((psi / np.sqrt(float((psi * psi).sum()) / psi.size)).ravel())
    return np.stack(rows)


def test_hilbert_matrix_equals_per_item_sqrt_rows():
    rng = np.random.default_rng(41)
    pdfs = _pdfs(
        [np.column_stack([b, b + rng.uniform(0.05, 0.3, b.size)])
         for b in (rng.uniform(0.0, 0.6, rng.integers(1, 8)) for _ in range(9))],
        k=32,
    )
    a = _sqrt_stack(pdfs)
    upper = np.triu(np.arccos(np.clip((a @ a.T) / a.shape[1], -1.0, 1.0)), 1)
    assert np.array_equal(cross_distances(pdfs, pdfs, "hilbert"), upper + upper.T)
    rows, cols = pdfs[:4], pdfs[2:]
    a, b = _sqrt_stack(rows), _sqrt_stack(cols)
    want = np.arccos(np.clip((a @ b.T) / a.shape[1], -1.0, 1.0))
    assert np.array_equal(cross_distances(rows, cols, "hilbert"), want)


@pytest.mark.parametrize("metric", ["hilbert", "w1", "w2"])
def test_cross_distances_with_an_empty_side(metric):
    items = _pdfs([[[0.3, 0.7]], [[0.2, 0.5]], [[0.1, 0.9]]])
    if metric != "hilbert":
        items = [PersistenceDiagram(1, np.array([[0.3, 0.7]]))] * 3
    assert cross_distances([], items, metric).shape == (0, 3)
    assert cross_distances(items, [], metric).shape == (3, 0)
    assert cross_distances([], [], metric).shape == (0, 0)


def _line_list(rng, n, dim=0):
    # One-birth diagrams born at 0 or 0.3, some empty, with deaths on a
    # coarse grid, so ties within and across diagrams are common.
    out = []
    for _ in range(n):
        birth = float(rng.choice([0.0, 0.3]))
        deaths = birth + float(rng.choice([0.05, 0.1, 0.25])) * rng.integers(1, 6, rng.integers(0, 9))
        out.append(PersistenceDiagram(dim, np.column_stack([np.full(deaths.size, birth), deaths])))
    return out


def _per_pair(rows, cols, metric):
    # The loop that cross_distances replaced: one wasserstein call per pair.
    q = 1 if metric == "w1" else 2
    same = rows is cols
    ref = np.zeros((len(rows), len(cols)))
    for i, d in enumerate(rows):
        for j in range(i + 1 if same else 0, len(cols)):
            ref[i, j] = wasserstein(d, cols[j], q)[0]
    return ref + ref.T if same else ref


@pytest.mark.parametrize("metric", ["w1", "w2"])
def test_wasserstein_matrix_equals_per_pair(metric, monkeypatch):
    rng = np.random.default_rng(31)
    items = _line_list(rng, 14)
    assert np.array_equal(cross_distances(items, items, metric), _per_pair(items, items, metric))
    # Rows and columns apart, as k-NN compares test items with training items.
    rows, cols = items[:5], _line_list(rng, 9)
    assert np.array_equal(cross_distances(rows, cols, metric), _per_pair(rows, cols, metric))
    # One-birth diagrams beside generic H1 diagrams: the line batch and the
    # Hungarian solve fill one matrix.
    solve, sizes = W._solve_assignment, []
    monkeypatch.setattr(W, "_solve_assignment", lambda c: sizes.append(len(c)) or solve(c))
    mixed = _line_list(rng, 6, dim=1) + [random_diagram(rng, 4) for _ in range(4)]
    assert np.array_equal(cross_distances(mixed, mixed, metric), _per_pair(mixed, mixed, metric))
    assert sizes


def test_wasserstein_matrix_in_many_batches(monkeypatch):
    rng = np.random.default_rng(32)
    items = _line_list(rng, 12)
    whole = {m: cross_distances(items, items, m) for m in ("w1", "w2")}
    batched, batches = W._line_distances, []
    monkeypatch.setattr(W, "_line_distances", lambda xs, ys, q: batches.append(len(xs)) or batched(xs, ys, q))
    monkeypatch.setattr(W, "LINE_BATCH_CELLS", 2000)
    for metric, values in whole.items():
        assert np.array_equal(cross_distances(items, items, metric), values)
        rows = items[:4]
        assert np.array_equal(cross_distances(rows, items, metric), _per_pair(rows, items, metric))
    assert len(batches) > 4 and max(batches) < 66


def test_wasserstein_matrix_rejects_mixed_dimensions():
    h0 = _line_list(np.random.default_rng(33), 3)
    empty_h1 = PersistenceDiagram(1, np.empty((0, 2)))
    for metric in ("w1", "w2"):
        with pytest.raises(ValueError, match="homology dimensions"):
            cross_distances([*h0, empty_h1], [*h0, empty_h1], metric)
        with pytest.raises(ValueError, match="homology dimensions"):
            cross_distances(h0, [empty_h1], metric)


def test_knn_basics_and_ties():
    labels = ["a", "b", "a", "b"]
    # test row identical to train item 1
    dists = np.array([[0.5, 0.0, 0.9, 0.4]])
    assert knn_classify(dists, labels, k=1) == ["b"]
    # forced tie at k=4 with balanced labels: summed distance decides
    dists = np.array([[0.1, 0.2, 0.3, 0.5]])
    assert knn_classify(dists, labels, k=4) == ["a"]  # 0.4 < 0.7
    # exact tie in count and sum: label order decides
    dists = np.array([[0.1, 0.1, 0.3, 0.3]])
    assert knn_classify(dists, labels, k=4) == ["a"]
    with pytest.raises(ValueError):
        knn_classify(dists, labels, k=0)
    with pytest.raises(ValueError):
        knn_classify(dists, [], k=1)


def test_knn_takes_whole_number_k_only():
    labels = ["a", "b", "a", "b"]
    dists = np.array([[0.1, 0.2, 0.3, 0.5], [0.5, 0.0, 0.9, 0.4]])
    for k in (1, 2, 4):
        assert knn_classify(dists, labels, k=float(k)) == knn_classify(dists, labels, k=k)
    with pytest.raises(ValueError, match="k must be an integer, got 2.5"):
        knn_classify(dists, labels, k=2.5)


def test_knn_on_training_rows_is_perfect():
    # k=1 with self-matches allowed: every row's nearest item is itself.
    rng = np.random.default_rng(14)
    pds = [random_diagram(rng, 3) for _ in range(6)]
    labels = [f"c{i % 3}" for i in range(6)]
    dm = distance_matrix(pds, "w2", labels)
    preds = knn_classify(dm.values, labels, k=1)
    assert preds == labels


def test_loo_knn_accuracy_perfect_on_tight_clusters():
    rng = np.random.default_rng(6)
    centers = {"a": 0.2, "b": 0.6}
    pdfs, labels = [], []
    for label, c in centers.items():
        for _ in range(5):
            pdfs.append(_pdfs([[[c + rng.uniform(-0.01, 0.01), c + 0.25]]])[0])
            labels.append(label)
    dm = distance_matrix(pdfs, "hilbert", labels)
    assert loo_knn_accuracy(dm, labels, k=1) == 1.0


def _knn_reference(dists, labels, k):
    # One stable argsort per row: the per-row form knn_classify must equal.
    predictions = []
    for row in np.asarray(dists, dtype=float):
        votes = {}
        for idx in np.argsort(row, kind="stable")[:k]:
            count, total = votes.get(labels[idx], (0, 0.0))
            votes[labels[idx]] = (count + 1, total + float(row[idx]))
        predictions.append(min(votes, key=lambda lab: (-votes[lab][0], votes[lab][1], str(lab))))
    return predictions


def test_knn_matches_per_row_stable_sort():
    rng = np.random.default_rng(21)
    for _ in range(40):
        n_test, n_train = int(rng.integers(1, 8)), int(rng.integers(1, 12))
        # Few distinct values, some infinite: ties everywhere.
        dists = rng.integers(0, 4, (n_test, n_train)).astype(float)
        dists[rng.random(dists.shape) < 0.1] = np.inf
        labels = [str(lab) for lab in rng.choice(["a", "b", "c"], n_train)]
        for k in range(1, n_train + 1):
            assert knn_classify(dists, labels, k) == _knn_reference(dists, labels, k)
    with pytest.raises(ValueError):
        knn_classify(np.array([[0.1, np.nan]]), ["a", "b"], k=1)


def test_loo_knn_excludes_the_held_out_item():
    # With k = n the held-out item would vote for its own label.
    values = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    dm = DistanceMatrix(["p", "q", "r"], values, "hilbert")
    labels = ["x", "x", "y"]
    for k in (0, 3):
        with pytest.raises(ValueError):
            loo_knn_accuracy(dm, labels, k)
    assert loo_knn_accuracy(dm, labels, k=2) == pytest.approx(2 / 3)


def test_loo_knn_takes_whole_number_k_only():
    values = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.5], [2.0, 1.5, 0.0]])
    dm = DistanceMatrix(["p", "q", "r"], values, "hilbert")
    labels = ["x", "x", "y"]
    assert loo_knn_accuracy(dm, labels, k=2.0) == loo_knn_accuracy(dm, labels, k=2)
    with pytest.raises(ValueError, match="k must be an integer, got 1.5"):
        loo_knn_accuracy(dm, labels, k=1.5)


def test_pga_features_consistency():
    rng = np.random.default_rng(7)
    psis = [
        sqrt_transform(p)
        for p in _pdfs([[[0.2 + rng.uniform(0, 0.2), 0.6]] for _ in range(6)], sigma=0.08)
    ]
    model, coords = pga_features(psis, 2)
    for i, psi in enumerate(psis):
        assert np.abs(coords[i] - project_coords(model, psi)).max() <= 1e-14


def test_loo_regression_exact_linear():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(20, 1))
    y = 3.0 * x[:, 0] - 1.5
    preds, r = loo_regression(x, y)
    assert np.allclose(preds, y, atol=1e-9)
    assert r == pytest.approx(1.0, abs=1e-9)


def test_loo_regression_permuted_scores_uncorrelated():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(100, 2))
    y = rng.permutation(3.0 * x[:, 0] + rng.normal(size=100))
    _, r = loo_regression(x, y)
    assert abs(r) < 0.5


def test_loo_regression_affine_feature_invariance():
    rng = np.random.default_rng(10)
    x = rng.normal(size=(15, 3))
    y = x @ np.array([1.0, -2.0, 0.5]) + rng.normal(scale=0.1, size=15)
    preds_a, _ = loo_regression(x, y)
    x_scaled = x.copy()
    x_scaled[:, 1] = 10.0 * x_scaled[:, 1] + 7.0
    preds_b, _ = loo_regression(x_scaled, y)
    assert np.allclose(preds_a, preds_b, atol=1e-8)


def test_loo_regression_rank_deficient_fallback():
    x = np.zeros((6, 2))  # constant features: rank-deficient design
    y = np.arange(6.0)
    preds, _ = loo_regression(x, y)
    assert np.all(np.isfinite(preds))


def test_loo_regression_guards():
    with pytest.raises(ValueError):
        loo_regression(np.zeros((2, 1)), np.zeros(2))
    with pytest.raises(ValueError):
        loo_regression(np.zeros((5, 1)), np.zeros(4))


def test_pearson_guard():
    assert pearson_r([1, 1, 1], [1, 2, 3]) == 0.0


def test_benchmark_workload_deterministic():
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    a = random_diagram(rng1, 10)
    b = random_diagram(rng2, 10)
    assert np.array_equal(a.pairs, b.pairs)
    assert a.pairs.shape == (10, 2)


def test_benchmark_report_fields_and_io(tmp_path):
    report = benchmark(n_points=10, grid_size=16, sigma=0.05, trials=10, seed=1, repeats=2)
    assert report.pairs == 10
    assert report.hilbert_mean_s > 0
    assert report.w1_mean_s > 0
    path = tmp_path / "bench.json"
    write_bench_report(path, report)
    back = read_bench_report(path)
    assert back == report
    with pytest.raises(ValueError):
        benchmark(n_points=10, trials=5)


def test_benchmark_takes_whole_number_counts_only():
    report = benchmark(n_points=5.0, grid_size=16.0, trials=10.0, repeats=2.0)
    assert (report.n_points, report.grid_size, report.pairs) == (5, 16, 10)
    assert type(report.n_points) is int and type(report.grid_size) is int
    for name in ("n_points", "grid_size", "trials", "repeats"):
        counts = {"n_points": 5, "grid_size": 16, "trials": 10, "repeats": 2}
        counts[name] += 0.5
        with pytest.raises(ValueError, match=f"{name} must be an integer, got"):
            benchmark(**counts)


def test_synthetic_clouds_take_whole_number_counts_only():
    clouds, labels = synthetic_clouds(per_class=2.0, n_classes=1.0, n_min=20.0, n_max=22.0, seed=4)
    want_clouds, want_labels = synthetic_clouds(per_class=2, n_classes=1, n_min=20, n_max=22, seed=4)
    assert labels == want_labels
    assert all(np.array_equal(x, y) for x, y in zip(clouds, want_clouds, strict=True))
    for name in ("per_class", "n_classes", "n_min", "n_max"):
        counts = {"per_class": 1, "n_classes": 1, "n_min": 20, "n_max": 22}
        counts[name] += 0.5
        with pytest.raises(ValueError, match=f"{name} must be an integer, got"):
            synthetic_clouds(**counts)


def test_synthetic_clouds_reproducible_and_labeled():
    clouds_a, labels_a = synthetic_clouds(per_class=3, seed=12)
    clouds_b, labels_b = synthetic_clouds(per_class=3, seed=12)
    assert labels_a == labels_b
    assert all(np.array_equal(x, y) for x, y in zip(clouds_a, clouds_b))
    assert labels_a == ["one_loop"] * 3 + ["two_loops"] * 3 + ["noise"] * 3
    for cloud in clouds_a:
        assert 20 <= cloud.shape[0] <= 40
        _, pd1 = diagram_of_cloud(cloud)
        assert pd1.pairs.shape[0] >= 1
    with pytest.raises(ValueError):
        synthetic_clouds(per_class=0)
    with pytest.raises(ValueError):
        synthetic_clouds(n_classes=5)


def test_synthetic_classes_separate():
    clouds, labels = synthetic_clouds(per_class=4, seed=3)
    diagrams = [diagram_of_cloud(c)[1] for c in clouds]
    scale = max(d.max_finite() for d in diagrams)
    normalized = [normalize_diagram(d, scale) for d in diagrams]
    pdfs = [kde(d, 0.05, 64) for d in normalized]
    for metric, items in (("hilbert", pdfs), ("w1", normalized)):
        dm = distance_matrix(items, metric, labels)
        same, cross = [], []
        n = len(labels)
        for i in range(n):
            for j in range(i + 1, n):
                (same if labels[i] == labels[j] else cross).append(dm.values[i, j])
        assert np.mean(same) < np.mean(cross)


def test_matrix_validation_and_io(tmp_path):
    with pytest.raises(ValueError):
        DistanceMatrix(["a", "b"], np.array([[0.0, 1.0], [2.0, 0.0]]), "w1")
    with pytest.raises(ValueError):
        DistanceMatrix(["a", "b"], np.array([[0.5, 1.0], [1.0, 0.0]]), "w1")
    dm = DistanceMatrix(["a", "b"], np.array([[0.0, 1.5], [1.5, 0.0]]), "w1")
    path = tmp_path / "dm.csv"
    write_matrix(path, dm)
    back = read_matrix(path, "w1")
    assert back.labels == dm.labels
    assert np.array_equal(back.values, dm.values)
