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
    pga_features,
    random_diagram,
    read_bench_report,
    read_matrix,
    synthetic_clouds,
    write_bench_report,
    write_matrix,
)
from persphere.density import kde, sqrt_transform
from persphere.persistence import PersistenceDiagram, diagram_of_cloud, normalize_diagram
from persphere.sphere import project_coords


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


def test_pga_features_consistency():
    rng = np.random.default_rng(7)
    psis = [
        sqrt_transform(p)
        for p in _pdfs([[[0.2 + rng.uniform(0, 0.2), 0.6]] for _ in range(6)], sigma=0.08)
    ]
    model, coords = pga_features(psis, 2)
    for i, psi in enumerate(psis):
        assert np.allclose(coords[i], project_coords(model, psi), atol=1e-12)


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
