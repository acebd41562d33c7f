import hashlib
import math
import threading

import numpy as np
import pytest

from persphere import persistence
from persphere.embedding import delay_embed
from persphere.errors import ParseError
from persphere.persistence import (
    Filtration,
    FiltrationError,
    PersistenceDiagram,
    build_rips,
    cloud_diameter,
    compute_persistence,
    diagram_of_cloud,
    h0_unionfind,
    normalize_diagram,
    read_diagram,
    read_diagrams,
    write_diagrams,
)

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


def _random_cloud(rng, max_points=25):
    n = int(rng.integers(2, max_points + 1))
    dim = int(rng.integers(1, 4))
    return rng.normal(size=(n, dim))


def test_rips_two_points():
    f = build_rips(np.array([[0.0], [0.4]]), max_scale=1.0)
    assert f.simplices == [((0,), 0.0), ((1,), 0.0), ((0, 1), 0.4)]


def test_rips_temporal_override():
    f = build_rips(np.array([[0.0], [0.4]]), max_scale=1.0, temporal_links=True)
    assert ((0, 1), 0.0) in f.simplices


def test_rips_temporal_links_beyond_scale():
    # Consecutive points stay linked even when farther apart than the cutoff.
    f = build_rips(np.array([[0.0], [5.0]]), max_scale=1.0, temporal_links=True)
    assert ((0, 1), 0.0) in f.simplices


def test_rips_unit_square_census():
    # Hand enumeration: four sides at 1, two diagonals at sqrt(2), and all
    # four triangles appear when their diagonal does.
    f = build_rips(UNIT_SQUARE, max_scale=3.0)
    root2 = math.sqrt(2.0)
    edges = sorted(b for v, b in f.simplices if len(v) == 2)
    triangles = sorted(b for v, b in f.simplices if len(v) == 3)
    assert edges == [1.0, 1.0, 1.0, 1.0, root2, root2]
    assert triangles == [root2, root2, root2, root2]


def test_rips_monotone_and_ordered():
    rng = np.random.default_rng(5)
    for _ in range(10):
        cloud = _random_cloud(rng, max_points=12)
        f = build_rips(cloud, max_scale=cloud_diameter(cloud))
        f.validate()
        births = {v: b for v, b in f.simplices}
        for verts, birth in f.simplices:
            if len(verts) == 2:
                assert birth >= 0
            if len(verts) == 3:
                i, j, k = verts
                assert birth == max(births[(i, j)], births[(i, k)], births[(j, k)])


def test_rips_rejects_bad_input():
    with pytest.raises(ValueError):
        build_rips(np.empty((0, 2)), max_scale=1.0)
    with pytest.raises(ValueError):
        build_rips(np.array([[np.inf, 0.0]]), max_scale=1.0)
    with pytest.raises(ValueError):
        build_rips(UNIT_SQUARE, max_scale=0.0)


def test_persistence_two_points():
    pd0, pd1 = compute_persistence(build_rips(np.array([[0.0], [0.7]]), 2.0))
    assert pd0.pairs.tolist() == [[0.0, 0.7]]
    assert pd0.essential.tolist() == [0.0]
    assert pd1.pairs.size == 0 and pd1.essential.size == 0


def test_persistence_unit_square_h1_exact():
    pd0, pd1 = compute_persistence(build_rips(UNIT_SQUARE, 3.0))
    assert pd1.essential.size == 0
    assert pd1.pairs.shape == (1, 2)
    assert pd1.pairs[0, 0] == 1.0
    assert pd1.pairs[0, 1] == math.sqrt(2.0)


def test_persistence_h0_structure():
    rng = np.random.default_rng(11)
    for _ in range(10):
        cloud = _random_cloud(rng, max_points=15)
        pd0, _ = compute_persistence(build_rips(cloud, cloud_diameter(cloud)))
        assert pd0.essential.tolist() == [0.0]
        assert pd0.pairs.shape[0] == cloud.shape[0] - 1
        assert np.all(pd0.pairs[:, 0] == 0.0)


def test_persistence_rejects_missing_face():
    with pytest.raises(FiltrationError):
        compute_persistence(Filtration([((0,), 0.0), ((0, 1), 0.5)]))
    with pytest.raises(FiltrationError):
        Filtration([((0,), 0.0), ((1,), 0.0), ((0, 1), 0.5), ((0, 2), 0.1)]).validate()


@pytest.mark.parametrize(
    "simplices, message",
    [
        ([((0, 1, 2, 3), 0.0)], "unsupported dimension"),
        ([((), 0.0)], "unsupported dimension"),
        ([((0,), 0.0), ((1,), 0.0), ((1, 0), 0.5)], "not strictly increasing"),
        ([((0,), math.nan)], "invalid birth"),
        ([((0,), -1.0)], "invalid birth"),
        ([((0,), math.inf)], "invalid birth"),
        ([((0,), 0.0), ((0,), 0.0)], "duplicate simplex"),
        # A face born after its coface is always out of (birth, dim) order.
        ([((0,), 0.0), ((1,), 0.5), ((0, 1), 0.3)], "out of order"),
    ],
)
def test_filtration_contract_messages(simplices, message):
    with pytest.raises(FiltrationError, match=message):
        Filtration(simplices).validate()
    with pytest.raises(FiltrationError, match=message):
        compute_persistence(Filtration(simplices))


def test_unionfind_collinear():
    pd = h0_unionfind(np.array([[0.0], [1.0], [2.0]]))
    assert pd.sorted_pairs().tolist() == [[0.0, 1.0], [0.0, 1.0]]
    assert pd.essential.tolist() == [0.0]


def test_unionfind_single_point():
    pd = h0_unionfind(np.array([[3.0, 4.0]]))
    assert pd.pairs.size == 0
    assert pd.essential.tolist() == [0.0]


def test_unionfind_matches_reduction():
    rng = np.random.default_rng(23)
    for _ in range(20):
        cloud = _random_cloud(rng)
        fast = h0_unionfind(cloud)
        slow, _ = compute_persistence(build_rips(cloud, cloud_diameter(cloud)))
        assert np.allclose(fast.sorted_pairs(), slow.sorted_pairs(), rtol=0, atol=0)
        assert fast.essential.size == slow.essential.size == 1


def test_unionfind_temporal_links_drop_merges():
    cloud = np.array([[0.0], [1.0], [2.0]])
    pd = h0_unionfind(cloud, temporal_links=True)
    # Consecutive merges happen at 0 and carry no persistence.
    assert pd.pairs.size == 0
    assert pd.essential.tolist() == [0.0]


def test_label_permutation_invariance():
    rng = np.random.default_rng(31)
    cloud = _random_cloud(rng, max_points=12)
    scale = cloud_diameter(cloud)
    pd0a, pd1a = compute_persistence(build_rips(cloud, scale))
    perm = rng.permutation(cloud.shape[0])
    pd0b, pd1b = compute_persistence(build_rips(cloud[perm], scale))
    assert np.allclose(pd0a.sorted_pairs(), pd0b.sorted_pairs())
    assert np.allclose(pd1a.sorted_pairs(), pd1b.sorted_pairs())


def test_stability_under_small_perturbation():
    # With a perturbation well below the smallest birth gap the pairing
    # cannot restructure, so each birth/death moves by at most twice the
    # largest point displacement.
    rng = np.random.default_rng(47)
    for _ in range(5):
        cloud = rng.uniform(0, 1, size=(10, 2))
        scale = 2.0 * cloud_diameter(cloud)
        pd0a, pd1a = compute_persistence(build_rips(cloud, scale))
        births = sorted({b for _, b in build_rips(cloud, scale).simplices})
        gaps = np.diff(births)
        eps = float(gaps[gaps > 0].min()) / 10.0
        eps = min(eps, 1e-3)
        shift = rng.normal(size=cloud.shape)
        shift *= eps / np.linalg.norm(shift, axis=1, keepdims=True)
        pd0b, pd1b = compute_persistence(build_rips(cloud + shift, scale))
        for before, after in ((pd0a, pd0b), (pd1a, pd1b)):
            assert before.pairs.shape == after.pairs.shape
            if before.pairs.size:
                delta = np.abs(before.sorted_pairs() - after.sorted_pairs())
                assert delta.max() <= 2 * eps + 1e-12


def test_normalize_basic():
    pd = PersistenceDiagram(1, np.array([[1.0, math.sqrt(2.0)]]))
    out = normalize_diagram(pd, 2.0)
    assert out.pairs[0, 0] == 0.5
    assert out.pairs[0, 1] == pytest.approx(0.70710678, abs=1e-8)


def test_normalize_empty():
    pd = PersistenceDiagram(1, np.empty((0, 2)))
    out = normalize_diagram(pd, 5.0)
    assert out.pairs.size == 0 and out.essential.size == 0


def test_normalize_caps_essential():
    pd = PersistenceDiagram(0, np.array([[0.0, 3.0]]), np.array([0.5]))
    out = normalize_diagram(pd, 4.0)
    assert out.essential.size == 0
    assert out.sorted_pairs().tolist() == [[0.0, 0.75], [0.125, 1.0]]


def test_normalize_drops_a_pair_the_division_collapses():
    # One ulp of persistence: divided by the scale, birth and death round to
    # the same float, and the pair leaves the diagram instead of failing it.
    pair = [3.650980677685421, 3.6509806776854212]
    kept = [0.25, 0.5]
    pd = PersistenceDiagram(1, np.array([kept, pair]), np.array([1.0]))
    out = normalize_diagram(pd, 10.219440075107812)
    assert out.pairs.tolist() == [
        [0.25 / 10.219440075107812, 0.5 / 10.219440075107812],
        [1.0 / 10.219440075107812, 1.0],
    ]
    assert out.essential.size == 0


def test_normalize_range_error():
    pd = PersistenceDiagram(0, np.array([[0.0, 3.0]]))
    with pytest.raises(ValueError, match="smaller than"):
        normalize_diagram(pd, 2.0)
    with pytest.raises(ValueError):
        normalize_diagram(pd, 0.0)


def test_diagram_validation():
    with pytest.raises(ValueError):
        PersistenceDiagram(1, np.array([[0.5, 0.5]]))
    with pytest.raises(ValueError):
        PersistenceDiagram(1, np.array([[0.5, 0.2]]))
    with pytest.raises(ValueError):
        PersistenceDiagram(1, np.array([[-0.1, 0.2]]))
    with pytest.raises(ValueError):
        PersistenceDiagram(2, np.empty((0, 2)))


def test_diagram_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(7)
    cloud = _random_cloud(rng, max_points=12)
    pd0, pd1 = diagram_of_cloud(cloud)
    path = tmp_path / "dgm.csv"
    write_diagrams(path, [pd0, pd1])
    back = read_diagrams(path)
    assert np.array_equal(back[0].sorted_pairs(), pd0.sorted_pairs())
    assert np.array_equal(back[0].essential, pd0.essential)
    if pd1.pairs.size:
        assert np.array_equal(back[1].sorted_pairs(), pd1.sorted_pairs())
    missing_dim = read_diagram(path, 1)
    assert missing_dim.homology_dim == 1

    bad = tmp_path / "bad.csv"
    bad.write_text("dim,birth,death\n0,oops,1\n")
    with pytest.raises(ParseError):
        read_diagrams(bad)


def _gf2_rank(matrix: np.ndarray) -> int:
    """Rank over Z/2 by Gaussian elimination on a dense 0/1 matrix."""
    m = matrix.astype(bool)
    rank = 0
    for col in range(m.shape[1]):
        rows = np.nonzero(m[rank:, col])[0]
        if not rows.size:
            continue
        pivot = rank + rows[0]
        m[[rank, pivot]] = m[[pivot, rank]]
        hits = np.nonzero(m[:, col])[0]
        m[hits[hits != rank]] ^= m[rank]
        rank += 1
        if rank == m.shape[0]:
            break
    return rank


def _births(cloud, temporal_links):
    diff = cloud[:, None, :] - cloud[None, :, :]
    births = np.sqrt((diff * diff).sum(axis=-1))
    if temporal_links:
        steps = np.arange(cloud.shape[0] - 1)
        births[steps, steps + 1] = births[steps + 1, steps] = 0.0
    return births


def _betti1(births, r):
    """beta_1 of the flag complex (up to triangles) on the edges born by r."""
    n = births.shape[0]
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if births[i, j] <= r]
    index = {e: col for col, e in enumerate(edges)}
    triangles = [
        (i, j, k)
        for i, j in edges
        for k in range(j + 1, n)
        if (i, k) in index and (j, k) in index
    ]
    d1 = np.zeros((n, len(edges)), dtype=bool)
    for col, (i, j) in enumerate(edges):
        d1[[i, j], col] = True
    d2 = np.zeros((len(edges), len(triangles)), dtype=bool)
    for col, (i, j, k) in enumerate(triangles):
        d2[[index[(i, j)], index[(i, k)], index[(j, k)]], col] = True
    return len(edges) - _gf2_rank(d1) - _gf2_rank(d2)


def _live_h1(pd, r):
    return int(np.sum((pd.pairs[:, 0] <= r) & (r < pd.pairs[:, 1]))) + int(
        np.sum(pd.essential <= r)
    )


def test_h1_matches_betti_numbers_from_boundary_ranks():
    # Independent H1 oracle: at every filtration value, the classes a
    # diagram has alive must equal beta_1 = dim ker d1 - rank d2 of the
    # complex at that value, both ranks taken over Z/2 from dense matrices.
    rng = np.random.default_rng(61)
    cases = 0
    for trial in range(24):
        n = int(rng.integers(4, 13))
        cloud = rng.normal(size=(n, int(rng.integers(1, 4))))
        if trial % 3 == 1:
            cloud = np.round(cloud, 1)  # tied distances
        temporal = trial % 2 == 1
        births = _births(cloud, temporal)
        max_scale = None if trial % 4 < 2 else 0.6 * cloud_diameter(cloud)
        cutoff = cloud_diameter(cloud) if max_scale is None else max_scale
        births = np.where(births <= cutoff, births, np.inf)
        _, fast = diagram_of_cloud(cloud, max_scale, temporal)
        _, slow = compute_persistence(build_rips(cloud, cutoff, temporal))
        values = np.unique(births[np.isfinite(births)])
        for r in values.tolist():
            beta1 = _betti1(births, r)
            assert _live_h1(fast, r) == beta1
            assert _live_h1(slow, r) == beta1
            cases += 1
    assert cases > 300


def _equivalence_corpus():
    rng = np.random.default_rng(73)
    clouds = [
        np.array([[0.3, -1.0]]),
        np.array([[0.0], [0.7]]),
        np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
        np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]),
        UNIT_SQUARE,
        np.arange(9, dtype=float).reshape(-1, 1),
    ]
    for n in (5, 9, 14):
        clouds.append(rng.normal(size=(n, 1)))
        clouds.append(np.round(rng.normal(size=(n, 2)), 1))
        clouds.append(rng.integers(0, 3, size=(n, 2)).astype(float))
        dup = rng.normal(size=(n, 3))
        dup[n // 2] = dup[0]
        dup[-1] = dup[1]
        clouds.append(dup)
    return clouds


# The H1 engine builds every candidate's coboundary once, as a table row,
# when all candidates fit one pivot block, and rebuilds each column when it
# is needed otherwise. At their own sizes the corpus and the n=60 clouds
# below take only the table and the n=100 cloud only the rebuild, so these
# block sizes force each source of columns.
COLUMN_SOURCES = {"table": 1 << 62, "rebuild": 1}


def _engine_bytes(monkeypatch, path, *args):
    """The engine's diagram CSV bytes for each source of columns."""
    out = {}
    for source, block in COLUMN_SOURCES.items():
        monkeypatch.setattr(persistence, "_PIVOT_BLOCK", block)
        write_diagrams(path, diagram_of_cloud(*args))
        out[source] = path.read_bytes()
    return out


def test_engine_matches_reference_reduction_bytes(tmp_path, monkeypatch):
    # diagram_of_cloud must write exactly the bytes the reference reduction
    # of the full filtration writes, for each scale regime: below the
    # enclosing radius, between it and the diameter, and beyond.
    fast_path, slow_path = tmp_path / "fast.csv", tmp_path / "slow.csv"
    for cloud in _equivalence_corpus():
        diameter = cloud_diameter(cloud)
        for temporal in (False, True):
            births = _births(cloud, temporal)
            radius = float(births.max(axis=1).min())
            scales = [None, 2.0 * diameter + 1.0]
            if radius > 0:
                scales += [0.5 * radius, radius, 0.5 * (radius + diameter)]
            for max_scale in scales:
                reference = (diameter or 1.0) if max_scale is None else max_scale
                write_diagrams(
                    slow_path,
                    compute_persistence(build_rips(cloud, reference, temporal)),
                )
                fast = _engine_bytes(monkeypatch, fast_path, cloud, max_scale, temporal)
                assert fast == dict.fromkeys(COLUMN_SOURCES, slow_path.read_bytes())


@pytest.mark.parametrize(
    "n, fraction, of",
    [(100, None, None), (60, None, None), (60, 0.6, "diameter"), (200, 0.25, "radius")],
    ids=["100", "60", "60-cut", "200-sparse"],
)
def test_engine_matches_reference_on_a_linked_delay_embedding(tmp_path, monkeypatch, n, fraction, of):
    # A delay-embedded noisy sine with temporal links, the pipeline's own
    # kind of input, at a size where reduced columns collide often, and at
    # the series workload's size, also cut at 0.6 times the diameter as it
    # cuts some of its clouds; the rounded copy adds tied edge births. Cut
    # at 0.25 times the enclosing radius without links, as CI's sparse
    # scale smoke cuts, the cloud is sparse: its reductions meet the same
    # plain columns again and again, thousands of times.
    rng = np.random.default_rng(89)
    t = np.arange(n + 20)
    series = np.sin(2 * np.pi * t / 25) + 0.1 * rng.normal(size=t.size)
    cloud = delay_embed(series, m=3, tau=10)
    assert cloud.shape == (n, 3)
    fast_path, slow_path = tmp_path / "fast.csv", tmp_path / "slow.csv"
    for points in (cloud, np.round(cloud, 1)):
        diameter = cloud_diameter(points)
        scale = {"diameter": diameter, "radius": _births(points, False).max(axis=1).min()}
        cut = None if fraction is None else fraction * float(scale[of])
        reference = build_rips(points, diameter if cut is None else cut, True)
        write_diagrams(slow_path, compute_persistence(reference))
        fast = _engine_bytes(monkeypatch, fast_path, points, cut, True)
        assert fast == dict.fromkeys(COLUMN_SOURCES, slow_path.read_bytes())


def _benchmark_shaped_clouds():
    """(cloud, max_scale, temporal_links) shaped like the benchmark's inputs:
    24 2-D clouds of 25-40 points (one loop, two loops, uniform noise), and
    12 delay-embedded noisy series of 40-70 points (sines and walks), with
    and without links, at the default cut and at 0.6 times the diameter."""
    rng = np.random.default_rng(2026)
    items = []
    for k in range(24):
        n = int(rng.integers(25, 41))
        if k % 3 == 2:
            items.append((rng.uniform(-1.0, 1.0, (n, 2)), None, False))
            continue
        loops = k % 3 + 1
        theta = 2 * np.pi * rng.uniform(size=n)
        radius = (1.0 if loops == 1 else 0.35) * (1.0 + 0.04 * rng.normal(size=n))
        centre = 1.6 * (np.arange(n) % loops) - 0.8 * (loops - 1)
        items.append((np.column_stack([centre + radius * np.cos(theta), radius * np.sin(theta)]),
                      None, False))
    for k in range(12):
        t = np.arange(int(rng.integers(40, 71)) + 20)
        if k % 3 == 2:
            x, noise = np.cumsum(rng.normal(size=t.size)), 0.3
        else:
            x, noise = np.sin(2 * np.pi * t / rng.uniform(18, 30) + rng.uniform(0, 6)), 0.1
        x = (x - x.mean()) / x.std() + noise * rng.normal(size=t.size)
        cloud = delay_embed(x, m=3, tau=10)
        cut = 0.6 * cloud_diameter(cloud) if k // 2 % 2 else None
        items.append((cloud, cut, k % 2 == 1))
    return items


# The sha256 of the diagram CSVs of `_benchmark_shaped_clouds`, one after
# another, as the engine wrote them when it kept every reduced column from
# its added columns.
BENCHMARK_SHAPED_SHA256 = "2b199ec994fefd400ccbbbe6f04dba86335b5aca643f1037d9fd21d18031c518"


@pytest.mark.parametrize("keep_scan", [persistence._KEEP_SCAN, 0, 1 << 62],
                         ids=["default-keep", "keep-from-columns", "keep-by-scan"])
@pytest.mark.parametrize("block", [persistence._PIVOT_BLOCK, 0], ids=["table", "rebuild"])
def test_benchmark_shaped_clouds_keep_their_bytes(tmp_path, monkeypatch, block, keep_scan):
    # Each source of columns, with each rule for keeping a reduced column:
    # a scan of its range, or the still-set keys of the columns added.
    monkeypatch.setattr(persistence, "_PIVOT_BLOCK", block)
    monkeypatch.setattr(persistence, "_KEEP_SCAN", keep_scan)
    path, digest = tmp_path / "pd.csv", hashlib.sha256()
    for cloud, cut, links in _benchmark_shaped_clouds():
        write_diagrams(path, diagram_of_cloud(cloud, cut, links))
        digest.update(path.read_bytes())
    assert digest.hexdigest() == BENCHMARK_SHAPED_SHA256


@pytest.mark.parametrize("m", range(1, 13))
def test_distance_matrix_equals_the_one_expression_reduction(m):
    # Clouds of fewer than 8 coordinates add one coordinate at a time, and
    # wider ones reduce over the last axis; both must give the floats of
    # the one-expression reduction, on coordinates of unlike scales, and
    # across row blocks: n * n * m exceeds the block's 2^20 differences.
    rng = np.random.default_rng(m)
    n = math.isqrt((1 << 20) // m) + 7
    p = rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-3, 3, m)
    p[: n // 3] = np.round(p[: n // 3], 1)  # ties and exact zeros
    want = np.sqrt(((p[:, None] - p[None]) ** 2).sum(-1))
    assert persistence._distance_matrix(p).tobytes() == want.tobytes()


def test_engine_rejects_bad_input():
    with pytest.raises(ValueError):
        diagram_of_cloud(np.empty((0, 2)))
    with pytest.raises(ValueError):
        diagram_of_cloud(np.array([[np.nan, 0.0]]))
    for scale in (0.0, -1.0, np.inf):
        with pytest.raises(ValueError):
            diagram_of_cloud(UNIT_SQUARE, max_scale=scale)


# Gates at n=300, a size the reference reaches only below the diameter. The
# noisy sine is delay-embedded as the pipeline does; "linked" is the cloud
# with temporal links cut at 0.3 times its linked enclosing radius, "plain"
# the cloud without links at the default cut.


def _sine_cloud():
    rng = np.random.default_rng(0)
    t = np.arange(320)
    series = np.sin(2 * np.pi * t / 25) + 0.1 * rng.normal(size=t.size)
    return delay_embed(series, m=3, tau=10)


def _linked_cut(cloud):
    return 0.3 * float(_births(cloud, True).max(axis=1).min())


@pytest.fixture(scope="module")
def sine_settings():
    """Per setting: the cloud's (max_scale, temporal_links, diagrams)."""
    cloud = _sine_cloud()
    assert cloud.shape == (300, 3)
    settings = {"plain": (None, False), "linked": (_linked_cut(cloud), True)}
    return cloud, {
        name: (scale, links, diagram_of_cloud(cloud, scale, links))
        for name, (scale, links) in settings.items()
    }


def test_engine_matches_reference_at_a_truncated_cut(tmp_path):
    # Linked columns turn dense; the rounded copy adds tied edge births.
    cloud = _sine_cloud()
    fast_path, slow_path = tmp_path / "fast.csv", tmp_path / "slow.csv"
    for points in (cloud, np.round(cloud, 1)):
        cut = _linked_cut(points)
        write_diagrams(fast_path, diagram_of_cloud(points, cut, True))
        write_diagrams(slow_path, compute_persistence(build_rips(points, cut, True)))
        assert fast_path.read_bytes() == slow_path.read_bytes()


@pytest.mark.parametrize("setting", ["plain", "linked"])
def test_scaling_by_a_power_of_two_scales_the_diagrams_exactly(sine_settings, setting):
    # Scaling by 4 commutes with rounding in every difference, square, sum
    # and square root, so every value scales exactly and no order changes.
    cloud, settings = sine_settings
    scale, links, diagrams = settings[setting]
    scaled = diagram_of_cloud(4.0 * cloud, None if scale is None else 4.0 * scale, links)
    for pd, big in zip(diagrams, scaled):
        assert np.array_equal(big.pairs, 4.0 * pd.pairs)
        assert np.array_equal(big.essential, 4.0 * pd.essential)


@pytest.mark.parametrize("setting", ["plain", "linked"])
def test_negating_a_coordinate_keeps_the_diagram_bytes(tmp_path, sine_settings, setting):
    cloud, settings = sine_settings
    scale, links, diagrams = settings[setting]
    path, mirrored_path = tmp_path / "pd.csv", tmp_path / "mirrored.csv"
    write_diagrams(path, diagrams)
    write_diagrams(mirrored_path, diagram_of_cloud(cloud * [1.0, -1.0, 1.0], scale, links))
    assert mirrored_path.read_bytes() == path.read_bytes()


def test_permuting_an_unlinked_cloud_keeps_the_diagrams(sine_settings):
    cloud, settings = sine_settings
    _, _, diagrams = settings["plain"]
    perm = np.random.default_rng(5).permutation(cloud.shape[0])
    for pd, shuffled in zip(diagrams, diagram_of_cloud(cloud[perm])):
        assert np.array_equal(shuffled.sorted_pairs(), pd.sorted_pairs())
        assert np.array_equal(np.sort(shuffled.essential), np.sort(pd.essential))


def test_a_far_point_adds_one_h0_pair(tmp_path, sine_settings):
    # A point 3 diameters from the cloud joins it last, by its nearest edge,
    # once every old edge is in: one more H0 pair and no new H1 class.
    cloud, settings = sine_settings
    _, _, (pd0, pd1) = settings["plain"]
    far = cloud[0] + [3.0 * cloud_diameter(cloud), 0.0, 0.0]
    grown = np.vstack([cloud, far])
    nearest = _births(grown, False)[-1, :-1].min()
    grown0, grown1 = diagram_of_cloud(grown)
    expected = PersistenceDiagram(0, np.vstack([pd0.pairs, [[0.0, nearest]]]))
    assert np.array_equal(grown0.sorted_pairs(), expected.sorted_pairs())
    assert np.array_equal(grown0.essential, pd0.essential)
    path, grown_path = tmp_path / "h1.csv", tmp_path / "grown.csv"
    write_diagrams(path, [pd1])
    write_diagrams(grown_path, [grown1])
    assert grown_path.read_bytes() == path.read_bytes()


# The same sine with temporal links at the default cut: the densest reduced
# columns of any gate, where one early edge's column takes hundreds of
# additions spread over the whole triangle numbering.


@pytest.fixture(scope="module")
def dense_linked():
    cloud = _sine_cloud()
    return cloud, diagram_of_cloud(cloud, None, True)


def test_scaling_a_densely_linked_cloud_scales_the_diagrams_exactly(dense_linked):
    cloud, diagrams = dense_linked
    assert diagrams[1].pairs.shape[0] > 300
    for pd, big in zip(diagrams, diagram_of_cloud(4.0 * cloud, None, True)):
        assert np.array_equal(big.pairs, 4.0 * pd.pairs)
        assert np.array_equal(big.essential, 4.0 * pd.essential)


def test_negating_a_coordinate_of_a_densely_linked_cloud_keeps_the_bytes(tmp_path, dense_linked):
    cloud, diagrams = dense_linked
    path, mirrored_path = tmp_path / "pd.csv", tmp_path / "mirrored.csv"
    write_diagrams(path, diagrams)
    write_diagrams(mirrored_path, diagram_of_cloud(cloud * [1.0, 1.0, -1.0], None, True))
    assert mirrored_path.read_bytes() == path.read_bytes()


def test_a_column_that_cancels_to_zero_ends_its_reduction():
    # Below the enclosing radius this cloud keeps one essential H1 class.
    # Its edge's column meets a claimed pivot, takes an addition and
    # cancels to zero; the reduction must stop there, not spin.
    cloud = np.array([[0.058, -0.479], [-0.688, -0.348], [0.131, -0.779], [1.887, -0.195],
                      [-0.194, 1.574], [1.554, 1.32], [1.159, -1.911]])
    cut = 0.6 * cloud_diameter(cloud)
    result = []
    worker = threading.Thread(
        target=lambda: result.append(diagram_of_cloud(cloud, cut)), daemon=True
    )
    worker.start()
    worker.join(timeout=20)
    assert not worker.is_alive()
    _, pd1 = result[0]
    _, reference = compute_persistence(build_rips(cloud, cut))
    assert pd1.pairs.size == 0
    assert pd1.essential.tolist() == reference.essential.tolist() == [1.9844697024646156]


def test_a_reduction_through_apparent_pairs_matches_the_reference(tmp_path):
    # With temporal links, four additions in this cloud's H1 reduction add
    # the column of an apparent pair, found through the latest edge of the
    # pivot it owns: the reduction must add exactly those columns.
    cloud = np.array([[0.8, 0.3], [-1.3, 0.9], [0.4, -0.5], [0.6, 0.4], [0.3, 0.0],
                      [0.5, -0.7], [-0.2, -0.5], [0.6, 0.0], [-0.3, -0.8]])
    fast_path, slow_path = tmp_path / "fast.csv", tmp_path / "slow.csv"
    write_diagrams(fast_path, diagram_of_cloud(cloud, temporal_links=True))
    reference = build_rips(cloud, cloud_diameter(cloud), True)
    write_diagrams(slow_path, compute_persistence(reference))
    assert fast_path.read_bytes() == slow_path.read_bytes()
