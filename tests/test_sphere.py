import warnings

import numpy as np
import pytest

from persphere.density import SqrtDensity, kde, sqrt_transform
from persphere.persistence import PersistenceDiagram
from persphere import sphere
from persphere.sphere import (
    PgaModel,
    TangentVector,
    distance,
    exp_map,
    extrinsic_mean,
    geodesic,
    inner,
    load_pga_model,
    log_map,
    pga,
    pga_features,
    project_coords,
    EIG_MAX_ITER,
    grid_norm,
    save_pga_model,
    top_eigenpairs,
    zero_tangent,
)

K = 64


def _psi(points, sigma=0.05):
    pd = PersistenceDiagram(1, np.asarray(points, dtype=float))
    return sqrt_transform(kde(pd, sigma, K))


def _random_psis(seed, count, sigma=0.05):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(1, 6))
        births = rng.uniform(0.05, 0.6, n)
        deaths = births + rng.uniform(0.05, 0.35, n)
        out.append(_psi(np.column_stack([births, deaths]), sigma))
    return out


def test_inner_basics():
    psi = _psi([[0.3, 0.7]])
    assert inner(psi.grid, psi.grid) == pytest.approx(1.0, abs=1e-12)
    uniform = SqrtDensity(grid=np.ones((8, 8)))
    assert inner(uniform.grid, uniform.grid) == pytest.approx(1.0, abs=1e-15)
    a = np.zeros((4, 4))
    a[0, 0] = 1.0
    b = np.zeros((4, 4))
    b[3, 3] = 1.0
    assert inner(a, b) == 0.0
    with pytest.raises(ValueError):
        inner(np.zeros((4, 4)), np.zeros((5, 5)))


def test_distance_identity_and_range():
    psi = _psi([[0.3, 0.7]])
    assert distance(psi, psi) <= 1e-7
    others = _random_psis(1, 20)
    for other in others:
        d = distance(psi, other)
        assert 0.0 <= d <= np.pi / 2 + 1e-12


@pytest.mark.filterwarnings("error")
def test_distance_to_itself_is_zero_within_the_norm_tolerance():
    # norm^2 = 1 + 5e-10 is a valid SqrtDensity; the cosine is clipped, not flagged.
    psi = SqrtDensity(grid=np.full((8, 8), np.sqrt(1 + 5e-10)))
    assert distance(psi, psi) == 0.0


def test_distance_saturates_for_disjoint_supports():
    a = _psi([[0.1, 0.3]], sigma=0.02)
    b = _psi([[0.7, 0.95]], sigma=0.02)
    assert distance(a, b) == pytest.approx(np.pi / 2, abs=1e-6)


def test_distance_monotone_in_separation():
    base = _psi([[0.3, 0.6]])
    near = _psi([[0.3, 0.61]])
    far = _psi([[0.3, 0.9]])
    d_near = distance(base, near)
    assert 0 < d_near < distance(base, far)


def test_distance_is_a_metric_on_samples():
    psis = _random_psis(2, 12)
    n = len(psis)
    d = np.array([[distance(a, b) for b in psis] for a in psis])
    assert np.allclose(d, d.T, atol=1e-15)
    assert np.all(np.diag(d) <= 1e-7)
    rng = np.random.default_rng(3)
    for _ in range(300):
        i, j, k = rng.integers(0, n, 3)
        assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


def test_exp_zero_vector_returns_base():
    psi = _psi([[0.2, 0.5]])
    assert exp_map(psi, zero_tangent(psi)) is psi


def test_exp_log_roundtrip():
    psis = _random_psis(4, 10)
    for a, b in zip(psis[::2], psis[1::2]):
        v = log_map(a, b)
        assert v.norm == pytest.approx(distance(a, b), abs=1e-8)
        assert abs(inner(a.grid, v.values)) <= 1e-8
        back = exp_map(a, v)
        assert np.abs(back.grid - b.grid).max() <= 1e-6


def test_exp_distance_matches_tangent_norm():
    psi_a, psi_b = _random_psis(5, 2)
    v = log_map(psi_a, psi_b)
    step = v.scaled(0.3 / v.norm)
    out = exp_map(psi_a, step)
    assert distance(psi_a, out) == pytest.approx(0.3, abs=1e-6)


def test_exp_guards():
    psi_a, psi_b = _random_psis(6, 2)
    v = log_map(psi_a, psi_b)
    with pytest.raises(ValueError, match="different density"):
        exp_map(psi_b, v)
    with pytest.raises(ValueError, match="injectivity"):
        exp_map(psi_a, v.scaled(3.5 / v.norm))


def test_exp_reports_clamped_mass():
    psi_a, psi_b = _random_psis(7, 2)
    v = log_map(psi_a, psi_b)
    # Stepping beyond the segment end leaves the nonnegative orthant.
    out = exp_map(psi_a, v.scaled(1.8))
    assert out.clamp_mass > 0
    norm_sq = (out.grid**2).sum() / out.grid.size
    assert norm_sq == pytest.approx(1.0, abs=1e-9)


@pytest.mark.filterwarnings("error")
def test_exp_raises_when_clamping_leaves_no_positive_cell():
    psi = SqrtDensity(np.ones((8, 8)))
    checkerboard = np.indices((8, 8)).sum(axis=0) % 2 * 2.0 - 1.0  # unit, tangent
    with pytest.raises(ValueError, match="^exp_map step leaves no positive cell"):
        exp_map(psi, TangentVector(psi, 3.0 * checkerboard))


# NaN compares false, and inf - inf is NaN, so neither fails the tangency test.
@pytest.mark.parametrize("cells", [{(3, 4): np.nan}, {(3, 4): np.inf, (5, 6): -np.inf}])
def test_tangent_vector_rejects_non_finite_values(cells):
    psi = SqrtDensity(np.ones((8, 8)))
    values = np.zeros((8, 8))
    for cell, value in cells.items():
        values[cell] = value
    with pytest.raises(ValueError, match="non-finite"):
        TangentVector(psi, values)


def test_log_identity_and_zero():
    psi = _psi([[0.4, 0.8]])
    v = log_map(psi, psi)
    assert v.norm == 0.0


def _explicit_lift(psi_i, psi_j):
    # The log map written out for one pair, apart from the stacked lift that
    # log_map and pga_features share: zero for identical grids, else
    # psi_j - c psi_i (c the clipped cosine), projected off psi_i once more,
    # rescaled to norm arccos(c).
    if np.array_equal(psi_i.grid, psi_j.grid):
        return np.zeros_like(psi_i.grid)
    c = min(1.0, max(-1.0, inner(psi_i.grid, psi_j.grid)))
    u = psi_j.grid - c * psi_i.grid
    u = u - (u.reshape(1, -1) @ psi_i.grid.ravel())[0] / u.size * psi_i.grid
    u_norm = grid_norm(u)
    if u_norm == 0.0:
        return np.zeros_like(psi_i.grid)
    return u * (float(np.arccos(c)) / u_norm)


def test_log_map_equals_the_explicit_formula():
    rng = np.random.default_rng(30)
    small = [sqrt_transform(kde(PersistenceDiagram(
        1, np.sort(rng.uniform(0.05, 0.95, (3, 2)), axis=1)), 0.1, 16)) for _ in range(12)]
    pairs = list(zip(_random_psis(31, 6), _random_psis(32, 6))) + list(zip(small[:6], small[6:]))
    base = pairs[0][0]
    pairs.append((base, base))
    pairs.append((base, SqrtDensity(grid=base.grid.copy())))
    for eps in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
        grid = base.grid * (1.0 + eps * rng.standard_normal(base.grid.shape))
        pairs.append((base, SqrtDensity(grid=grid / grid_norm(grid))))
    for psi_i, psi_j in pairs:
        assert np.array_equal(log_map(psi_i, psi_j).values, _explicit_lift(psi_i, psi_j))
    a = _psi([[0.2, 0.5]], sigma=0.03)
    b = _psi([[0.6, 0.9]], sigma=0.03)
    with pytest.warns(RuntimeWarning, match="orthogonal to the base density"):
        lift = log_map(a, b)
    assert np.array_equal(lift.values, _explicit_lift(a, b))
    with pytest.raises(ValueError, match="grid shapes differ"):
        log_map(base, small[0])


def test_log_map_and_geodesic_accept_densities_that_differ_by_rounding():
    # Each density against a copy scaled cellwise by 1 + 1e-16 N(0, 1) and
    # renormalised: the cosine can round to 1 - 2.2e-16, an angle of 2.1e-8,
    # and the lift of the rounding noise must still be tangent to the base.
    rng = np.random.default_rng(3)
    for psi in _random_psis(7, 400):
        grid = psi.grid * (1.0 + 1e-16 * rng.standard_normal(psi.grid.shape))
        near = SqrtDensity(grid=grid / grid_norm(grid))
        assert log_map(psi, near).norm <= 1e-7
        assert distance(psi, geodesic(psi, near, 0.5)) <= 1e-7


def test_geodesic_endpoints_and_proportionality():
    psi_a, psi_b = _random_psis(8, 2)
    d = distance(psi_a, psi_b)
    assert np.abs(geodesic(psi_a, psi_b, 0.0).grid - psi_a.grid).max() <= 1e-9
    assert np.abs(geodesic(psi_a, psi_b, 1.0).grid - psi_b.grid).max() <= 1e-9
    for s in (0.25, 0.5, 0.75):
        point = geodesic(psi_a, psi_b, s)
        assert abs(distance(psi_a, point) - s * d) <= 1e-6 * max(d, 1.0)
    with pytest.raises(ValueError):
        geodesic(psi_a, psi_b, 1.2)


def test_geodesic_matches_normalized_chord_at_midpoint():
    # The rescaled straight chord hits the same midpoint as the arc map.
    psi_a, psi_b = _random_psis(9, 2)
    chord = 0.5 * psi_a.grid + 0.5 * psi_b.grid
    chord /= np.sqrt((chord**2).sum() / chord.size)
    mid = geodesic(psi_a, psi_b, 0.5)
    assert np.abs(mid.grid - chord).max() <= 1e-9


def test_geodesic_midpoint_keeps_both_mode_sets():
    a = _psi([[0.2, 0.5]], sigma=0.03)
    b = _psi([[0.6, 0.9]], sigma=0.03)
    with pytest.warns(RuntimeWarning, match="orthogonal"):
        mid = geodesic(a, b, 0.5)
    g = mid.grid
    peak_a = g[int(0.5 * K - 0.5), int(0.2 * K - 0.5)]
    peak_b = g[int(0.9 * K - 0.5), int(0.6 * K - 0.5)]
    top = g.max()
    assert peak_a > 0.1 * top and peak_b > 0.1 * top


def test_extrinsic_mean_idempotent():
    psi = _psi([[0.3, 0.8]])
    mean = extrinsic_mean([psi, psi, psi])
    assert np.abs(mean.grid - psi.grid).max() <= 1e-12


def test_extrinsic_mean_is_two_point_midpoint():
    psi_a, psi_b = _random_psis(10, 2)
    mean = extrinsic_mean([psi_a, psi_b])
    mid = geodesic(psi_a, psi_b, 0.5)
    assert np.abs(mean.grid - mid.grid).max() <= 1e-6


def test_extrinsic_mean_errors():
    with pytest.raises(ValueError):
        extrinsic_mean([])
    with pytest.raises(ValueError, match="mixed grid resolutions"):
        extrinsic_mean([_psi([[0.3, 0.7]]), SqrtDensity(grid=np.ones((8, 8)))])


def test_mean_heatmaps_same_modes_different_intensity():
    # Two cohorts over the same two locations, one with the first location
    # doubled: mean densities peak at the same cells but with different
    # intensities.
    from persphere.density import local_maxima

    locations = [[0.3, 0.7], [0.6, 0.9]]
    cohort_a = [_psi(locations, sigma=0.04) for _ in range(5)]
    cohort_b = [_psi([locations[0]] + locations, sigma=0.04) for _ in range(5)]
    mean_a = extrinsic_mean(cohort_a)
    mean_b = extrinsic_mean(cohort_b)
    modes_a = sorted(local_maxima(mean_a.grid, 0.1))
    modes_b = sorted(local_maxima(mean_b.grid, 0.1))
    assert modes_a == modes_b
    assert len(modes_a) == 2
    intensities_a = [mean_a.grid[c] for c in modes_a]
    intensities_b = [mean_b.grid[c] for c in modes_b]
    assert any(
        abs(a - b) > 0.05 * max(a, b) for a, b in zip(intensities_a, intensities_b)
    )


def _pga_by_lifts(densities, n_components):
    # The explicit-lift fit that pga_features replaced, kept as its oracle:
    # one `_explicit_lift` per density, the centered lifts' Gram matrix, and
    # its top eigenvectors combined with the centered lifts. Returns the
    # variances, the unit directions with canonical signs (NaN rows where a
    # combination vanishes) and the coordinates.
    mean = extrinsic_mean(densities)
    cells = mean.grid.size
    lifts = np.stack([_explicit_lift(mean, d).ravel() for d in densities])
    centered = lifts - lifts.mean(axis=0)
    values, vectors = top_eigenpairs(centered @ centered.T / cells / len(densities), n_components)
    combos = vectors.T @ centered
    with np.errstate(invalid="ignore"):
        directions = combos / np.sqrt((combos * combos).sum(axis=1) / cells)[:, None]
    top = directions[np.arange(n_components), np.argmax(np.abs(combos), axis=1)]
    directions *= np.where(top < 0, -1.0, 1.0)[:, None]
    return values, directions, lifts @ directions.T / cells


def _flat_components(model):
    return np.stack([comp.values.ravel() for comp in model.components])


def _assert_orthonormal(model, tol):
    flat = _flat_components(model)
    gram = flat @ flat.T / flat.shape[1]
    assert np.abs(gram - np.eye(len(flat))).max() <= tol


def _tight_cluster(seed, count, spread):
    # Positive K = 16 densities at arc length about `spread` from one base.
    rng = np.random.default_rng(seed)
    pd = PersistenceDiagram(1, np.array([[0.3, 0.6], [0.5, 0.8]]))
    base = sqrt_transform(kde(pd, 0.15, 16)).grid
    out = []
    for _ in range(count):
        grid = base * (1.0 + spread * rng.standard_normal(base.shape))
        out.append(SqrtDensity(grid=grid / grid_norm(grid)))
    return out


def test_pga_matches_the_explicit_lift_fit_on_a_random_set():
    psis = _random_psis(21, 25)
    model, coords = pga_features(psis, 4)
    values, directions, want_coords = _pga_by_lifts(psis, 4)
    assert np.abs(model.variances - values).max() <= 1e-12
    assert np.abs(_flat_components(model) - directions).max() <= 1e-12
    assert np.abs(coords - want_coords).max() <= 1e-12


def test_pga_on_a_tight_cluster_keeps_orthonormal_components():
    # Lifts of norm about 1e-4: a Gram matrix taken as psi psi^T - c c^T
    # would lose about eight digits here to cancellation.
    cluster = _tight_cluster(22, 40, 1e-4)
    mean = extrinsic_mean(cluster)
    assert 1e-5 < max(distance(mean, p) for p in cluster) < 1e-3
    model, coords = pga_features(cluster, 3)
    _assert_orthonormal(model, 1e-12)
    values, directions, want_coords = _pga_by_lifts(cluster, 3)
    assert np.abs(model.variances - values).max() <= 1e-6 * values[0]
    assert np.abs(coords - want_coords).max() <= 1e-6 * np.abs(want_coords).max()


def test_pga_of_an_identical_set_matches_the_explicit_lift_fit():
    psi = _psi([[0.4, 0.7]])
    model, coords = pga_features([psi] * 4, 2)
    values, _, _ = _pga_by_lifts([psi] * 4, 2)
    assert model.variances.tolist() == values.tolist() == [0.0, 0.0]
    assert np.abs(coords).max() == 0.0
    _assert_orthonormal(model, 1e-12)


def test_pga_of_a_geodesic_family_matches_the_explicit_lift_fit():
    psi_a, psi_b = _random_psis(23, 2)
    family = [geodesic(psi_a, psi_b, s) for s in (0.0, 0.2, 0.45, 0.7, 0.9)]
    model, coords = pga_features(family, 3)
    values, directions, want_coords = _pga_by_lifts(family, 3)
    assert abs(model.variances[0] - values[0]) <= 1e-12 * values[0]
    assert np.all(model.variances[1:] < 1e-10)
    assert np.abs(model.components[0].values.ravel() - directions[0]).max() <= 1e-10
    assert np.abs(coords[:, 0] - want_coords[:, 0]).max() <= 1e-12
    _assert_orthonormal(model, 1e-12)


def test_pga_of_concentrated_densities_matches_the_explicit_lift_fit():
    a, b = (sqrt_transform(kde(PersistenceDiagram(1, np.array([p])), 0.05, 16))
            for p in ([0.3, 0.7], [0.2, 0.5]))
    model, coords = pga_features([a, b, a, b], 3)
    values, directions, want_coords = _pga_by_lifts([a, b, a, b], 3)
    assert abs(model.variances[0] - values[0]) <= 1e-12 * values[0]
    assert np.abs(model.components[0].values.ravel() - directions[0]).max() <= 1e-12
    assert np.abs(coords[:, 0] - want_coords[:, 0]).max() <= 1e-12


def test_pga_warns_once_for_densities_orthogonal_to_the_mean(monkeypatch):
    # Nonnegative densities have cosine at least 1/n with their extrinsic
    # mean, so the threshold is raised to put several on the boundary.
    psis = _random_psis(24, 8)
    mean = extrinsic_mean(psis)
    cosines = sorted(inner(mean.grid, p.grid) for p in psis)
    monkeypatch.setattr(sphere, "CLAMP_DIAGNOSTIC", (cosines[2] + cosines[3]) / 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model, coords = pga_features(psis, 2)
    assert [str(w.message) for w in caught] == [
        "densities are orthogonal to the base density; their lifts are the projection "
        "boundary case"
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        values, _, want_coords = _pga_by_lifts(psis, 2)
    assert np.abs(model.variances - values).max() <= 1e-12
    assert np.abs(coords - want_coords).max() <= 1e-12


def test_pga_identical_set_all_zero_variance():
    psi = _psi([[0.4, 0.7]])
    model = pga([psi, psi, psi], 2)
    assert np.allclose(model.variances, 0.0)
    assert len(model.components) == 2
    for comp in model.components:
        assert comp.norm == pytest.approx(1.0, abs=1e-9)


def test_pga_completes_directions_of_concentrated_densities():
    # At K = 16 a one-point KDE of sigma 0.05 sits in a few cells, so cell
    # indicators lie in the span up to rounding and must not be taken.
    a, b = (sqrt_transform(kde(PersistenceDiagram(1, np.array([p])), 0.05, 16))
            for p in ([0.3, 0.7], [0.2, 0.5]))
    model, coords = pga_features([a, b, a, b], 3)
    assert model.variances[0] > 0 and model.variances[1:].tolist() == [0.0, 0.0]
    flat = np.stack([comp.values.ravel() for comp in model.components])
    assert np.allclose(flat @ flat.T / 256, np.eye(3), atol=1e-12)
    assert np.allclose(coords[:, 1:], 0.0, atol=1e-12)


def test_pga_single_geodesic_family_is_rank_one():
    psi_a, psi_b = _random_psis(11, 2)
    family = [geodesic(psi_a, psi_b, s) for s in (0.0, 0.2, 0.45, 0.7, 0.9)]
    model = pga(family, 3)
    assert model.variances[0] > 0
    assert np.all(model.variances[1:] < 1e-10)


def test_pga_variances_match_coordinate_variances():
    psis = _random_psis(12, 8)
    model = pga(psis, 4)
    coords = np.stack([project_coords(model, p) for p in psis])
    assert np.allclose(np.var(coords, axis=0), model.variances, atol=1e-8)


def test_pga_reconstruction_improves_with_components():
    # A family with overlapping supports and low-dimensional variation:
    # reconstruction error shrinks as components are added.
    rng = np.random.default_rng(13)
    family = []
    for _ in range(10):
        db, dd = rng.uniform(-0.05, 0.05, 2)
        family.append(_psi([[0.3 + db, 0.65 + dd]], sigma=0.1))
    errors = []
    for d in (1, 2, 4):
        model = pga(family, d)
        total = 0.0
        for p in family:
            coords = project_coords(model, p)
            combo = sum(c * comp.values for c, comp in zip(coords, model.components))
            approx = exp_map(model.mean, TangentVector(model.mean, combo))
            total += distance(approx, p)
        errors.append(total / len(family))
    assert errors[0] >= errors[1] - 1e-12
    assert errors[1] >= errors[2] - 1e-12
    assert errors[2] < errors[0]


def test_pga_parameter_guards():
    psis = _random_psis(14, 4)
    with pytest.raises(ValueError):
        pga(psis[:1], 1)
    with pytest.raises(ValueError):
        pga(psis, 4)  # d > |set| - 1
    with pytest.raises(ValueError, match="resolution does not match"):
        project_coords(pga(psis, 2), SqrtDensity(grid=np.ones((8, 8))))


def test_pga_components_are_bounded_by_the_tangent_dimension():
    # At K = 2 the tangent space at the mean has 4 - 1 = 3 dimensions.
    rng = np.random.default_rng(15)
    grids = rng.uniform(0.1, 1.0, (8, 2, 2))
    psis = [SqrtDensity(grid=g / grid_norm(g)) for g in grids]
    assert pga(psis, 3).n_components == 3
    with pytest.raises(ValueError, match=r"n_components must be in \[1, 3\], got 4"):
        pga(psis, 4)


def test_project_coords_properties():
    psis = _random_psis(15, 6)
    model, coords = pga(psis, 3), None
    assert np.allclose(project_coords(model, model.mean), 0.0, atol=1e-12)
    for p in psis:
        c = project_coords(model, p)
        assert np.linalg.norm(c) <= distance(model.mean, p) + 1e-9


def test_pga_model_validation():
    psis = _random_psis(16, 4)
    model = pga(psis, 2)
    with pytest.raises(ValueError):
        PgaModel(model.mean, model.components, np.array([0.1]))
    with pytest.raises(ValueError):
        PgaModel(model.mean, model.components, np.array([0.1, 0.5]))
    doubled = [model.components[0], model.components[0]]
    with pytest.raises(ValueError):
        PgaModel(model.mean, doubled, np.array([0.2, 0.1]))


def test_pga_model_io(tmp_path):
    psis = _random_psis(17, 5)
    model, _ = pga(psis, 2), None
    save_pga_model(model, tmp_path / "model", metadata={"sigma": 0.05})
    back, manifest = load_pga_model(tmp_path / "model")
    assert manifest["sigma"] == 0.05
    assert manifest["grid_size"] == K
    assert np.abs(back.mean.grid - model.mean.grid).max() < 1e-15
    for a, b in zip(back.components, model.components):
        assert np.abs(a.values - b.values).max() < 1e-15
    assert np.allclose(back.variances, model.variances)


def _seeded_gram(seed, spectrum):
    n = len(spectrum)
    basis = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))[0]
    gram = (basis * np.asarray(spectrum, dtype=float)) @ basis.T
    return (gram + gram.T) / 2


# (n, k, spectrum); n = 60 is wider than the block 2k + 8, n = 10 is not.
# Only the linear spectrum decays too slowly to converge within the cap.
EIG_CASES = {
    "well_separated": (60, 5, 2.0 ** -np.arange(60)),
    "slow_power_law": (60, 5, (1.0 + np.arange(60)) ** -0.5),
    "slow_linear": (60, 5, 1.0 - np.arange(60) / 120.0),
    "repeated_at_cut": (60, 5, [5.0, 4.0, 3.0, 2.0, 1.0, 1.0, 1.0] + [0.5 ** i for i in range(1, 54)]),
    "rank_deficient": (60, 5, [3.0, 2.0, 1.0] + [0.0] * 57),
    "all_zero": (60, 5, [0.0] * 60),
    "n_within_block": (10, 3, [4.0, 2.5, 1.5, 1.0, 0.7, 0.4, 0.2, 0.1, 0.05, 0.0]),
}


@pytest.mark.parametrize("case", sorted(EIG_CASES))
def test_top_eigenpairs_matches_full_eigh(case, monkeypatch):
    n, k, spectrum = EIG_CASES[case]
    gram = _seeded_gram(sorted(EIG_CASES).index(case), spectrum)
    want_vals, want_vecs = np.linalg.eigh(gram)
    want_vals, want_vecs = want_vals[::-1], want_vecs[:, ::-1]
    eigh, calls = np.linalg.eigh, []

    def counted_eigh(a):
        calls.append(a.shape)
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    values, vectors = top_eigenpairs(gram, k)
    # One eigh per iteration; one more means the full-eigh fallback ran.
    assert (len(calls) > EIG_MAX_ITER) == (case == "slow_linear")
    lmax = abs(want_vals[0])
    assert values.shape == (k,) and vectors.shape == (n, k)
    assert np.all(np.diff(values) <= 0)
    assert np.abs(values - want_vals[:k]).max() <= 1e-12 * lmax
    assert np.abs(vectors.T @ vectors - np.eye(k)).max() <= 1e-12
    # Walk the clusters of equal eigenvalues that reach into the top k.
    i = 0
    while i < k:
        j = i + 1
        while j < n and want_vals[j] >= want_vals[i] - 1e-9 * lmax:
            j += 1
        space, got = want_vecs[:, i:j], vectors[:, i:min(j, k)]
        if j - i == 1:
            # A clear gap: the vector itself, up to sign.
            sign = np.sign(space[:, 0] @ got[:, 0])
            assert np.abs(sign * got[:, 0] - space[:, 0]).max() <= 1e-9
        elif j <= k:
            # A repeated eigenvalue kept whole: its spectral projector.
            assert np.abs(got @ got.T - space @ space.T).max() <= 1e-9
        else:
            # A repeated eigenvalue split by the cut: any vectors of it.
            assert np.abs(got - space @ (space.T @ got)).max() <= 1e-9
        i = j


def test_top_eigenpairs_guards():
    with pytest.raises(ValueError):
        top_eigenpairs(np.zeros((3, 4)), 1)
    for k in (0, 4):
        with pytest.raises(ValueError):
            top_eigenpairs(np.eye(3), k)


def test_pga_is_deterministic_with_canonical_signs():
    # 30 densities and 3 components: wider than the solver's block of 14,
    # so the iterative path runs, not the one-step exact one.
    psis = _random_psis(18, 30)
    state = np.random.get_state()
    try:
        first = pga(psis, 3)
        np.random.seed(12345)
        np.random.standard_normal(100)
        second = pga(psis, 3)
    finally:
        np.random.set_state(state)
    assert np.array_equal(first.variances, second.variances)
    for a, b in zip(first.components, second.components):
        assert np.array_equal(a.values, b.values)
    degenerate = pga([psis[0]] * 3, 2)
    for comp in first.components + degenerate.components:
        flat = comp.values.ravel()
        assert flat[np.argmax(np.abs(flat))] > 0
