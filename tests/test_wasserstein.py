import hashlib
import importlib

import numpy as np
import pytest

from persphere.analysis import random_diagram
from persphere.persistence import PersistenceDiagram
from persphere.wasserstein import (
    DIAGONAL,
    alexandrov_geodesic,
    alexandrov_path,
    brute_force,
    wasserstein,
)

# The package re-exports the function under the module's name.
W = importlib.import_module("persphere.wasserstein")


def _pd(points):
    return PersistenceDiagram(1, np.asarray(points, dtype=float).reshape(-1, 2))


EMPTY = PersistenceDiagram(1, np.empty((0, 2)))


def _random_pd(rng, n):
    births = rng.uniform(0.0, 0.6, n)
    deaths = births + rng.uniform(0.02, 0.35, n)
    return PersistenceDiagram(1, np.column_stack([births, deaths]))


def test_identity():
    pd = _pd([[0.1, 0.4], [0.3, 0.9]])
    for q in (1, 2):
        d, matching = wasserstein(pd, pd, q)
        assert d == 0.0
        assert sorted(matching.pairs) == [(0, 0), (1, 1)]


def test_empty_vs_empty():
    for q in (1, 2):
        d, matching = wasserstein(EMPTY, EMPTY, q)
        assert d == 0.0 and matching.pairs == []
        assert brute_force(EMPTY, EMPTY, q) == 0.0


def test_single_point_vs_empty_closed_forms():
    pd = _pd([[0.2, 0.8]])
    d1, m1 = wasserstein(pd, EMPTY, 1)
    d2, m2 = wasserstein(pd, EMPTY, 2)
    assert d1 == pytest.approx(0.6, abs=1e-12)
    assert d2 == pytest.approx(0.6 / np.sqrt(2), abs=1e-12)
    assert m1.pairs == [(0, DIAGONAL)]
    assert m2.pairs == [(0, DIAGONAL)]


def test_single_point_vs_empty_matches_diagonal_scan():
    # Independent oracle: scan candidate diagonal points t and take the
    # cheapest, confirming the closed-form projection cost.
    b, d = 0.2, 0.8
    ts = np.linspace(-1, 2, 30001)
    scan_l1 = np.min(np.abs(b - ts) + np.abs(d - ts))
    scan_l2 = np.min(np.sqrt((b - ts) ** 2 + (d - ts) ** 2))
    pd = _pd([[b, d]])
    assert wasserstein(pd, EMPTY, 1)[0] == pytest.approx(scan_l1, abs=1e-8)
    assert wasserstein(pd, EMPTY, 2)[0] == pytest.approx(scan_l2, abs=1e-8)


def test_agrees_with_brute_force():
    rng = np.random.default_rng(99)
    for _ in range(200):
        nx = int(rng.integers(0, 5))
        ny = int(rng.integers(0, 9 - nx))
        x, y = _random_pd(rng, nx), _random_pd(rng, ny)
        for q in (1, 2):
            assert wasserstein(x, y, q)[0] == pytest.approx(
                brute_force(x, y, q), abs=1e-12
            )


def test_brute_force_guard():
    rng = np.random.default_rng(1)
    with pytest.raises(ValueError, match="limited"):
        brute_force(_random_pd(rng, 5), _random_pd(rng, 4))


def test_q_validation():
    with pytest.raises(ValueError):
        wasserstein(EMPTY, EMPTY, 3)
    with pytest.raises(ValueError):
        brute_force(EMPTY, EMPTY, 0)
    with pytest.raises(ValueError):
        W.pair_distances([EMPTY, _pd([[0.0, 0.5]])], [EMPTY, _pd([[0.0, 0.4]])], 3)


def test_matching_covers_every_point():
    rng = np.random.default_rng(5)
    x, y = _random_pd(rng, 6), _random_pd(rng, 4)
    for q in (1, 2):
        _, matching = wasserstein(x, y, q)
        xs = sorted(i for i, _ in matching.pairs if i is not None)
        ys = sorted(j for _, j in matching.pairs if j is not None)
        assert xs == list(range(6))
        assert ys == list(range(4))


def test_metric_axioms_on_samples():
    rng = np.random.default_rng(17)
    diagrams = [_random_pd(rng, int(rng.integers(1, 5))) for _ in range(8)]
    for q in (1, 2):
        d = np.array(
            [[wasserstein(a, b, q)[0] for b in diagrams] for a in diagrams]
        )
        assert np.allclose(d, d.T, atol=1e-12)
        assert np.all(np.diag(d) == 0.0)
        n = len(diagrams)
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert d[i, j] <= d[i, k] + d[k, j] + 1e-9


def test_monotone_augmentation():
    rng = np.random.default_rng(33)
    x = _random_pd(rng, 3)
    base = wasserstein(x, EMPTY, 1)[0]
    grown = PersistenceDiagram(1, np.vstack([x.pairs, [[0.1, 0.9]]]))
    assert wasserstein(grown, EMPTY, 1)[0] > base


def test_alexandrov_endpoints():
    rng = np.random.default_rng(8)
    x, y = _random_pd(rng, 3), _random_pd(rng, 2)
    start = alexandrov_geodesic(x, y, 0.0)
    end = alexandrov_geodesic(x, y, 1.0)
    assert np.allclose(np.sort(start.pairs, axis=0), np.sort(x.pairs, axis=0))
    assert np.allclose(np.sort(end.pairs, axis=0), np.sort(y.pairs, axis=0))
    with pytest.raises(ValueError):
        alexandrov_geodesic(x, y, -0.1)


def test_alexandrov_midpoint_example():
    x = _pd([[0.0, 1.0]])
    y = _pd([[0.0, 0.5]])
    # Matching the two points costs |(0,1)-(0,0.5)|^2 = 0.25, cheaper than
    # two diagonal projections at 0.5 + 0.125; verified by the oracle.
    assert brute_force(x, y, 2) == pytest.approx(0.5, abs=1e-12)
    mid = alexandrov_geodesic(x, y, 0.5)
    assert mid.pairs.tolist() == [[0.0, 0.75]]


def test_alexandrov_midpoint_is_mean():
    rng = np.random.default_rng(21)
    x, y = _random_pd(rng, 4), _random_pd(rng, 3)
    d = wasserstein(x, y, 2)[0]
    mid = alexandrov_geodesic(x, y, 0.5)
    assert wasserstein(x, mid, 2)[0] == pytest.approx(d / 2, abs=1e-9)
    assert wasserstein(mid, y, 2)[0] == pytest.approx(d / 2, abs=1e-9)


def test_alexandrov_arc_length():
    rng = np.random.default_rng(13)
    for _ in range(10):
        x = _random_pd(rng, int(rng.integers(1, 5)))
        y = _random_pd(rng, int(rng.integers(1, 5)))
        d = wasserstein(x, y, 2)[0]
        for s in (0.25, 0.5, 0.75):
            g = alexandrov_geodesic(x, y, s)
            assert wasserstein(x, g, 2)[0] == pytest.approx(s * d, abs=1e-6)


# Diagrams on one birth line take the alignment path; the oracles below are
# the exhaustive minimum and the Hungarian solve on the same costs.


def _line_pd(birth, deaths):
    deaths = np.asarray(deaths, dtype=float)
    return PersistenceDiagram(0, np.column_stack([np.full(deaths.size, birth), deaths]))


def _line_deaths(rng, birth, n):
    # Deaths on a coarse grid, so ties within and across diagrams are common.
    step = float(rng.choice([0.05, 0.1, 0.25]))
    return birth + step * rng.integers(1, 6, n)


def _assert_covers(matching, nx, ny):
    xs = sorted(i for i, _ in matching.pairs if i is not None)
    ys = sorted(j for _, j in matching.pairs if j is not None)
    assert xs == list(range(nx))
    assert ys == list(range(ny))


@pytest.mark.parametrize("birth", [0.0, 0.3])
def test_line_path_agrees_with_brute_force(birth):
    rng = np.random.default_rng(41)
    for nx in range(9):
        for ny in range(9 - nx):
            for _ in range(3):
                x = _line_pd(birth, _line_deaths(rng, birth, nx))
                y = _line_pd(birth, _line_deaths(rng, birth, ny))
                for q in (1, 2):
                    d, matching = wasserstein(x, y, q)
                    assert abs(d - brute_force(x, y, q)) <= 1e-12
                    assert matching.cost == d
                    _assert_covers(matching, nx, ny)


def test_line_path_closed_forms():
    x = _line_pd(0.0, [0.25, 0.5, 0.5])
    empty = _line_pd(0.0, [])
    assert wasserstein(x, empty, 1)[0] == 1.25
    assert wasserstein(empty, x, 2)[0] == pytest.approx(np.sqrt(0.5625 / 2), abs=1e-15)
    assert [j for _, j in wasserstein(empty, x, 1)[1].pairs] == [0, 1, 2]
    assert wasserstein(x, x, 2)[0] == 0.0
    # The same multiset in another order: the oracle must not cancel
    # its way to a tiny negative sum and a NaN root.
    z = _line_pd(0.0, 0.05 * np.array([2, 5, 3]))
    z_back = _line_pd(0.0, z.pairs[::-1, 1])
    assert brute_force(z, z_back, 2) == 0.0
    assert wasserstein(z, z_back, 2)[0] == 0.0
    # Sorted pairing: 0.25 with 0.3 and 0.5 with 0.45, not crosswise.
    y = _line_pd(0.0, [0.45, 0.3])
    d, matching = wasserstein(_line_pd(0.0, [0.5, 0.25]), y, 1)
    assert matching.pairs == [(0, 0), (1, 1)]
    assert d == pytest.approx(0.1, abs=1e-15)


@pytest.mark.parametrize("q", [1, 2])
def test_line_path_agrees_with_hungarian(q):
    rng = np.random.default_rng(43)
    for nx, ny, tied in ((45, 40, False), (30, 45, True), (12, 0, False), (20, 21, True)):
        birth = 0.0 if nx % 2 else 0.2
        if tied:
            dx, dy = _line_deaths(rng, birth, nx), _line_deaths(rng, birth, ny)
        else:
            dx = birth + rng.uniform(0.01, 0.8, nx)
            dy = birth + rng.uniform(0.01, 0.8, ny)
        x, y = _line_pd(birth, dx), _line_pd(birth, dy)
        d, matching = wasserstein(x, y, q)
        costs = W._assignment_costs(x, y, q)
        ref, _ = W._decode(W._hungarian_partners(*costs), *costs, q)
        assert abs(d - ref) <= 1e-12 * ref
        _assert_covers(matching, nx, ny)


def test_dispatch_by_shared_birth(monkeypatch):
    solve = W._solve_assignment
    calls = []

    def counting(cost):
        calls.append(cost.shape[0])
        return solve(cost)

    monkeypatch.setattr(W, "_solve_assignment", counting)
    # Shaped like acceptance criterion 2: small diagrams, births U(0, 0.6).
    rng = np.random.default_rng(2024)
    x, y = _random_pd(rng, 4), _random_pd(rng, 3)
    d1, m1 = wasserstein(x, y, 1)
    d2, m2 = wasserstein(x, y, 2)
    assert d1 == 0.6296865841893864
    assert m1.pairs == [(0, 2), (1, 1), (2, 0), (3, None)]
    assert d2 == 0.2681164297377276
    assert m2.pairs == [(0, 2), (1, 1), (2, None), (3, None), (None, 0)]
    # Shaped like criterion 5: random_diagram pairs of 20 points.
    rng = np.random.default_rng(5)
    x, y = random_diagram(rng, 20), random_diagram(rng, 20)
    d1, m1 = wasserstein(x, y, 1)
    d2, m2 = wasserstein(x, y, 2)
    assert d1 == 1.7895085503279464
    assert [j for _, j in m1.pairs] == [
        18, 1, 5, 2, 10, 6, 12, 17, 8, 15, 16, None, 14, 13, 9, 11, 0, 3, 19, 7, 4
    ]
    assert d2 == 0.38789574483401923
    assert [j for _, j in m2.pairs] == [
        11, 1, 5, 2, 10, 6, 12, 17, 8, None, 16, None, 3, 15, 9, 18, 0, 14, 19, 7, 4, 13
    ]
    assert calls == [7, 7, 40, 40]

    def forbidden(cost):
        raise AssertionError("equal births must not reach the Hungarian solve")

    monkeypatch.setattr(W, "_solve_assignment", forbidden)
    for birth in (0.0, 0.4):
        x = _line_pd(birth, birth + rng.uniform(0.01, 0.5, 30))
        y = _line_pd(birth, birth + rng.uniform(0.01, 0.5, 25))
        for q in (1, 2):
            wasserstein(x, y, q)
        alexandrov_geodesic(x, y, 0.5)


@pytest.mark.parametrize("q", [1, 2])
def test_batched_line_path_equals_wasserstein(q):
    # Oracle: the per-pair alignment and sum; equality is exact, not close.
    rng = np.random.default_rng(47)
    xs, ys = [], []
    for _ in range(300):
        birth = float(rng.choice([0.0, 0.3]))
        nx, ny = (int(n) for n in rng.integers(0, 12, 2))
        if rng.integers(2):
            xs.append(_line_pd(birth, _line_deaths(rng, birth, nx)))
            ys.append(_line_pd(birth, _line_deaths(rng, birth, ny)))
        else:
            xs.append(_line_pd(birth, birth + rng.uniform(0.01, 0.8, nx)))
            ys.append(_line_pd(birth, birth + rng.uniform(0.01, 0.8, ny)))
    # Optima read at the first anti-diagonal (two empty diagrams), at the
    # alignment's borders (one side empty, both ways) and at the last one
    # (the tallest pair of the batch).
    empty = _line_pd(0.3, [])
    tall_x = _line_pd(0.3, 0.3 + rng.uniform(0.01, 0.8, 12))
    tall_y = _line_pd(0.3, _line_deaths(rng, 0.3, 12))
    xs += [empty, empty, tall_x, tall_x]
    ys += [empty, tall_y, empty, tall_y]
    solved = [wasserstein(x, y, q) for x, y in zip(xs, ys)]
    ref = [d for d, _ in solved]
    assert W._line_distances(xs, ys, q).tolist() == ref
    assert W.pair_distances(xs, ys, q).tolist() == ref
    assert W.pair_distances([], [], q).tolist() == []
    # The optimum and its matching's costs summed in another order add the
    # same nonnegative terms, so they differ by rounding: one ulp per term.
    for (d, matching), x, y in zip(solved, xs, ys):
        cross, diag_x, diag_y = W._assignment_costs(x, y, q)
        total = 0.0
        for i, j in matching.pairs:
            total += diag_y[j] if i is None else diag_x[i] if j is None else cross[i, j]
        summed = total if q == 1 else np.sqrt(total)
        assert abs(d - summed) <= len(matching.pairs) * np.spacing(summed)


def _interpolate_by_loop(x, y, s):
    """The geodesic as a loop over `wasserstein`'s Matching, one point at a
    time: the reference for `alexandrov_path`'s rows, their order and bytes."""
    _, matching = wasserstein(x, y, q=2)
    out = []
    for i, j in matching.pairs:
        if i is not None:
            a = x.pairs[i]
            b = y.pairs[j] if j is not None else np.full(2, a.mean())
        else:
            b = y.pairs[j]
            a = np.full(2, b.mean())
        p = (1.0 - s) * a + s * b
        if p[1] > p[0]:
            out.append(p)
    return np.asarray(out, dtype=float) if out else np.empty((0, 2))


def test_alexandrov_path_equals_the_per_point_loop():
    rng = np.random.default_rng(59)
    corpus = []
    for _ in range(60):
        # One birth with tied deaths: the alignment's partners.
        birth = float(rng.choice([0.0, 0.3]))
        nx, ny = (int(n) for n in rng.integers(0, 12, 2))
        corpus.append((_line_pd(birth, _line_deaths(rng, birth, nx)),
                       _line_pd(birth, _line_deaths(rng, birth, ny))))
        # Two births, and random births: the Hungarian partners.
        nx, ny = (int(n) for n in rng.integers(1, 8, 2))
        corpus.append((_line_pd(0.0, _line_deaths(rng, 0.0, nx)),
                       _line_pd(0.3, _line_deaths(rng, 0.3, ny))))
        corpus.append((_random_pd(rng, nx), _random_pd(rng, ny)))
    full = _random_pd(rng, 5)
    corpus += [(EMPTY, EMPTY), (full, EMPTY), (EMPTY, full)]
    fractions = [0.0, 0.25, 0.5, 1.0]
    for x, y in corpus:
        path = alexandrov_path(x, y, fractions)
        for s, step in zip(fractions, path):
            ref = _interpolate_by_loop(x, y, s)
            assert step.pairs.shape == ref.shape
            assert step.pairs.tobytes() == ref.tobytes()
            one = alexandrov_geodesic(x, y, s)
            assert one.pairs.tobytes() == step.pairs.tobytes()
            assert one.essential.tobytes() == step.essential.tobytes()


def test_alexandrov_path_carries_essential_bars():
    # Essential births pair in sorted order (0.0 with 0.1, 0.4 with 0.2);
    # each step lists them in X's order, so the path starts at X.
    x = PersistenceDiagram(0, [[0.0, 0.5]], [0.4, 0.0])
    y = PersistenceDiagram(0, [[0.0, 0.3]], [0.1, 0.2])
    start, mid, end = alexandrov_path(x, y, [0.0, 0.5, 1.0])
    assert start.pairs.tobytes() == x.pairs.tobytes()
    assert start.essential.tolist() == [0.4, 0.0]
    assert mid.essential.tolist() == [0.5 * 0.4 + 0.5 * 0.2, 0.5 * 0.1]
    assert end.essential.tolist() == [0.2, 0.1]
    assert alexandrov_geodesic(x, y, 0.5).essential.tolist() == mid.essential.tolist()
    assert alexandrov_path(x, y, []) == []
    with pytest.raises(ValueError, match="2 and 1 essential bars"):
        alexandrov_path(x, PersistenceDiagram(0, [[0.0, 0.3]], [0.1]), [0.5])
    with pytest.raises(ValueError, match=r"in \[0, 1\]"):
        alexandrov_path(x, y, [0.5, 1.5])


def test_line_partners_tie_order():
    # Deaths on a grid tie within and across the diagrams, so the order of
    # the strict comparisons (pair, then X to the diagonal, then Y to the
    # diagonal) decides partners. The values were recorded before the cell
    # loop took its current form; testing the Y move before the X move
    # changes the partners of this pair and the corpus digest.
    x = _line_pd(0.0, 0.05 * np.array([5, 1, 1, 3, 5, 5, 1, 3, 1]))
    y = _line_pd(0.0, 0.05 * np.array([8, 10, 2, 4, 8, 6, 4, 10]))
    costs = W._assignment_costs(x, y, 2)
    partner, total = W._line_partners(x.pairs[:, 1], y.pairs[:, 1], *costs)
    assert partner == [0, -1, 2, 6, 1, 7, -1, 5, -1]
    assert total == float.fromhex("0x1.1d70a3d70a3d8p-2")
    rng = np.random.default_rng(53)
    record = hashlib.sha256()
    for _ in range(200):
        birth = float(rng.choice([0.0, 0.3]))
        nx, ny = (int(n) for n in rng.integers(0, 10, 2))
        x = _line_pd(birth, _line_deaths(rng, birth, nx))
        y = _line_pd(birth, _line_deaths(rng, birth, ny))
        for q in (1, 2):
            costs = W._assignment_costs(x, y, q)
            partner, total = W._line_partners(x.pairs[:, 1], y.pairs[:, 1], *costs)
            record.update(f"{partner} {total.hex()}\n".encode())
    assert record.hexdigest() == (
        "0b844d01168ae1bf7fead7757ee89f305a9982467fef757ae6a225075eff63da"
    )


def test_homology_dimensions_must_agree():
    h0 = _line_pd(0.0, [0.5])
    h1 = _pd([[0.2, 0.6]])
    with pytest.raises(ValueError, match="homology dimensions"):
        wasserstein(h0, h1, 1)
    with pytest.raises(ValueError, match="homology dimensions"):
        alexandrov_geodesic(h1, h0, 0.5)
    with pytest.raises(ValueError, match="homology dimensions"):
        brute_force(h0, h1, 1)
    with pytest.raises(ValueError, match="homology dimensions"):
        W.pair_distances([h0, h0], [h0, EMPTY], 1)


@pytest.mark.parametrize("q", [1, 2])
def test_pair_distances_rejects_sides_of_different_lengths(q):
    # zip would pair only the first len(ys) items and leave the rest of the
    # output uninitialised.
    a, b = _line_pd(0.0, [0.5, 0.7]), _line_pd(0.0, [0.3])
    for xs, ys in (([a, b, a], [b]), ([a], [b, a]), ([], [a])):
        with pytest.raises(ValueError, match="differ in length"):
            W.pair_distances(xs, ys, q)
