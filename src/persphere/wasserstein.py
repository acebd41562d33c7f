"""Matching metrics between persistence diagrams.

L1- and L2-Wasserstein distances with diagonal augmentation, solved
exactly: by an O(nx*ny) alignment over sorted deaths when every point of
both diagrams has the same birth (every Rips H0 diagram is born at 0),
and otherwise by the Hungarian algorithm on a square cost matrix. The
distances of many pairs (`pair_distances`, behind every distance matrix)
solve all one-birth pairs together, in one alignment vectorized across
the pairs. Also an exhaustive oracle for small instances, and the
matched-interpolation geodesic whose midpoint is the two-diagram mean:
`alexandrov_path` takes each point's partner straight from the alignment
or the Hungarian solve, once for any number of fractions, and
interpolates every point in one array operation per fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations

import numpy as np

from .persistence import PersistenceDiagram

# Marker for "matched to the diagonal" in Matching.pairs.
DIAGONAL = None

BRUTE_FORCE_LIMIT = 8

# Most alignment cells that one batch of `_line_distances` spans:
# pairs x (padded X + 1) x (padded Y + 1).
LINE_BATCH_CELLS = 1 << 20


@dataclass
class Matching:
    """Optimal pairing underlying a Wasserstein distance.

    `pairs` holds (index in X, index in Y) with None marking a diagonal
    partner; every off-diagonal point of each diagram appears exactly once.
    `cost` is the reported distance (for q=2, the square root of the summed
    squared ground costs). On one birth it is the alignment's optimum, which
    may differ by a rounding from these pairs' costs summed in another
    order; otherwise it is their sum in `_decode`'s order.
    """

    pairs: list[tuple[int | None, int | None]]
    cost: float


def _diagonal_gap(points: np.ndarray) -> np.ndarray:
    # death - birth: the L1 distance to the diagonal, and sqrt(2) times the
    # L2 (orthogonal projection) distance.
    return points[:, 1] - points[:, 0]


def _diagonal_costs(points: np.ndarray, q: int) -> np.ndarray:
    gap = _diagonal_gap(points)
    return gap if q == 1 else gap * gap / 2.0


def _ground_costs(px: np.ndarray, py: np.ndarray, q: int) -> np.ndarray:
    # Birth term plus death term, in that order, as two 2-D arrays.
    db = px[:, None, 0] - py[None, :, 0]
    dd = px[:, None, 1] - py[None, :, 1]
    if q == 1:
        return np.abs(db) + np.abs(dd)
    return db * db + dd * dd


def _check_pairs(xs, ys, q: int) -> None:
    """Raise ValueError for q other than 1 or 2, for unequal lengths, and
    for a pair (xs[k], ys[k]) of different homology dimensions."""
    if q not in (1, 2):
        raise ValueError(f"q must be 1 or 2, got {q}")
    if len(xs) != len(ys):
        raise ValueError(f"pair sides differ in length: {len(xs)} vs {len(ys)}")
    if any(x.homology_dim != y.homology_dim for x, y in zip(xs, ys)):
        raise ValueError("diagrams have different homology dimensions")


def _assignment_costs(x: PersistenceDiagram, y: PersistenceDiagram, q: int):
    """Point-to-point, X-to-diagonal, and Y-to-diagonal assignment costs.

    For q=2 these are squared distances (the final value takes a square
    root); for q=1 they are plain L1 distances. Raises ValueError for any
    other q and for diagrams of different homology dimensions.
    """
    _check_pairs([x], [y], q)
    px, py = x.pairs, y.pairs
    return _ground_costs(px, py, q), _diagonal_costs(px, q), _diagonal_costs(py, q)


def _birth_range(d: PersistenceDiagram) -> tuple[float, float]:
    """Lowest and highest birth of a diagram; (inf, -inf) when it is empty."""
    births = d.pairs[:, 0]
    return (float(births.min()), float(births.max())) if births.size else (np.inf, -np.inf)


def _one_birth(range_x, range_y) -> bool:
    """Whether two diagrams with these birth ranges have every point born
    at the same value (two empty diagrams included)."""
    return min(range_x[0], range_y[0]) >= max(range_x[1], range_y[1])


def _solve_assignment(cost: np.ndarray) -> np.ndarray:
    """Exact minimum-cost perfect matching of a square matrix, O(n^3).

    Hungarian algorithm with row/column potentials and shortest augmenting
    paths. Returns row_for_col with 0-based indices.
    """
    c = np.asarray(cost, dtype=float)
    n = c.shape[0]
    rows = c.tolist()
    inf = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match = [0] * (n + 1)  # col (1-based) -> row (1-based, 0 = free)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            row = rows[i0 - 1]
            shift = u[i0]
            delta = inf
            j1 = 0
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - shift - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j_prev = way[j0]
            match[j0] = match[j_prev]
            j0 = j_prev
    return np.asarray(match[1:], dtype=int) - 1


def _hungarian_partners(cross, diag_x, diag_y) -> list[int]:
    """Y partner of each X point (-1 for the diagonal), by a Hungarian solve.

    The square matrix has one row per X point and per Y diagonal slot, and
    one column per Y point and per X diagonal slot; diagonal-to-diagonal
    entries cost nothing and forbidden entries cost more than any matching.
    """
    nx, ny = cross.shape
    size = nx + ny
    big = float(cross.sum() + diag_x.sum() + diag_y.sum()) + 1.0
    cost = np.full((size, size), big)
    cost[:nx, :ny] = cross
    # X point i may pair with its own diagonal slot (column ny + i);
    # row nx + j is the diagonal partner that absorbs Y point j.
    cost[np.arange(nx), ny + np.arange(nx)] = diag_x
    cost[nx + np.arange(ny), np.arange(ny)] = diag_y
    cost[nx:, ny:] = 0.0

    row_for_col = _solve_assignment(cost)
    col_for_row = np.empty(size, dtype=int)
    col_for_row[row_for_col] = np.arange(size)
    return [j if j < ny else -1 for j in col_for_row[:nx].tolist()]


def _line_partners(deaths_x, deaths_y, cross, diag_x, diag_y) -> tuple[list[int], float]:
    """Y partner of each X point (-1 for the diagonal), for one shared birth,
    and the minimal summed cost.

    When every point is born at the same value, each cost is a convex
    function of a death gap, so matching the paired points in death order
    is optimal. An alignment over the deaths sorted ascending (X point to
    the diagonal, X and Y points paired, Y point to the diagonal) then
    finds a minimum in O(nx*ny) time; ties prefer the pair move. The
    minimum is the float its last cell reaches.
    """
    nx, ny = cross.shape
    ox = np.argsort(deaths_x, kind="stable").tolist()
    oy = np.argsort(deaths_y, kind="stable").tolist()
    pair = cross[np.ix_(ox, oy)].tolist()
    cost_x = diag_x[ox].tolist()
    cost_y = diag_y[oy].tolist()
    # moves[i][j] is the last step of a best alignment of the first i + 1
    # sorted X points with the first j + 1 sorted Y points: 0 pairs them,
    # 1 sends the X point and 2 the Y point to the diagonal.
    moves = []
    prev = [0.0] * (ny + 1)
    for j in range(ny):
        prev[j + 1] = prev[j] + cost_y[j]
    for row, gap in zip(pair, cost_x):
        left = prev[0] + gap
        cur, steps = [left], []
        put, mark = cur.append, steps.append
        for diag, above, cost, to_diag in zip(prev, prev[1:], row, cost_y):
            best, step = diag + cost, 0
            up = above + gap
            if up < best:
                best, step = up, 1
            side = left + to_diag
            if side < best:
                best, step = side, 2
            put(best)
            mark(step)
            left = best
        moves.append(steps)
        prev = cur

    partner = [-1] * nx
    i, j = nx, ny
    while i and j:
        step = moves[i - 1][j - 1]
        if step == 0:
            partner[ox[i - 1]] = oy[j - 1]
        i -= step != 2
        j -= step != 1
    return partner, prev[ny]


def _decode(partner, cross, diag_x, diag_y, q: int):
    """Distance and Matching of a partner list: X rows, then unmatched Y,
    with the distance summed from the pairs in that order."""
    ny = cross.shape[1]
    pairs: list[tuple[int | None, int | None]] = []
    matched = [False] * ny
    total = 0.0
    for i, j in enumerate(partner):
        if j >= 0:
            pairs.append((i, j))
            matched[j] = True
            total += float(cross[i, j])
        else:
            pairs.append((i, DIAGONAL))
            total += float(diag_x[i])
    for j in range(ny):
        if not matched[j]:
            pairs.append((DIAGONAL, j))
            total += float(diag_y[j])
    dist = total if q == 1 else float(np.sqrt(total))
    return dist, Matching(pairs=pairs, cost=dist)


def wasserstein(x: PersistenceDiagram, y: PersistenceDiagram, q: int = 2):
    """
    Lq-Wasserstein distance between two finite diagrams.

    Every point matches a point of the other diagram or its own orthogonal
    diagonal projection; diagonal-to-diagonal matches cost nothing. For
    q=2 the distance is the square root of the minimal summed squared
    ground costs; for q=1 it is the minimal summed L1 ground costs.

    When every point of both diagrams has the same birth, as in Rips H0
    diagrams, an exact O(nx*ny) alignment over the sorted deaths gives the
    matching, and the distance is the alignment's optimum. Otherwise an
    O((nx+ny)^3) Hungarian solve gives the matching, and the distance is
    summed from it. Diagrams of different homology dimensions raise
    ValueError.

    Returns
    -------
    (distance, matching) : tuple of float and Matching
    """
    cross, diag_x, diag_y = _assignment_costs(x, y, q)
    if not _one_birth(_birth_range(x), _birth_range(y)):
        return _decode(_hungarian_partners(cross, diag_x, diag_y), cross, diag_x, diag_y, q)
    partner, total = _line_partners(x.pairs[:, 1], y.pairs[:, 1], cross, diag_x, diag_y)
    _, matching = _decode(partner, cross, diag_x, diag_y, q)
    matching.cost = total if q == 1 else float(np.sqrt(total))
    return matching.cost, matching


def _sorted_stack(diagrams, q: int):
    """Deaths and diagonal costs of the diagrams in stable death order, one
    column per diagram, zero-padded to one height; with the sizes."""
    sizes = np.array([d.pairs.shape[0] for d in diagrams], dtype=int)
    height = int(sizes.max(initial=0))
    real = np.arange(height) < sizes[:, None]
    points = np.concatenate([d.pairs for d in diagrams]) if height else np.empty((0, 2))
    # Padding sorts after every finite death, so each column's order is the
    # stable argsort of its own deaths, as `_line_partners` takes it.
    deaths = np.full((height, sizes.size), np.inf)
    deaths.T[real] = points[:, 1]
    costs = np.zeros(deaths.shape)
    costs.T[real] = _diagonal_costs(points, q)
    order = np.argsort(deaths, axis=0, kind="stable")
    deaths = np.where(real.T, np.take_along_axis(deaths, order, 0), 0.0)
    return deaths, np.take_along_axis(costs, order, 0), sizes


def _line_distances(xs, ys, q: int) -> np.ndarray:
    """Distances of the one-birth pairs (xs[k], ys[k]), solved together.

    Runs the alignment of `_line_partners` over the anti-diagonals of a
    stack of death-sorted, zero-padded pairs, with pair k in column k: the
    same costs, added in the same order, and the same minima. Pair k's
    optimum is its cell (nx[k], ny[k]), which padding cannot reach, so
    each distance equals `wasserstein(xs[k], ys[k], q)[0]` bit for bit.
    The caller checks q, the homology dimensions and that every point of
    each pair has the same birth.
    """
    n = len(xs)
    dx, cx, nx = _sorted_stack(xs, q)
    dy, cy, ny = _sorted_stack(ys, q)
    mx, my = dx.shape[0], dy.shape[0]
    # Y reversed, so the cells of an anti-diagonal read a forward slice.
    dy_back, cy_back = dy[::-1].copy(), cy[::-1].copy()
    # Row i of `old` and `last` holds the best cost of the first i sorted X
    # points against the first t - 2 - i (old) and t - 1 - i (last) sorted
    # Y points. Pair k's optimum is row nx[k] at t = nx[k] + ny[k]; two
    # empty diagrams have optimum 0 at t = 0.
    old = np.zeros((mx + 1, n))
    last = np.zeros((mx + 1, n))
    ends = nx + ny
    total = np.zeros(n)
    for t in range(1, mx + my + 1):
        cur = np.empty((mx + 1, n))
        if t <= my:
            cur[0] = last[0] + cy[t - 1]
        if t <= mx:
            cur[t] = last[t - 1] + cx[t - 1]
        lo, hi = max(1, t - my), min(mx, t - 1)
        if lo <= hi:
            # Cells (i, t - i) for i in [lo, hi]: X point i - 1 and Y point
            # t - i - 1, which is row my - t + i of the reversed Y.
            xi, yj = slice(lo - 1, hi), slice(my - t + lo, my - t + hi + 1)
            diff = np.abs(dx[xi] - dy_back[yj])
            best = old[xi] + (diff if q == 1 else diff * diff)
            up = last[xi] + cx[xi]
            side = last[lo:hi + 1] + cy_back[yj]
            # Equal sums are the same nonnegative float, so the minimum is
            # the sum that the `<` comparisons of `_line_partners` pick.
            cur[lo:hi + 1] = np.minimum(side, np.minimum(up, best))
        done = ends == t
        total[done] = cur[nx[done], done]
        old, last = last, cur
    return total if q == 1 else np.sqrt(total)


def pair_distances(xs, ys, q: int = 2) -> np.ndarray:
    """
    Lq-Wasserstein distance of every pair (xs[k], ys[k]).

    Each entry equals `wasserstein(xs[k], ys[k], q)[0]` bit for bit. The
    pairs whose points all share one birth (every pair of Rips H0
    diagrams, and a pair with an empty diagram) are solved together, in
    batches of at most LINE_BATCH_CELLS alignment cells; the others one
    at a time by `wasserstein`. Raises ValueError for q other than 1 or 2,
    for unequal lengths, and for a pair of different homology dimensions.
    """
    _check_pairs(xs, ys, q)
    # A matrix repeats each diagram in many pairs: find its births once.
    unique = {id(d): d for d in (*xs, *ys)}
    ranges = {key: _birth_range(d) for key, d in unique.items()}
    out = np.empty(len(xs))
    batches: list[list[int]] = [[]]
    wx = wy = 0
    for k, (x, y) in enumerate(zip(xs, ys)):
        if not _one_birth(ranges[id(x)], ranges[id(y)]):
            out[k] = wasserstein(x, y, q)[0]
            continue
        nx, ny = x.pairs.shape[0], y.pairs.shape[0]
        wx, wy = max(wx, nx), max(wy, ny)
        if batches[-1] and (len(batches[-1]) + 1) * (wx + 1) * (wy + 1) > LINE_BATCH_CELLS:
            batches.append([])
            wx, wy = nx, ny
        batches[-1].append(k)
    for batch in batches:
        if batch:
            out[batch] = _line_distances([xs[k] for k in batch], [ys[k] for k in batch], q)
    return out


def brute_force(x: PersistenceDiagram, y: PersistenceDiagram, q: int = 2) -> float:
    """
    Exhaustive minimum over all matchings, for |X| + |Y| <= 8.

    Every subset of X is matched bijectively to a same-size subset of Y in
    every order; unmatched points pay their diagonal cost.
    """
    nx, ny = x.pairs.shape[0], y.pairs.shape[0]
    if nx + ny > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"brute force is limited to {BRUTE_FORCE_LIMIT} total points, "
            f"got {nx + ny}"
        )
    cross, diag_x, diag_y = (c.tolist() for c in _assignment_costs(x, y, q))
    best = float("inf")
    for k in range(min(nx, ny) + 1):
        for xs in combinations(range(nx), k):
            # Sums of nonnegative costs only, so a zero distance stays 0.0
            # and a small one keeps its relative accuracy under the root.
            base = sum((diag_x[i] for i in range(nx) if i not in xs), 0.0)
            for ys in permutations(range(ny), k):
                total = base + sum((diag_y[j] for j in range(ny) if j not in ys), 0.0)
                for xi, yj in zip(xs, ys):
                    total += cross[xi][yj]
                best = min(best, total)
    return best if q == 1 else float(np.sqrt(best))


def _projections(points: np.ndarray) -> np.ndarray:
    """Orthogonal projection of each point onto the diagonal."""
    return np.repeat((points[:, 0] + points[:, 1]) / 2, 2).reshape(-1, 2)


def alexandrov_path(
    x: PersistenceDiagram, y: PersistenceDiagram, fractions
) -> list[PersistenceDiagram]:
    """
    Diagrams at each of `fractions` along the matched-interpolation geodesic.

    The optimal L2 matching is solved once, by the alignment on one shared
    birth and by the Hungarian solve otherwise. Each matched pair moves
    linearly from its X position to its Y position; points matched to the
    diagonal move to or from their orthogonal projection. The rows are the
    X points, then the unmatched Y points in index order, and interpolants
    landing on the diagonal are dropped. Essential bars pair in sorted-birth
    order and their births move linearly; each diagram keeps X's essential
    order. The midpoint s=0.5 is the two-diagram mean. Raises ValueError for
    a fraction outside [0, 1], for diagrams of different homology dimensions
    and for unequal numbers of essential bars.
    """
    fractions = [float(s) for s in fractions]
    for s in fractions:
        if not 0.0 <= s <= 1.0:
            raise ValueError(f"geodesic parameter must be in [0, 1], got {s}")
    cross, diag_x, diag_y = _assignment_costs(x, y, 2)
    if x.essential.size != y.essential.size:
        raise ValueError(
            f"diagrams have {x.essential.size} and {y.essential.size} essential bars; "
            "the geodesic needs equal counts"
        )
    if _one_birth(_birth_range(x), _birth_range(y)):
        partner, _ = _line_partners(x.pairs[:, 1], y.pairs[:, 1], cross, diag_x, diag_y)
    else:
        partner = _hungarian_partners(cross, diag_x, diag_y)
    partner = np.asarray(partner, dtype=int)
    hit = np.flatnonzero(partner >= 0)
    free = np.ones(y.pairs.shape[0], dtype=bool)
    free[partner[hit]] = False
    start = np.concatenate([x.pairs, _projections(y.pairs[free])])
    end = np.concatenate([_projections(x.pairs), y.pairs[free]])
    end[hit] = y.pairs[partner[hit]]
    essential_end = np.empty_like(x.essential)
    essential_end[np.argsort(x.essential, kind="stable")] = np.sort(y.essential)
    path = []
    for s in fractions:
        p = (1.0 - s) * start + s * end
        essential = (1.0 - s) * x.essential + s * essential_end
        path.append(PersistenceDiagram(x.homology_dim, p[p[:, 1] > p[:, 0]], essential))
    return path


def alexandrov_geodesic(
    x: PersistenceDiagram, y: PersistenceDiagram, s: float
) -> PersistenceDiagram:
    """Diagram at fraction `s` along the matched-interpolation geodesic: the
    one-fraction case of `alexandrov_path`."""
    return alexandrov_path(x, y, [s])[0]
