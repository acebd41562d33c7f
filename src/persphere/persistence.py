"""Vietoris-Rips persistence of point clouds.

`diagram_of_cloud` computes the H0/H1 diagrams of a cloud's Rips
filtration, optionally with temporal one-skeleton links; its docstring
states its contract, and `_h1_by_cohomology` describes the engine.
`build_rips` and `compute_persistence` build the filtration up to
triangles and reduce its boundary matrix over Z/2: the reference the
engine is tested against.
Also: a union-find H0 over all pairwise edges, rescaling of diagrams to
the unit square, and the diagram CSV format.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import ParseError, read_csv, write_csv


class FiltrationError(ValueError):
    """Raised when a filtration violates the face-ordering contract."""


@dataclass
class Filtration:
    """Simplices as (vertex tuple, birth), sorted by (birth, dim, vertices).

    Vertex tuples are strictly increasing; a simplex with k+1 vertices is a
    k-simplex. Every face must appear before its cofaces and be born no
    later than them.
    """

    simplices: list[tuple[tuple[int, ...], float]]

    def validate(self) -> None:
        """Raise FiltrationError if ordering, faces, or births are malformed."""
        _index_simplices(self.simplices)


@dataclass
class PersistenceDiagram:
    """Multiset of finite (birth, death) pairs plus essential births.

    `pairs` has shape (n, 2) with death > birth >= 0; `essential` holds the
    births of classes that never die within the filtration.
    """

    homology_dim: int
    pairs: np.ndarray
    essential: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        self.pairs = np.asarray(self.pairs, dtype=float).reshape(-1, 2)
        self.essential = np.asarray(self.essential, dtype=float).reshape(-1)
        if self.homology_dim not in (0, 1):
            raise ValueError(f"homology dimension must be 0 or 1, got {self.homology_dim}")
        if not np.all(np.isfinite(self.pairs)):
            raise ValueError("diagram pairs must be finite")
        if not np.all(np.isfinite(self.essential)):
            raise ValueError("essential births must be finite")
        if np.any(self.pairs < 0) or np.any(self.essential < 0):
            raise ValueError("birth/death values must be nonnegative")
        if self.pairs.size and not np.all(self.pairs[:, 1] > self.pairs[:, 0]):
            raise ValueError("every finite pair must satisfy death > birth")

    def max_finite(self) -> float:
        """Largest finite coordinate (0.0 for an empty diagram)."""
        top = 0.0
        if self.pairs.size:
            top = max(top, float(self.pairs.max()))
        if self.essential.size:
            top = max(top, float(self.essential.max()))
        return top

    def sorted_pairs(self) -> np.ndarray:
        """Pairs in lexicographic order, for multiset comparisons."""
        order = np.lexsort((self.pairs[:, 1], self.pairs[:, 0]))
        return self.pairs[order]


def _index_simplices(simplices):
    """
    Check the filtration contract and index the simplices by dimension.

    Returns (by_dim, births, rank): per dimension, the vertex tuples and
    births in filtration order, and for every simplex its position within
    its dimension. Raises FiltrationError on an unsupported dimension,
    vertices that are not strictly increasing, a negative or non-finite
    birth, simplices out of (birth, dim, vertices) order (which covers a
    face born after its coface), a missing face, or a duplicate simplex.
    """
    by_dim: tuple[list, list, list] = ([], [], [])
    births: tuple[list[float], ...] = ([], [], [])
    rank: dict[tuple[int, ...], int] = {}
    prev_key = None
    for idx, (verts, birth) in enumerate(simplices):
        d = len(verts) - 1
        if not 0 <= d <= 2:
            raise FiltrationError(f"simplex {verts} has unsupported dimension")
        if d and (verts[0] >= verts[1] or d == 2 and verts[1] >= verts[2]):
            raise FiltrationError(f"simplex {verts} is not strictly increasing")
        if not math.isfinite(birth) or birth < 0:
            raise FiltrationError(f"simplex {verts} has invalid birth {birth}")
        key = (birth, d + 1, verts)
        if prev_key is not None and key < prev_key:
            raise FiltrationError(f"simplices out of order at index {idx}")
        prev_key = key
        for face in combinations(verts, d) if d else ():
            if face not in rank:
                raise FiltrationError(f"face {face} of {verts} is missing")
        if verts in rank:
            raise FiltrationError(f"duplicate simplex {verts}")
        rank[verts] = len(by_dim[d])
        by_dim[d].append(verts)
        births[d].append(birth)
    return by_dim, births, rank


def _as_cloud(cloud) -> np.ndarray:
    pts = np.asarray(cloud, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("point cloud must be a non-empty 2-D array")
    if not np.all(np.isfinite(pts)):
        raise ValueError("point cloud contains non-finite coordinates")
    return pts


def _distance_matrix(pts: np.ndarray) -> np.ndarray:
    """Pairwise Euclidean distances, in row blocks of about 2^20 differences."""
    n, m = pts.shape
    dist = np.empty((n, n))
    step = max(1, (1 << 20) // (n * m))
    for s in range(0, n, step):
        diff = pts[s:s + step, None, :] - pts[None, :, :]
        dist[s:s + step] = np.sqrt((diff * diff).sum(axis=-1))
    return dist


def _edge_births(pts: np.ndarray, temporal_links: bool) -> np.ndarray:
    """Birth of every edge: the pairwise distance, or 0 for a temporal link
    (consecutive rows) when `temporal_links` is set."""
    births = _distance_matrix(pts)
    if temporal_links:
        steps = np.arange(pts.shape[0] - 1)
        births[steps, steps + 1] = births[steps + 1, steps] = 0.0
    return births


def _check_scale(max_scale) -> None:
    if not np.isfinite(max_scale) or max_scale <= 0:
        raise ValueError(f"max_scale must be positive and finite, got {max_scale}")


def cloud_diameter(cloud) -> float:
    """Largest pairwise distance in the cloud."""
    pts = _as_cloud(cloud)
    return float(_distance_matrix(pts).max())


def build_rips(cloud, max_scale: float, temporal_links: bool = False) -> Filtration:
    """
    Build the Vietoris-Rips filtration of a cloud up to triangles.

    Vertices are born at 0; an edge is born at the pairwise distance when
    that distance is <= max_scale; a triangle is born at the largest birth
    of its three edges and requires all of them. With `temporal_links`,
    edges between consecutive points (by row order) are inserted with
    birth 0 regardless of distance.

    Parameters
    ----------
    cloud : array-like, shape (n, m)
        Point coordinates; rows keep their temporal order.
    max_scale : float
        Largest edge length admitted into the filtration, > 0.
    temporal_links : bool
        Insert zero-birth edges between consecutive rows.
    """
    pts = _as_cloud(cloud)
    _check_scale(max_scale)
    births = _edge_births(pts, temporal_links)
    adj = births <= max_scale  # read only at i < j < k, so the diagonal may stay

    simplices: list[tuple[tuple[int, ...], float]] = [((i,), 0.0) for i in range(len(pts))]
    edge_i, edge_j = np.nonzero(np.triu(adj, 1))
    for i, j in zip(edge_i.tolist(), edge_j.tolist()):
        simplices.append(((i, j), float(births[i, j])))
        ks = np.nonzero(adj[i] & adj[j])[0]
        ks = ks[ks > j]
        tri_birth = np.maximum(births[i, j], np.maximum(births[i, ks], births[j, ks]))
        for k, b in zip(ks.tolist(), tri_birth.tolist()):
            simplices.append(((i, j, k), float(b)))

    simplices.sort(key=lambda s: (s[1], len(s[0]), s[0]))
    return Filtration(simplices)


def _reduce_block(columns, births):
    """
    Reduce one dimension block of the boundary matrix over Z/2.

    `columns` yields integer bitsets over rank-numbered rows of the
    previous dimension, in filtration order. Returns (pairs, creators):
    `pairs` maps pivot row -> birth of the destroying column; `creators`
    lists the ranks of the columns that reduced to zero.
    """
    pivot: dict[int, int] = {}
    pairs: dict[int, float] = {}
    creators = []
    pivot_get = pivot.get
    for r, (col, birth) in enumerate(zip(columns, births)):
        while col:
            low = col.bit_length() - 1
            held = pivot_get(low)
            if held is None:
                pivot[low] = col
                pairs[low] = birth
                break
            col ^= held
        if col == 0:
            creators.append(r)
    return pairs, creators


def compute_persistence(filtration: Filtration) -> tuple[PersistenceDiagram, PersistenceDiagram]:
    """
    Standard Z/2 boundary-matrix reduction of a filtration.

    Returns the H0 and H1 diagrams. Zero-persistence pairs are discarded;
    classes that never die are reported as essential births. A filtration
    that breaks the contract `Filtration.validate` checks raises
    FiltrationError.

    Columns of different dimensions never interact in the reduction, so
    the edge block (vertex rows, H0) and the triangle block (edge rows,
    H1) are processed independently with per-dimension row numbering;
    this is the textbook algorithm, with columns materialized lazily.

    >>> pd0, pd1 = compute_persistence(build_rips([[0, 0], [1, 0], [1, 1], [0, 1]], 3.0))
    >>> pd1.pairs.tolist() == [[1.0, math.sqrt(2.0)]]
    True
    """
    by_dim, births, rank = _index_simplices(filtration.simplices)

    def columns(d):
        for verts in by_dim[d]:
            col = 0
            for face in combinations(verts, d):
                col |= 1 << rank[face]
            yield col

    deaths0, edge_creators = _reduce_block(columns(1), births[1])
    deaths1, _ = _reduce_block(columns(2), births[2])
    diagrams = []
    for dim, creators, deaths in ((0, range(len(births[0])), deaths0),
                                  (1, edge_creators, deaths1)):
        pairs, essential = [], []
        for r in creators:
            birth, death = births[dim][r], deaths.get(r)
            if death is None:
                essential.append(birth)
            elif death > birth:
                pairs.append((birth, death))
        diagrams.append(PersistenceDiagram(dim, pairs, essential))
    return tuple(diagrams)


def h0_unionfind(cloud, temporal_links: bool = False) -> PersistenceDiagram:
    """
    H0 diagram via Kruskal-style union-find over all pairwise edges.

    Each merge at distance w > 0 yields a pair (0, w); zero-length merges
    (duplicate points or temporal links) have zero persistence and are
    dropped. All merges are realized, which matches a filtration whose
    scale is at least the cloud diameter. One essential bar born at 0
    remains for the surviving component.

    >>> pd = h0_unionfind([[0.0], [1.0], [2.0]])
    >>> pd.pairs.tolist(), pd.essential.tolist()
    ([[0.0, 1.0], [0.0, 1.0]], [0.0])
    """
    pts = _as_cloud(cloud)
    iu, ju = np.triu_indices(len(pts), 1)
    weights = _edge_births(pts, temporal_links)[iu, ju]
    parent = list(range(len(pts)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    pairs = []
    for e in np.argsort(weights, kind="stable").tolist():
        ri, rj = find(int(iu[e])), find(int(ju[e]))
        if ri != rj:
            parent[ri] = rj
            if weights[e] > 0:
                pairs.append((0.0, float(weights[e])))
    return PersistenceDiagram(0, pairs, [0.0])


def normalize_diagram(pd: PersistenceDiagram, scale: float) -> PersistenceDiagram:
    """
    Divide all coordinates by `scale` and cap essential bars at death 1.

    `scale` must be positive and at least the largest finite coordinate,
    so that the result lives in the unit square. Essential bars become
    finite pairs (birth / scale, 1.0); pairs left with zero persistence
    by the cap are dropped.
    """
    if not np.isfinite(scale) or scale <= 0:
        raise ValueError(f"normalization scale must be positive, got {scale}")
    top = pd.max_finite()
    if top > scale:
        raise ValueError(
            f"normalization scale {scale} is smaller than coordinate {top}"
        )
    pairs = pd.pairs / scale
    if pd.essential.size:
        capped = np.column_stack([pd.essential / scale, np.ones(pd.essential.size)])
        capped = capped[capped[:, 1] > capped[:, 0]]
        pairs = np.vstack([pairs, capped])
    return PersistenceDiagram(pd.homology_dim, pairs, np.empty(0))


def diagram_of_cloud(
    cloud, max_scale: float | None = None, temporal_links: bool = False
) -> tuple[PersistenceDiagram, PersistenceDiagram]:
    """
    H0/H1 diagrams of the cloud's Rips filtration, by a direct engine.

    The result equals `compute_persistence(build_rips(cloud, max_scale,
    temporal_links))`, pair for pair and in the same order, so the two
    diagram CSVs are byte-identical; that reduction stays the reference,
    with the cloud diameter (or any positive scale at least the enclosing
    radius) standing in for an omitted `max_scale`.

    The filtration is cut at the enclosing radius, the smallest row
    maximum of the edge births, or at `max_scale` if smaller: from there
    on one vertex is joined to every other, the flag complex is a cone,
    and every pair born later has zero persistence, so every H0 merge and
    every H1 death stays visible. For m edges below the cut and n points a
    call holds an m·n-byte working column plus the columns its reduction
    keeps. `_h0_by_union_find` and `_h1_by_cohomology` describe the engine.

    >>> pd0, pd1 = diagram_of_cloud([[0, 0], [1, 0], [1, 1], [0, 1]])
    >>> pd1.pairs
    array([[1.        , 1.41421356]])
    >>> pd0.pairs.tolist()
    [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]
    """
    pts = _as_cloud(cloud)
    births = _edge_births(pts, temporal_links)
    cut = float(births.max(axis=1).min())  # the enclosing radius
    if max_scale is not None:
        _check_scale(max_scale)
        cut = min(max_scale, cut)
    i, j = np.nonzero(np.triu(births <= cut, 1))
    w = births[i, j]
    order = np.argsort(w, kind="stable")
    edges = (i[order], j[order], w[order])
    pd0, merges = _h0_by_union_find(len(pts), *edges)
    return pd0, _h1_by_cohomology(len(pts), *edges, merges)


def _h0_by_union_find(n: int, edges_i, edges_j, births):
    """
    H0 by union-find over edges in filtration order.

    Each component is rooted at its smallest vertex, and a merge kills the
    component with the larger root: the elder rule under the vertex order,
    which is what the reference reduction pairs. Pairs come out ordered by
    that dying vertex, essential classes by their root. Also returns the
    filtration ranks of the merging edges.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    killed_by: dict[int, int] = {}
    for e, (i, j) in enumerate(zip(edges_i.tolist(), edges_j.tolist())):
        if len(killed_by) == n - 1:
            break
        ri, rj = find(i), find(j)
        if ri != rj:
            ri, rj = min(ri, rj), max(ri, rj)
            parent[rj] = ri
            killed_by[rj] = e
    w = births.tolist()
    pairs = [(0.0, w[e]) for _, e in sorted(killed_by.items()) if w[e] > 0]
    essential = [0.0 for v in range(n) if parent[v] == v]
    pd = PersistenceDiagram(0, np.asarray(pairs, dtype=float), np.asarray(essential))
    return pd, list(killed_by.values())


def _h1_by_cohomology(n: int, edges_i, edges_j, births, merges) -> PersistenceDiagram:
    """
    H1 pairs of the flag complex on the given edges (sorted by birth, i, j).

    Persistent cohomology over Z/2 has the same pairs as homology (de
    Silva, Morozov & Vejdemo-Johansson, 2011). Coboundary columns are
    reduced in reverse filtration order, a column's pivot its earliest
    coface; the edges in `merges` kill H0 classes, so their columns are
    cleared, i.e. skipped.

    Triangles are never listed, only numbered. An edge's rank is its
    position in the given order. A triangle is numbered r * n + o, r the
    rank of its latest edge and o the vertex opposite it, so a column is a
    few vectorised operations on two rows of ranks, and its pivot is its
    smallest number. This refines the birth order, and over Z/2 the order
    within a birth moves no death: how many processed columns have a pivot
    born by b is the rank of their rows born by b. So the pairs are those
    of the reference's (birth, vertices) order.

    A candidate whose pivot t has the candidate itself as latest edge is an
    apparent pair (Bauer, Ripser, 2021, section 3): every face of t comes
    no later than that edge, so no column reduced before it reaches t, and
    the pair is final. One vectorised pass finds every pivot, and all
    apparent pairs are set at once; only the other candidates are reduced,
    and one of them that meets t finds its owner through t's latest edge.

    Ranks and endpoints are int32, triangle numbers int64. The working
    column is `work`: one bool per number, plus a sentinel at m * n, always
    set, that marks a zero column, plus 3 * n junk bools past it where a
    coboundary puts its missing triangles. An addition toggles numbers >=
    the pivot in one scatter, so one forward scan per column finds pivots.
    The working set is those m * n + 3 * n bytes, 4 * n * n bytes of ranks,
    about 40 bytes per edge for pivots, owners and deaths, and 8 bytes per
    number of each column kept (see `claimed` for which are).
    """
    m = births.size
    mn = m * n
    rank = np.full((n, n), m, dtype=np.int32)  # m marks a missing edge
    rank[edges_i, edges_j] = rank[edges_j, edges_i] = np.arange(m, dtype=np.int32)
    # Seen from edge (a, b), triangle {a, b, k} is first[late] + a + b + k,
    # late its latest edge's rank; a missing edge puts it past m * n.
    first = np.append(np.arange(m) * n - (edges_i + edges_j), mn)
    creators = np.ones(m, dtype=bool)
    creators[merges] = False
    cand = np.flatnonzero(creators).astype(np.int32)
    ci, cj = edges_i[cand].astype(np.int32), edges_j[cand].astype(np.int32)
    verts = np.arange(n)

    def column(q):
        """The coboundary of candidate q, unsorted, its smallest number the
        pivot; numbers past m * n stand for missing triangles."""
        a, b = ci.item(q), cj.item(q)
        late = np.maximum(rank[a], rank[b])
        np.maximum(late, cand.item(q), out=late)
        keys = first[late]
        keys += verts
        keys += a + b
        return keys

    # Pivots of all candidate columns, a bounded block of rows at a time;
    # pivots[cand.size] = -1 stands for a non-candidate and equals no number.
    pivots = np.full(cand.size + 1, -1, dtype=np.int64)
    step = max(1, (1 << 18) // n)
    for s in range(0, cand.size, step):
        t = slice(s, min(s + step, cand.size))
        late = np.maximum(rank[ci[t]], rank[cj[t]])
        np.maximum(late, cand[t, None], out=late)
        k = late.argmin(axis=1)  # late ties only at this edge's rank, where o = k
        low = first[late[np.arange(k.size), k]] + ci[t] + cj[t] + k
        pivots[t] = np.minimum(low, mn)  # m * n: no coface
    owner = np.full(m + 1, cand.size, dtype=np.int32)  # edge rank -> its candidate
    owner[cand] = np.arange(cand.size, dtype=np.int32)

    apparent = pivots[:-1] // n == cand
    deaths = np.full(cand.size, mn)  # pivot numbers; m * n if essential
    deaths[apparent] = pivots[:-1][apparent]
    # A claimed pivot maps to its candidate while the column is still the
    # plain coboundary, and to the column's numbers below m * n once they are
    # kept. An apparent pivot enters it when a reduction first meets it.
    # Masking a plain column to keep it costs about a third of rebuilding
    # it, and most plain columns are met once; so a column is kept when it
    # is met again, or at once after more than a quarter of those met so
    # far were met again, as in sparse linked clouds (a quarter, not a
    # third: the pivots met last have had little time to be met again).
    claimed: dict[int, object] = {}
    seen, again = set(), 0  # plain pivots met and not kept; how many were met again
    work = np.zeros(mn + 3 * n, dtype=bool)  # the working column, one parity per number
    work[mn] = True  # sentinel: a column whose pivot reaches it is zero
    loop = np.flatnonzero(~apparent & (pivots[:-1] < mn))[::-1]
    for q, low in zip(loop.tolist(), pivots[loop].tolist()):
        added = []  # the columns summed into `work`; each has distinct keys
        while True:
            other = claimed.get(low)
            if other is None:
                other = owner.item(low // n)
                if pivots.item(other) != low:
                    break
            if isinstance(other, int):
                other = column(other)
                if low in seen:
                    again += 1
                if low in seen or 4 * again > len(seen):
                    other = claimed[low] = other[other < mn]
                else:
                    seen.add(low)
            if not added:
                added.append(column(q))
                work[added[0]] = True
            work[other] ^= True
            added.append(other)
            low += int(work[low:].argmax())  # every key added was >= low
        if low == mn:
            continue
        deaths[q], claimed[low] = low, q
        if added:
            # Keep each added column's still-set keys, clearing them as they
            # are kept: faster than sorting the keys or scanning the range.
            work[mn + 1:] = False  # so that no junk number is kept
            kept = []
            for keys in added:
                kept.append(keys[work[keys]])
                work[kept[-1]] = False
            claimed[low] = np.concatenate(kept)
    del work  # return its m * n bytes before the output is built

    born = births[cand]
    dead = deaths < mn
    died = births[deaths[dead] // n]
    pairs = np.column_stack([born[dead], died])[died > born[dead]]
    return PersistenceDiagram(1, pairs, born[~dead])


def write_diagrams(path, diagrams) -> None:
    """Write diagrams as CSV with header dim,birth,death; essential bars get death=inf."""
    rows, dims = [np.empty((0, 2))], []
    for pd in diagrams:
        rows += [pd.pairs, np.column_stack([pd.essential, np.full(pd.essential.size, np.inf)])]
        dims += [[str(pd.homology_dim)]] * (pd.pairs.shape[0] + pd.essential.size)
    write_csv(path, np.concatenate(rows), ["dim", "birth", "death"], dims)


def read_diagrams(path) -> dict[int, PersistenceDiagram]:
    """Read a diagram CSV; returns one diagram per homology dimension present."""
    table = read_csv(path, "dim,birth,death", text=1, inf_column=2, empty_ok=True)
    dims = []
    for lineno, (token,) in zip(table.linenos, table.text):
        try:
            dims.append(int(token))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad dimension {token!r}") from None
    dims = np.asarray(dims, dtype=int)
    out = {}
    for dim in sorted(set(dims.tolist())):
        rows = table.values[dims == dim]
        essential = np.isinf(rows[:, 1])
        try:
            out[dim] = PersistenceDiagram(dim, rows[~essential], rows[essential, 0])
        except ValueError as exc:
            raise ParseError(f"{path}: invalid diagram for dim {dim}: {exc}") from exc
    return out


def read_diagram(path, dim: int) -> PersistenceDiagram:
    """Read one homology dimension from a diagram CSV (empty diagram if absent)."""
    diagrams = read_diagrams(path)
    if dim in diagrams:
        return diagrams[dim]
    return PersistenceDiagram(dim, np.empty((0, 2)), np.empty(0))
