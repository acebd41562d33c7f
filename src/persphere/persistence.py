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

# Rank entries per block of the H1 pivot pass. Candidates that fit one
# block have their coboundary columns built once, as rows of one table.
_PIVOT_BLOCK = 1 << 18
# Bools a reduction may scan, per added column, to keep a reduced column:
# keeping from the added columns costs a few numpy calls each, about the
# time of a scan this long.
_KEEP_SCAN = 1 << 12


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
        self.homology_dim = int(self.homology_dim)  # so 1.0 or True is written as 1
        # Array methods, not the np.all/np.any wrappers: every diagram built
        # pays these checks, and the wrappers cost more than the arithmetic.
        if not np.isfinite(self.pairs).all():
            raise ValueError("diagram pairs must be finite")
        if not np.isfinite(self.essential).all():
            raise ValueError("essential births must be finite")
        if (self.pairs.size and self.pairs.min() < 0) or (
                self.essential.size and self.essential.min() < 0):
            raise ValueError("birth/death values must be nonnegative")
        if self.pairs.size and not (self.pairs[:, 1] > self.pairs[:, 0]).all():
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
    if not np.isfinite(pts).all():
        raise ValueError("point cloud contains non-finite coordinates")
    return pts


def _distance_matrix(pts: np.ndarray) -> np.ndarray:
    """
    Pairwise Euclidean distances, in row blocks of about 2^20 differences.

    The floats are those of `np.sqrt(((p[:, None] - p[None]) ** 2).sum(-1))`.
    numpy sums fewer than 8 terms in order, so a cloud with fewer than 8
    coordinates adds its squared differences one coordinate at a time,
    which is several times faster than reducing over a short last axis.
    From 8 terms on numpy sums pairwise, and only that reduction gives its
    bytes, so wider clouds keep it.
    """
    n, m = pts.shape
    dist = np.empty((n, n))
    step = max(1, (1 << 20) // (n * m))
    for s in range(0, n, step):
        rows, block = pts[s:s + step], dist[s:s + step]
        if m < 8:
            np.subtract(rows[:, None, 0], pts[:, 0], out=block)
            block *= block
            diff = np.empty_like(block)
            for c in range(1, m):
                np.subtract(rows[:, None, c], pts[:, c], out=diff)
                diff *= diff
                block += diff
            np.sqrt(block, out=block)
        else:
            diff = rows[:, None, :] - pts[None, :, :]
            np.sqrt((diff * diff).sum(axis=-1), out=block)
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
    finite pairs (birth / scale, 1.0). Pairs left with zero persistence are
    dropped: capped bars born at `scale`, and pairs so short that dividing
    rounds birth and death to one float.
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
        pairs = np.vstack([pairs, capped])
    return PersistenceDiagram(pd.homology_dim, pairs[pairs[:, 1] > pairs[:, 0]], np.empty(0))


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
    keeps, and, when its c candidate columns fit one pivot block (c·n <=
    2^18), all of them as c·n int64 numbers, at most 2 MB; otherwise it
    builds each column its reduction meets, once. `_h0_by_union_find` and
    `_h1_by_cohomology` describe the engine.

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
    i, j = np.nonzero(births <= cut)
    upper = i < j  # the pairs np.triu would keep, in the same order
    i, j = i[upper], j[upper]
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
    killed_by: dict[int, int] = {}
    for e, (i, j) in enumerate(zip(edges_i.tolist(), edges_j.tolist())):
        while parent[i] != i:  # find with path halving, inlined: a call costs more
            parent[i] = i = parent[parent[i]]
        while parent[j] != j:
            parent[j] = j = parent[parent[j]]
        if i != j:
            i, j = min(i, j), max(i, j)
            parent[j] = i
            killed_by[j] = e
            if len(killed_by) == n - 1:
                break
    merges = list(killed_by.values())
    w = births.take([killed_by[v] for v in sorted(killed_by)])
    pairs = np.zeros((w.size, 2))
    pairs[:, 1] = w
    return PersistenceDiagram(0, pairs[w > 0], np.zeros(n - len(merges))), merges


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
    When every candidate fits one block of the pass (candidates * n <=
    `_PIVOT_BLOCK`), the pass builds every candidate's whole coboundary,
    one row each, and the reduction reads columns from those rows; larger
    clouds build a column when the reduction first needs it. Either way a
    plain column is stored the first time a reduction meets it (see
    `claimed`).

    Ranks and endpoints are int32, triangle numbers int64: as scatter
    indices into `work`, int32 numbers would be converted on every
    addition. Rows of `rank` and entries of `first` are gathered with
    `take`, which is faster than fancy indexing. The working column is `work`:
    one bool per number, plus a sentinel at m * n, always set, that marks a
    zero column, plus 3 * n junk bools past it where a table row puts its
    missing triangles. An addition toggles numbers >= the pivot in one
    scatter, so one forward scan per column finds pivots. A scan that finds
    the pivot still set means the added column lacked it, a fault in
    building columns, and raises RuntimeError rather than adding forever.
    A reduced column is kept as the numbers set in `work`, all >= its
    pivot: one scan of [pivot, m * n) finds them when that range is under
    `_KEEP_SCAN` bools per column added, which holds for most columns of
    a small cloud; otherwise they are the still-set keys of the added
    columns, which costs a few numpy calls per column instead of a scan
    that could span m * n bytes.
    The working set is those m * n + 3 * n bytes, 4 * n * n bytes of ranks,
    about 40 bytes per edge for pivots, owners and deaths, 8 bytes per
    number of each reduced column kept and of each built column met, and,
    if the candidates fit one block, their 8 * candidates * n bytes of
    rows, at most 2 MB.
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
    # Pivots of all candidate columns; pivots[cand.size] = -1 stands for a
    # non-candidate and equals no number. A coboundary's pivot is its
    # smallest number, m * n if it has no coface.
    pivots = np.full(cand.size + 1, -1, dtype=np.int64)
    if cand.size * n <= _PIVOT_BLOCK:
        # One block: build every candidate's coboundary once, a row each.
        late = np.maximum(rank.take(ci, axis=0), rank.take(cj, axis=0))
        np.maximum(late, cand[:, None], out=late)
        table = first.take(late)
        table += verts
        table += (ci + cj)[:, None]
        pivots[:-1] = np.minimum(table.min(axis=1), mn)

        def column(q):
            return table[q]
    else:
        def column(q):
            """The coboundary of candidate q, unsorted, its smallest number
            the pivot, without the numbers past m * n of missing triangles."""
            a, b = ci.item(q), cj.item(q)
            late = np.maximum(rank[a], rank[b])
            np.maximum(late, cand.item(q), out=late)
            keys = first.take(late)
            keys += verts
            keys += a + b
            return keys[keys < mn]

        step = max(1, _PIVOT_BLOCK // n)
        for s in range(0, cand.size, step):
            t = slice(s, min(s + step, cand.size))
            late = np.maximum(rank.take(ci[t], axis=0), rank.take(cj[t], axis=0))
            np.maximum(late, cand[t, None], out=late)
            k = late.argmin(axis=1)  # late ties only at this edge's rank, where o = k
            low = first.take(late[np.arange(k.size), k]) + ci[t] + cj[t] + k
            pivots[t] = np.minimum(low, mn)

    owner = np.full(m + 1, cand.size, dtype=np.int32)  # edge rank -> its candidate
    owner[cand] = np.arange(cand.size, dtype=np.int32)

    apparent = pivots[:-1] // n == cand
    deaths = np.full(cand.size, mn)  # pivot numbers; m * n if essential
    deaths[apparent] = pivots[:-1][apparent]
    # A claimed pivot maps to its candidate until a reduction meets its
    # plain coboundary, and then to that column, as it maps to a reduced
    # column's kept numbers; an apparent pivot is found through its latest
    # edge until it is met. A table row also holds numbers past m * n; they
    # toggle only junk bools, which the keep step clears before it reads
    # added columns.
    claimed: dict[int, object] = {}
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
                other = claimed[low] = column(other)
            if not added:
                added.append(column(q))
                work[added[0]] = True
            work[other] ^= True
            added.append(other)
            gap = int(work[low:].argmax())  # every key added was >= low
            if not gap:
                raise RuntimeError(
                    f"H1 reduction: edge {cand.item(q)}'s column kept pivot {low} after an addition")
            low += gap
        if low == mn:
            continue
        deaths[q], claimed[low] = low, q
        if not added:
            continue
        # Keep the reduced column and clear its numbers. No number below `low`
        # is set and junk lies past the sentinel, so a short range is scanned;
        # otherwise keys are cleared as they are kept, so that a key in
        # several added columns is kept once.
        if mn - low < _KEEP_SCAN * len(added):
            kept = np.flatnonzero(work[low:mn])
            kept += low
            work[kept] = False
        else:
            work[mn + 1:] = False  # so that no junk number is kept
            kept = []
            for keys in added:
                kept.append(keys[work[keys]])
                work[kept[-1]] = False
            kept = np.concatenate(kept)
        claimed[low] = kept
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
