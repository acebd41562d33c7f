"""Geometry of unit-norm square-root grids: metric, maps, means, and PGA.

All grids share the discrete inner product sum(a * b) / K^2, matching the
density module, so unit norm here means the same thing there. Distances are
arc lengths on the unit sphere of that inner product; nonnegative unit
grids keep them in [0, pi/2].
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .density import SqrtDensity, read_grid, write_grid
from .errors import read_json, whole_number, write_json

TANGENCY_TOL = 1e-8
ORTHONORMAL_TOL = 1e-8
CLAMP_DIAGNOSTIC = 1e-12
EIG_TOL = 1e-13
EIG_MAX_ITER = 64


def inner(a, b) -> float:
    """Discrete inner product sum(a * b) / K^2 of two K x K grids."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"grid shapes differ: {a.shape} vs {b.shape}")
    return float((a * b).sum()) / a.size


def grid_norm(values) -> float:
    """Norm induced by the discrete inner product."""
    v = np.asarray(values, dtype=float)
    return float(np.sqrt((v * v).sum() / v.size))


def distance(p1: SqrtDensity, p2: SqrtDensity) -> float:
    """Arc-length distance arccos of the inner product, in [0, pi/2]."""
    return float(np.arccos(min(1.0, max(-1.0, inner(p1.grid, p2.grid)))))


@dataclass
class TangentVector:
    """A K x K direction orthogonal to its base density."""

    base: SqrtDensity
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.base.grid.shape:
            raise ValueError(
                f"tangent shape {self.values.shape} does not match base "
                f"{self.base.grid.shape}"
            )
        if not np.isfinite(self.values).all():
            raise ValueError("tangent values contain non-finite entries")
        if abs(inner(self.base.grid, self.values)) > TANGENCY_TOL:
            raise ValueError("values are not tangent to the base density")

    @property
    def norm(self) -> float:
        return grid_norm(self.values)

    def scaled(self, s: float) -> "TangentVector":
        return TangentVector(self.base, self.values * s)


def exp_map(psi: SqrtDensity, v: TangentVector) -> SqrtDensity:
    """
    Follow the great circle from `psi` along `v` for arc length |v|.

    cos(|v|) psi + sin(|v|) v / |v|, renormalized to unit norm. Cells pushed
    negative are clamped to 0; the removed squared mass is reported on the
    result as `clamp_mass`. A zero vector returns `psi` unchanged; a step
    that leaves no positive cell raises ValueError.
    """
    if not (v.base is psi or np.array_equal(v.base.grid, psi.grid)):
        raise ValueError("tangent vector is based at a different density")
    length = v.norm
    if length == 0.0:
        return psi
    if length >= np.pi:
        raise ValueError(f"tangent norm {length} is outside the injectivity radius pi")
    out = np.cos(length) * psi.grid + np.sin(length) * (v.values / length)
    negative = out < 0
    clamp_mass = 0.0
    if negative.any():
        clamp_mass = float((out[negative] ** 2).sum()) / out.size
        out = np.where(negative, 0.0, out)
        if not out.any():
            raise ValueError("exp_map step leaves no positive cell after clamping")
    return SqrtDensity(grid=out / grid_norm(out), clamp_mass=clamp_mass)


def _lift_rows(mu: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """
    Lift flat unit rows psi_k to the tangent space at the flat unit grid mu.

    Overwrites each row by u_k = psi_k - c_k mu, c_k the clipped cosine,
    projected off mu once more, and returns a_k = arccos(c_k) / |u_k|, so
    a_k u_k is the log map of psi_k; a_k is 0 where the row equals mu or u_k
    is zero. The second projection matters when psi_k and mu differ only by
    rounding: the first leaves u_k as rounding noise lying mostly along mu.
    Rows go in blocks of about 2^20 cells, so no temporary is as large as the
    stack. Warns once if any cosine is at most CLAMP_DIAGNOSTIC (the
    injectivity boundary).
    """
    n, cells = rows.shape
    scales = np.zeros(n)
    orthogonal = False
    step = max(1, (1 << 20) // cells)
    for s in range(0, n, step):
        block = rows[s:s + step]
        at_mu = (block == mu).all(axis=1)
        cos = np.clip((block * mu).sum(axis=1) / cells, -1.0, 1.0)
        orthogonal |= bool((cos <= CLAMP_DIAGNOSTIC).any())
        block -= cos[:, None] * mu
        block -= ((block @ mu) / cells)[:, None] * mu
        norms = np.sqrt((block * block).sum(axis=1) / cells)
        live = ~at_mu & (norms > 0.0)
        scales[s:s + step][live] = np.arccos(cos[live]) / norms[live]
    if orthogonal:
        warnings.warn(
            "densities are orthogonal to the base density; their lifts are the "
            "projection boundary case",
            RuntimeWarning,
            stacklevel=3,
        )
    return scales


def log_map(psi_i: SqrtDensity, psi_j: SqrtDensity) -> TangentVector:
    """
    Tangent vector at `psi_i` whose exponential reaches `psi_j`.

    The one-row case of `_lift_rows`: psi_j minus its component along
    psi_i, rescaled to norm arccos of the inner product, so |log| equals the
    arc distance and exp_map(psi_i, log_map(psi_i, psi_j)) recovers psi_j.
    Identical inputs give the zero vector; orthogonal inputs sit on the
    injectivity boundary and are flagged with a warning. Raises ValueError
    for grids of different resolutions.
    """
    shape = psi_i.grid.shape
    if psi_j.grid.shape != shape:
        raise ValueError(f"grid shapes differ: {shape} vs {psi_j.grid.shape}")
    u = psi_j.grid.reshape(1, -1).copy()
    a = _lift_rows(psi_i.grid.ravel(), u)
    return TangentVector(psi_i, (u[0] * a[0]).reshape(shape))


def geodesic(p1: SqrtDensity, p2: SqrtDensity, s: float) -> SqrtDensity:
    """Point at fraction `s` in [0, 1] along the arc from p1 to p2."""
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"geodesic parameter must be in [0, 1], got {s}")
    return exp_map(p1, log_map(p1, p2).scaled(s))


def extrinsic_mean(densities) -> SqrtDensity:
    """Cellwise average of the set, rescaled back onto the unit sphere.

    The grids are added in order, as the mean of their stack adds them, so
    the stack is never built. An empty set, mixed resolutions or a zero
    average raise ValueError. `pga_features` takes its mean from here.
    """
    densities = list(densities)
    if not densities:
        raise ValueError("cannot average an empty set of densities")
    if len({d.grid_size for d in densities}) > 1:
        raise ValueError("densities have mixed grid resolutions")
    total = densities[0].grid.copy()
    for d in densities[1:]:
        total += d.grid
    total /= len(densities)
    norm = grid_norm(total)
    if norm == 0.0:
        raise ValueError("mean grid is zero; cannot project onto the sphere")
    return SqrtDensity(grid=total / norm)


@dataclass
class PgaModel:
    """Mean density with orthonormal principal tangent directions.

    `components` is one (d, K, K) array (a list of K x K grids is stacked),
    `variances` d nonincreasing, nonnegative numbers. The components are
    finite, tangent to `mean`, and orthonormal under the discrete inner
    product: their d x d Gram matrix is the identity within ORTHONORMAL_TOL.
    """

    mean: SqrtDensity
    components: np.ndarray
    variances: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        self.components = np.asarray(self.components, dtype=float).reshape(-1, *self.mean.grid.shape)
        self.variances = np.asarray(self.variances, dtype=float).reshape(-1)
        if len(self.components) != self.variances.size:
            raise ValueError("component and variance counts differ")
        if not np.all(self.variances >= 0):
            raise ValueError("variances must be nonnegative")
        if np.any(np.diff(self.variances) > 0):
            raise ValueError("variances must be nonincreasing")
        rows = self.components.reshape(len(self.components), self.mean.grid.size)
        if not np.isfinite(rows).all():
            raise ValueError("components contain non-finite entries")
        if np.any(np.abs(rows @ self.mean.grid.ravel()) / rows.shape[1] > TANGENCY_TOL):
            raise ValueError("components are not tangent to the model mean")
        gram = rows @ rows.T / rows.shape[1]
        bad = np.argwhere(np.abs(gram - np.eye(len(rows))) > ORTHONORMAL_TOL)
        if bad.size:
            a, b = bad[0]
            raise ValueError(f"components {a},{b} have inner product {gram[a, b]}, "
                             f"expected {float(a == b)}")

    @property
    def n_components(self) -> int:
        return self.components.shape[0]


def top_eigenpairs(matrix, k: int):
    """
    The k largest eigenpairs of a symmetric positive semidefinite matrix.

    Block subspace iteration with a Rayleigh-Ritz step: a block of
    min(n, 2k + 8) orthonormal columns, started from a fixed seed (no global
    random state is read or changed), is multiplied by the matrix; the
    matrix compressed to the block is diagonalized by `np.linalg.eigh`, and
    the block is replaced by the orthonormalized images of its Ritz vectors.
    It stops once every kept pair has residual |A x - lam x| <= EIG_TOL
    times the largest Ritz value in magnitude. A block as wide as the matrix
    is exact after one step. If EIG_MAX_ITER steps do not get there, the
    result comes from a full `np.linalg.eigh`. k is a whole number (2.0
    counts as 2). Returns (values, vectors): values nonincreasing, vectors
    as orthonormal columns, signs arbitrary.
    """
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    k = whole_number("k", k)
    start = np.random.default_rng(0).standard_normal((n, min(n, 2 * k + 8)))
    basis = np.linalg.qr(start)[0]
    for _ in range(EIG_MAX_ITER):
        image = a @ basis
        small = basis.T @ image
        values, rotation = np.linalg.eigh((small + small.T) / 2)
        values, rotation = values[::-1], rotation[:, ::-1]
        image = image @ rotation
        vectors = basis @ rotation
        residual = np.linalg.norm(image[:, :k] - vectors[:, :k] * values[:k], axis=0)
        if residual.max() <= EIG_TOL * np.abs(values).max():
            return values[:k], vectors[:, :k]
        basis = np.linalg.qr(image)[0]
    values, vectors = np.linalg.eigh(a)
    return values[::-1][:k], vectors[:, ::-1][:, :k]


def _complete_direction(mu: np.ndarray, taken: np.ndarray) -> np.ndarray:
    # Deterministic flat unit tangent direction for degenerate (zero-variance)
    # modes: the first cell indicator at least 1e-6 (Euclidean) from the span
    # of the flat mean `mu` and the rows of `taken`, minus its projection on
    # that span. One QR gives the span's orthonormal basis.
    span = np.linalg.qr(np.column_stack([mu, *taken]))[0]
    # Squared Euclidean distance of every cell indicator from the span. As
    # 1 - |row|^2 it carries rounding of about 1e-16, so a cell already in
    # the span can read a few 1e-16; the threshold sits far above that.
    # At most K^2 - 1 span columns leave gaps summing to >= 1, so one is >= 1/K^2.
    gaps = 1.0 - np.einsum("ij,ij->i", span, span)
    far = np.flatnonzero(gaps > 1e-12)
    cand = -(span @ span[far[0]])
    cand[far[0]] += 1.0
    # Project once more: the first subtraction leaves rounding in the span.
    cand -= span @ (span.T @ cand)
    return cand / grid_norm(cand)


def _coords(components: np.ndarray, rows: np.ndarray, scale: np.ndarray) -> np.ndarray:
    # The one projection: coordinates a_i <u_i, c_j> of `_lift_rows`' output.
    coords = rows @ components.reshape(len(components), rows.shape[1]).T
    coords *= scale[:, None] / rows.shape[1]
    return coords


def pga_features(densities, n_components: int) -> tuple[PgaModel, np.ndarray]:
    """
    Principal geodesic analysis of a set of sqrt-densities, with coordinates.

    Lifts every density to the tangent space at the extrinsic mean and runs
    PCA there: the top `n_components` eigenpairs of the centered lifts'
    sample covariance Gram matrix (under the discrete inner product) come
    from `top_eigenpairs`, giving orthonormal tangent components with
    nonincreasing variances. Directions beyond the data rank get variance 0
    and a deterministic orthonormal completion. Each component's sign is
    fixed so that its first cell of largest magnitude is positive, so the
    output does not depend on the eigensolver's signs.

    The lifts are never formed. The grids are stacked once as rows psi_i
    after `extrinsic_mean` gives the mean, and `_lift_rows`, the rule behind
    `log_map`, overwrites each row by its projection u_i off the mean and
    returns the scales a_i that make a_i u_i the lift of psi_i. So the
    lifts' Gram matrix is diag(a) (U U^T / K^2) diag(a), centered in O(n^2);
    the components, written straight into the model's (d, K, K) array, are
    one product of centered eigenvector weights with U, and the coordinates
    one product of U with the components. U U^T is taken from the
    projections, not as psi psi^T - c c^T, whose difference loses about
    eight digits on a cluster of densities 1e-4 apart.

    Returns (model, coords): coords has shape (n, n_components), and
    `project_coords` is the one-row case of their product.
    """
    densities = list(densities)
    n = len(densities)
    if n < 2:
        raise ValueError("principal geodesic analysis needs at least 2 densities")
    mean = extrinsic_mean(densities)
    cells = mean.grid.size
    # The tangent space at the mean has cells - 1 dimensions.
    top = min(n - 1, cells - 1)
    if not 1 <= n_components <= top:
        raise ValueError(f"n_components must be in [1, {top}], got {n_components}")
    n_components = whole_number("n_components", n_components)
    mu = mean.grid.ravel()
    tangents = np.array([d.grid for d in densities]).reshape(n, cells)
    scale = _lift_rows(mu, tangents)
    gram = tangents @ tangents.T
    gram /= cells
    if np.any(np.abs(scale * (tangents @ mu)) / cells > TANGENCY_TOL):
        raise ValueError("values are not tangent to the base density")
    # Scale, then centre, in row blocks of about 2^20 entries, so that no
    # temporary is n x n.
    step = max(1, (1 << 20) // n)
    row_means = np.empty(n)
    for s in range(0, n, step):
        block = gram[s:s + step]
        block *= scale[s:s + step, None] * scale
        row_means[s:s + step] = block.mean(axis=1)
    grand_mean = row_means.mean()
    for s in range(0, n, step):
        block = gram[s:s + step]
        block += grand_mean
        block -= row_means[s:s + step, None] + row_means
        block /= n
    eigvals, eigvecs = top_eigenpairs(gram, n_components)
    weights = (eigvecs - eigvecs.mean(axis=0)) * scale[:, None]

    components = np.empty((n_components, *mean.grid.shape))
    directions = components.reshape(n_components, cells)
    variances = np.empty(n_components)
    for a, (lam, combo) in enumerate(zip(eigvals.tolist(), weights.T @ tangents)):
        norm = grid_norm(combo)
        if lam > 0 and norm > 1e-12:
            direction = combo / norm
        else:
            lam = 0.0
            direction = _complete_direction(mu, directions[:a])
        # A component and its negation span the same geodesic; fix the sign
        # so that the first cell of largest magnitude is positive.
        directions[a] = -direction if direction[np.argmax(np.abs(direction))] < 0 else direction
        variances[a] = lam
    model = PgaModel(mean=mean, components=components, variances=variances)
    return model, _coords(components, tangents, scale)


def pga(densities, n_components: int) -> PgaModel:
    """The model of `pga_features`, without the coordinates."""
    return pga_features(densities, n_components)[0]


def project_coords(model: PgaModel, psi: SqrtDensity) -> np.ndarray:
    """
    Coordinates of a density in the model: projections of its lift.

    The one-row case of `pga_features`' product: `psi` is lifted through
    `_lift_rows`, as `log_map` lifts it, and projected on the components.

    >>> from persphere import PersistenceDiagram, kde, sqrt_transform
    >>> psis = [sqrt_transform(kde(PersistenceDiagram(1, [[b, 0.8]]), 0.1, 8))
    ...         for b in (0.1, 0.3, 0.5)]
    >>> model, coords = pga_features(psis, 2)
    >>> bool(np.abs(project_coords(model, psis[0]) - coords[0]).max() <= 1e-14)
    True
    """
    if psi.grid_size != model.mean.grid_size:
        raise ValueError("density resolution does not match the model")
    row = psi.grid.reshape(1, -1).copy()
    scale = _lift_rows(model.mean.grid.ravel(), row)
    return _coords(model.components, row, scale)[0]


def save_pga_model(model: PgaModel, directory, metadata: dict | None = None) -> None:
    """Write mean + components as grid CSVs plus a JSON manifest."""
    os.makedirs(directory, exist_ok=True)
    write_grid(os.path.join(directory, "mean.csv"), model.mean.grid)
    for idx, comp in enumerate(model.components):
        write_grid(os.path.join(directory, f"component_{idx:03d}.csv"), comp)
    manifest = {"grid_size": model.mean.grid_size, "n_components": model.n_components,
                "variances": model.variances.tolist(), **(metadata or {})}
    write_json(os.path.join(directory, "manifest.json"), manifest)


def load_pga_model(directory) -> tuple[PgaModel, dict]:
    """Load a model written by save_pga_model; returns (model, manifest)."""
    manifest = read_json(os.path.join(directory, "manifest.json"))
    mean = SqrtDensity(grid=read_grid(os.path.join(directory, "mean.csv")))
    components = [read_grid(os.path.join(directory, f"component_{idx:03d}.csv"))
                  for idx in range(int(manifest["n_components"]))]
    return PgaModel(mean, components, manifest["variances"]), manifest
