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
from .errors import read_json, write_json

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
        if abs(inner(self.base.grid, self.values)) > TANGENCY_TOL:
            raise ValueError("values are not tangent to the base density")

    @property
    def norm(self) -> float:
        return grid_norm(self.values)

    def scaled(self, s: float) -> "TangentVector":
        return TangentVector(self.base, self.values * s)


def zero_tangent(psi: SqrtDensity) -> TangentVector:
    return TangentVector(psi, np.zeros_like(psi.grid))


def _same_base(psi: SqrtDensity, v: TangentVector) -> bool:
    return v.base is psi or np.array_equal(v.base.grid, psi.grid)


def exp_map(psi: SqrtDensity, v: TangentVector) -> SqrtDensity:
    """
    Follow the great circle from `psi` along `v` for arc length |v|.

    cos(|v|) psi + sin(|v|) v / |v|, renormalized to unit norm. Cells pushed
    negative are clamped to 0; the removed squared mass is reported on the
    result as `clamp_mass`. A zero vector returns `psi` unchanged.
    """
    if not _same_base(psi, v):
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
    out = out / grid_norm(out)
    return SqrtDensity(grid=out, clamp_mass=clamp_mass)


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


def _stack(densities) -> np.ndarray:
    """The (n, K, K) stack of the densities' grids, one shared resolution."""
    if not densities:
        raise ValueError("cannot average an empty set of densities")
    k = densities[0].grid_size
    if any(d.grid_size != k for d in densities):
        raise ValueError("densities have mixed grid resolutions")
    return np.array([d.grid for d in densities])


def _mean_of_stack(grids: np.ndarray) -> SqrtDensity:
    mean = grids.mean(axis=0)
    norm = grid_norm(mean)
    if norm == 0.0:
        raise ValueError("mean grid is zero; cannot project onto the sphere")
    return SqrtDensity(grid=mean / norm)


def extrinsic_mean(densities) -> SqrtDensity:
    """Cellwise average of the set, rescaled back onto the unit sphere."""
    return _mean_of_stack(_stack(list(densities)))


@dataclass
class PgaModel:
    """Mean density with orthonormal principal tangent directions.

    `variances` are nonincreasing and match `components` in length; every
    component is tangent to `mean` and the components are pairwise
    orthonormal under the discrete inner product.
    """

    mean: SqrtDensity
    components: list[TangentVector]
    variances: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __post_init__(self):
        self.variances = np.asarray(self.variances, dtype=float).reshape(-1)
        if len(self.components) != self.variances.size:
            raise ValueError("component and variance counts differ")
        if np.any(self.variances < 0):
            raise ValueError("variances must be nonnegative")
        if np.any(np.diff(self.variances) > 0):
            raise ValueError("variances must be nonincreasing")
        for a, comp in enumerate(self.components):
            if not _same_base(self.mean, comp):
                raise ValueError("component is not based at the model mean")
            for b in range(a, len(self.components)):
                got = inner(comp.values, self.components[b].values)
                want = 1.0 if a == b else 0.0
                if abs(got - want) > ORTHONORMAL_TOL:
                    raise ValueError(
                        f"components {a},{b} have inner product {got}, expected {want}"
                    )

    @property
    def n_components(self) -> int:
        return len(self.components)


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
    result comes from a full `np.linalg.eigh`. Returns (values, vectors):
    values nonincreasing, vectors as orthonormal columns, signs arbitrary.
    """
    a = np.asarray(matrix, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
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


def _canonical_sign(direction: np.ndarray) -> np.ndarray:
    # A component and its negation span the same geodesic; fix the sign so
    # that the first cell of largest magnitude is positive.
    return -direction if direction.flat[np.argmax(np.abs(direction))] < 0 else direction


def _complete_direction(mean: SqrtDensity, taken: np.ndarray) -> np.ndarray:
    # Deterministic unit tangent direction for degenerate (zero-variance)
    # modes: the first cell indicator at least 1e-6 (Euclidean) from the
    # span of the mean and the directions already taken (the flat rows of
    # `taken`), minus its projection on that span. One QR gives the span's
    # orthonormal basis.
    k = mean.grid_size
    span = np.linalg.qr(np.column_stack([mean.grid.ravel(), *taken]))[0]
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
    return (cand / grid_norm(cand)).reshape(k, k)


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
    (the mean comes from the same stack), and `_lift_rows`, the rule behind
    `log_map`, overwrites each row by its projection u_i off the mean and
    returns the scales a_i that make a_i u_i the lift of psi_i. So the
    lifts' Gram matrix is diag(a) (U U^T / K^2) diag(a), centered in O(n^2);
    the components are one product of centered eigenvector weights with U,
    and the coordinates one product of U with the components. U U^T is
    taken from the projections, not as psi psi^T - c c^T, whose difference
    loses about eight digits on a cluster of densities 1e-4 apart.

    Returns (model, coords): coords has shape (n, n_components) and holds
    what `project_coords` gives for each density, within rounding.
    """
    densities = list(densities)
    n = len(densities)
    if n < 2:
        raise ValueError("principal geodesic analysis needs at least 2 densities")
    grids = _stack(densities)
    mean = _mean_of_stack(grids)
    k = mean.grid_size
    cells = k * k
    # The tangent space at the mean has cells - 1 dimensions.
    if not 1 <= n_components <= min(n - 1, cells - 1):
        raise ValueError(
            f"n_components must be in [1, {min(n - 1, cells - 1)}], got {n_components}"
        )
    mu = mean.grid.ravel()
    tangents = grids.reshape(n, cells)
    scale = _lift_rows(mu, tangents)
    gram = tangents @ tangents.T
    gram /= cells
    if np.any(np.abs(scale * (tangents @ mu)) / cells > TANGENCY_TOL):
        raise ValueError("values are not tangent to the base density")
    gram *= np.multiply.outer(scale, scale)
    row_means = gram.mean(axis=1)
    gram += row_means.mean()
    gram -= np.add.outer(row_means, row_means)
    gram /= n
    eigvals, eigvecs = top_eigenpairs(gram, n_components)
    weights = (eigvecs - eigvecs.mean(axis=0)) * scale[:, None]

    components: list[TangentVector] = []
    directions = np.empty((n_components, cells))
    variances = []
    for a, (lam, combo) in enumerate(zip(eigvals.tolist(), weights.T @ tangents)):
        norm = grid_norm(combo)
        if lam > 0 and norm > 1e-12:
            direction = (combo / norm).reshape(k, k)
        else:
            lam = 0.0
            direction = _complete_direction(mean, directions[:a])
        direction = _canonical_sign(direction)
        directions[a] = direction.ravel()
        variances.append(lam)
        components.append(TangentVector(mean, direction))
    model = PgaModel(mean=mean, components=components, variances=np.asarray(variances))
    coords = tangents @ directions.T
    coords *= scale[:, None] / cells
    return model, coords


def pga(densities, n_components: int) -> PgaModel:
    """The model of `pga_features`, without the coordinates."""
    return pga_features(densities, n_components)[0]


def project_coords(model: PgaModel, psi: SqrtDensity) -> np.ndarray:
    """Coordinates of a density in the model: projections of its lift."""
    if psi.grid_size != model.mean.grid_size:
        raise ValueError("density resolution does not match the model")
    lift = log_map(model.mean, psi)
    return np.asarray(
        [inner(lift.values, comp.values) for comp in model.components], dtype=float
    )


def save_pga_model(model: PgaModel, directory, metadata: dict | None = None) -> None:
    """Write mean + components as grid CSVs plus a JSON manifest."""
    os.makedirs(directory, exist_ok=True)
    write_grid(os.path.join(directory, "mean.csv"), model.mean.grid)
    for idx, comp in enumerate(model.components):
        write_grid(os.path.join(directory, f"component_{idx:03d}.csv"), comp.values)
    manifest = {
        "grid_size": model.mean.grid_size,
        "n_components": model.n_components,
        "variances": [float(v) for v in model.variances],
    }
    if metadata:
        manifest.update(metadata)
    write_json(os.path.join(directory, "manifest.json"), manifest)


def load_pga_model(directory) -> tuple[PgaModel, dict]:
    """Load a model written by save_pga_model; returns (model, manifest)."""
    manifest = read_json(os.path.join(directory, "manifest.json"))
    mean = SqrtDensity(grid=read_grid(os.path.join(directory, "mean.csv")))
    components = [
        TangentVector(mean, read_grid(os.path.join(directory, f"component_{idx:03d}.csv")))
        for idx in range(int(manifest["n_components"]))
    ]
    model = PgaModel(
        mean=mean, components=components, variances=np.asarray(manifest["variances"])
    )
    return model, manifest
