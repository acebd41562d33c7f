"""Gaussian density grids for unit-square diagrams and their square-root form.

A diagram normalized to [0,1]^2 becomes a K x K probability grid via kernel
density estimation at cell centers; its cellwise square root, rescaled to
unit discrete norm, lives on the unit sphere of grids under the inner
product sum(a*b)/K^2.

Grid convention: `grid[i, j]` is the value at (birth, death) =
((j + 0.5) / K, (i + 0.5) / K), so rows follow the death axis and a CSV or
PGM written row-major has death increasing downward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import read_csv, write_csv
from .persistence import PersistenceDiagram

NORM_TOL = 1e-9


class EmptyDiagramError(ValueError):
    """Raised when a density is requested for a diagram with no points."""


def _check_grid(grid) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"grid must be square, got shape {g.shape}")
    if g.shape[0] < 2:
        raise ValueError("grid resolution must be at least 2")
    if not np.isfinite(g).all():
        raise ValueError("grid contains non-finite values")
    if g.min() < 0:
        raise ValueError("grid contains negative values")
    return g


def _check_sigma(sigma) -> None:
    if not 0 < sigma < np.inf:
        raise ValueError(f"sigma must be positive and finite, got {sigma}")


@dataclass
class PersistencePdf:
    """K x K probability grid over the unit square; cells sum to 1."""

    grid: np.ndarray
    sigma: float | None = None

    def __post_init__(self):
        self.grid = _check_grid(self.grid)
        if self.sigma is not None:
            _check_sigma(self.sigma)
        total = float(self.grid.sum())
        if abs(total - 1.0) > NORM_TOL:
            raise ValueError(f"grid cells sum to {total}, expected 1")

    @property
    def grid_size(self) -> int:
        return self.grid.shape[0]


@dataclass
class SqrtDensity:
    """Nonnegative K x K grid with unit discrete norm sum(g^2)/K^2 = 1.

    `clamp_mass` records squared-amplitude mass removed by nonnegativity
    clamping in the operation that produced this density (0 when exact).
    """

    grid: np.ndarray
    clamp_mass: float = 0.0

    def __post_init__(self):
        self.grid = _check_grid(self.grid)
        k = self.grid.shape[0]
        norm_sq = float((self.grid * self.grid).sum()) / (k * k)
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"discrete norm^2 is {norm_sq}, expected 1")

    @property
    def grid_size(self) -> int:
        return self.grid.shape[0]


def cell_centers(grid_size: int) -> np.ndarray:
    """Coordinates (i + 0.5) / K of the cell centers along one axis."""
    return (np.arange(grid_size) + 0.5) / grid_size


def kde(pd: PersistenceDiagram, sigma: float, grid_size: int = 64) -> PersistencePdf:
    """
    Kernel density estimate of a normalized diagram on a K x K grid.

    An equal-weight mixture of isotropic Gaussians (std `sigma`) centered
    at the diagram points is evaluated at the cell centers and rescaled so
    the cells sum to 1. The kernel factors: the grid is the product of a
    K x n death-factor matrix with the transposed birth-factor matrix, and
    both are built in place in one (2, K, n) array.

    Parameters
    ----------
    pd : PersistenceDiagram
        Normalized diagram: at least one pair, all coordinates in [0, 1],
        no uncapped essential bars.
    sigma : float
        Kernel standard deviation, positive and finite.
    grid_size : int
        Grid resolution K, an integer >= 2.
    """
    _check_sigma(sigma)
    if grid_size < 2:
        raise ValueError(f"grid resolution must be >= 2, got {grid_size}")
    if not float(grid_size).is_integer():
        raise ValueError(f"grid resolution must be an integer, got {grid_size}")
    if pd.essential.size:
        raise ValueError("diagram has uncapped essential bars; normalize it first")
    pts = pd.pairs
    if pts.shape[0] == 0:
        raise EmptyDiagramError("cannot estimate a density for an empty diagram")
    if pts.min() < 0 or pts.max() > 1:
        raise ValueError("diagram coordinates must lie in [0, 1]; normalize first")

    # Canonical point order makes the floating-point result independent of
    # the input ordering (matmul accumulation is not exactly commutative).
    pts = pd.sorted_pairs()
    # g[0][i, p] = exp(-((c_i - birth_p) / sigma)^2 / 2), g[1] the same for
    # deaths: both axes in one array, built in place from contiguous rows.
    g = np.subtract(cell_centers(grid_size)[:, None], np.ascontiguousarray(pts.T)[:, None, :])
    g /= sigma
    np.square(g, out=g)
    g *= -0.5
    np.exp(g, out=g)
    grid = g[1] @ g[0].T
    total = grid.sum()
    if total <= 0:
        raise ValueError(
            f"sigma={sigma} is too small for a {grid_size}x{grid_size} grid; "
            "all kernel mass fell between cell centers"
        )
    grid /= total
    return PersistencePdf(grid=grid, sigma=sigma)


def _root_rows(pdfs, cells: int) -> np.ndarray:
    # Row i is the root of pdfs[i].grid over its discrete norm; unchecked.
    rows = np.empty((len(pdfs), cells))
    for row, pdf in zip(rows, pdfs):
        np.sqrt(pdf.grid.ravel(), out=row)
        row /= np.sqrt(float((row * row).sum()) / cells)
    return rows


def sqrt_stack(pdfs) -> np.ndarray:
    """Square-root forms of pdfs of one resolution K, as an (n, K, K) array.

    Row i is the cellwise root of `pdfs[i].grid` over its discrete norm
    sqrt(sum(row^2) / K^2); the grids are not modified. Raises ValueError
    for mixed resolutions or a row whose norm^2 is off 1 by over NORM_TOL.
    """
    k = pdfs[0].grid_size if pdfs else 0
    if any(p.grid_size != k for p in pdfs):
        raise ValueError("pdfs have mixed grid resolutions")
    cells = k * k
    rows = _root_rows(pdfs, cells)
    norm_sq = np.einsum("ij,ij->i", rows, rows) / cells
    if not (np.abs(norm_sq - 1.0) <= NORM_TOL).all():
        raise ValueError("a square-root density does not have unit discrete norm")
    return rows.reshape(len(pdfs), k, k)


def sqrt_transform(pdf: PersistencePdf) -> SqrtDensity:
    """The `sqrt_stack` row of one pdf; only `SqrtDensity` checks its unit norm."""
    return SqrtDensity(grid=_root_rows([pdf], pdf.grid.size).reshape(pdf.grid.shape))


def to_pdf(psi: SqrtDensity) -> PersistencePdf:
    """Square a sqrt-density back into a probability grid."""
    grid = psi.grid * psi.grid
    return PersistencePdf(grid=grid / grid.sum())


def local_maxima(grid, min_ratio: float = 0.1) -> list[tuple[int, int]]:
    """
    Cells strictly greater than their 8 neighbors and at least
    `min_ratio` of the global maximum. Used for mode counting.
    """
    g = np.asarray(grid, dtype=float)
    if g.ndim != 2:
        raise ValueError("grid must be 2-D")
    top = g.max()
    if top <= 0:
        return []
    padded = np.full((g.shape[0] + 2, g.shape[1] + 2), -np.inf)
    padded[1:-1, 1:-1] = g
    peak = np.ones_like(g, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            neighbor = padded[1 + di : padded.shape[0] - 1 + di,
                              1 + dj : padded.shape[1] - 1 + dj]
            peak &= g > neighbor
    peak &= g >= min_ratio * top
    return [(int(i), int(j)) for i, j in zip(*np.nonzero(peak))]


def write_grid(path, grid) -> None:
    """Write a 2-D grid as CSV, row-major, full float precision."""
    write_csv(path, grid)


def read_grid(path) -> np.ndarray:
    """Read a CSV grid written by write_grid."""
    return read_csv(path).values


def write_pgm(path, grid) -> None:
    """Write a grid as binary 8-bit PGM, scaled so the max cell is 255."""
    g = np.asarray(grid, dtype=float)
    if g.ndim != 2:
        raise ValueError("grid must be 2-D")
    top = g.max()
    if not np.isfinite(top) or top <= 0 or np.any(g < 0):
        raise ValueError("heatmap needs a nonnegative grid with a positive maximum")
    pixels = np.rint(255.0 * g / top).astype(np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(pixels.tobytes())
