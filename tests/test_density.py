import numpy as np
import pytest

from persphere.density import (
    EmptyDiagramError,
    PersistencePdf,
    SqrtDensity,
    cell_centers,
    kde,
    read_grid,
    sqrt_transform,
    to_pdf,
    write_grid,
    write_pgm,
)
from persphere.errors import ParseError
from persphere.persistence import PersistenceDiagram


def _pd(points):
    return PersistenceDiagram(1, np.asarray(points, dtype=float))


def _dense_reference(points, sigma, k):
    # Independent oracle: plain double loop over cells evaluating the
    # Gaussian mixture at each center, then normalizing.
    centers = cell_centers(k)
    grid = np.zeros((k, k))
    for i in range(k):
        for j in range(k):
            x, y = centers[j], centers[i]
            total = 0.0
            for b, d in points:
                total += np.exp(-((x - b) ** 2 + (y - d) ** 2) / (2 * sigma**2))
            grid[i, j] = total
    return grid / grid.sum()


def test_single_point_peak_and_symmetry():
    # A kernel centered exactly on a cell center peaks in that cell and is
    # reflection symmetric about it, cell for cell.
    i0, j0 = 44, 19
    point = ((j0 + 0.5) / 64, (i0 + 0.5) / 64)
    pdf = kde(_pd([point]), sigma=0.05, grid_size=64)
    g = pdf.grid
    assert g.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.unravel_index(g.argmax(), g.shape) == (i0, j0)
    for k in range(1, 15):
        assert g[i0 + k, j0] == g[i0 - k, j0]
        assert g[i0, j0 + k] == g[i0, j0 - k]
        assert g[i0 + k, j0 + k] == g[i0 - k, j0 - k] == g[i0 + k, j0 - k]


def test_kde_matches_dense_reference():
    points = [[0.2, 0.5], [0.5, 0.8]]
    pdf = kde(_pd(points), sigma=0.05, grid_size=32)
    ref = _dense_reference(points, 0.05, 32)
    assert np.abs(pdf.grid - ref).max() < 1e-12


def test_kde_two_modes_equal_height_and_order_invariance():
    # Cell-center-aligned points so both kernels see the same sub-cell
    # offsets and the modes come out at exactly equal heights.
    p1 = ((12 + 0.5) / 64, (31 + 0.5) / 64)
    p2 = ((31 + 0.5) / 64, (50 + 0.5) / 64)
    a = kde(_pd([p1, p2]), sigma=0.05, grid_size=64)
    b = kde(_pd([p2, p1]), sigma=0.05, grid_size=64)
    assert np.array_equal(a.grid, b.grid)
    g = a.grid
    assert g[31, 12] == pytest.approx(g[50, 31], rel=1e-12)


def test_kde_deterministic():
    pd = _pd([[0.3, 0.7], [0.1, 0.2]])
    a = kde(pd, 0.07, 48)
    b = kde(pd, 0.07, 48)
    assert np.array_equal(a.grid, b.grid)


def test_kde_adding_a_point_changes_grid():
    base = kde(_pd([[0.3, 0.7]]), 0.05, 64)
    more = kde(_pd([[0.3, 0.7], [0.7, 0.9]]), 0.05, 64)
    assert not np.allclose(base.grid, more.grid)


def test_kde_errors():
    with pytest.raises(EmptyDiagramError):
        kde(PersistenceDiagram(1, np.empty((0, 2))), 0.05, 64)
    with pytest.raises(ValueError):
        kde(_pd([[0.3, 0.7]]), sigma=0.0, grid_size=64)
    with pytest.raises(ValueError):
        kde(_pd([[0.3, 0.7]]), sigma=0.05, grid_size=1)
    with pytest.raises(ValueError, match="too small"):
        kde(_pd([[0.3, 0.7]]), sigma=1e-4, grid_size=8)
    with pytest.raises(ValueError, match="normalize"):
        kde(_pd([[0.3, 1.7]]), sigma=0.05, grid_size=64)
    with pytest.raises(ValueError, match="essential"):
        kde(PersistenceDiagram(1, np.array([[0.1, 0.4]]), np.array([0.2])), 0.05, 64)


def test_sqrt_transform_uniform():
    uniform = PersistencePdf(grid=np.full((16, 16), 1.0 / 256))
    psi = sqrt_transform(uniform)
    assert np.allclose(psi.grid, 1.0)
    assert ((psi.grid**2).sum() / 256) == pytest.approx(1.0, abs=1e-12)


def test_sqrt_transform_roundtrip():
    pdf = kde(_pd([[0.3, 0.7], [0.2, 0.9]]), 0.05, 64)
    psi = sqrt_transform(pdf)
    back = to_pdf(psi)
    assert np.abs(back.grid - pdf.grid).max() < 1e-9


def test_sqrt_flattens_peak():
    pdf = kde(_pd([[0.3, 0.7]]), 0.05, 64)
    psi = sqrt_transform(pdf)
    assert np.unravel_index(psi.grid.argmax(), psi.grid.shape) == np.unravel_index(
        pdf.grid.argmax(), pdf.grid.shape
    )
    # square root compresses dynamic range
    assert psi.grid.max() / psi.grid.mean() < pdf.grid.max() / pdf.grid.mean()


def test_disjoint_supports_nearly_orthogonal():
    a = sqrt_transform(kde(_pd([[0.1, 0.3]]), 0.02, 64))
    b = sqrt_transform(kde(_pd([[0.7, 0.95]]), 0.02, 64))
    overlap = float((a.grid * b.grid).sum()) / 64**2
    assert overlap < 1e-6


def test_container_validation():
    with pytest.raises(ValueError):
        PersistencePdf(grid=np.full((8, 8), 1.0))  # sums to 64
    with pytest.raises(ValueError):
        PersistencePdf(grid=-np.full((8, 8), 1.0 / 64))
    with pytest.raises(ValueError):
        SqrtDensity(grid=np.full((8, 8), 0.5))
    SqrtDensity(grid=np.full((8, 8), 1.0))  # unit constant is on the sphere


def test_grid_csv_roundtrip(tmp_path):
    pdf = kde(_pd([[0.25, 0.65]]), 0.05, 32)
    path = tmp_path / "grid.csv"
    write_grid(path, pdf.grid)
    assert np.array_equal(read_grid(path), pdf.grid)
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    with pytest.raises(ParseError):
        read_grid(bad)


def test_pgm_max_pixel(tmp_path):
    pdf = kde(_pd([[0.25, 0.65]]), 0.05, 32)
    path = tmp_path / "grid.pgm"
    write_pgm(path, pdf.grid)
    raw = path.read_bytes()
    assert raw.startswith(b"P5\n32 32\n255\n")
    pixels = np.frombuffer(raw.split(b"255\n", 1)[1], dtype=np.uint8)
    assert pixels.max() == 255
    with pytest.raises(ValueError):
        write_pgm(tmp_path / "zero.pgm", np.zeros((4, 4)))
