"""Phase-space reconstruction of scalar time series by the method of delays."""

from __future__ import annotations

import numpy as np

from .errors import ParseError, read_csv, write_csv


def delay_embed(series, m: int, tau: int) -> np.ndarray:
    """
    Embed a scalar time series into R^m with delay coordinates.

    Parameters
    ----------
    series : array-like, shape (n,)
        Scalar samples, ordered in time. All values must be finite.
    m : int
        Embedding dimension (number of delayed copies), an integer >= 1.
    tau : int
        Delay between consecutive coordinates, in samples, an integer >= 1.

    Returns
    -------
    cloud : ndarray, shape (n - (m - 1) * tau, m)
        Row t is [x(t), x(t + tau), ..., x(t + (m - 1) * tau)]. Values are
        copied verbatim from the input; no arithmetic is applied, so row t
        of the output and the source samples compare equal exactly.

    Examples
    --------
    >>> delay_embed([1.0, 2.0, 3.0, 4.0, 5.0], m=2, tau=1)
    array([[1., 2.],
           [2., 3.],
           [3., 4.],
           [4., 5.]])
    """
    if m < 1:
        raise ValueError(f"embedding dimension must be >= 1, got {m}")
    if tau < 1:
        raise ValueError(f"embedding delay must be >= 1, got {tau}")
    if not (float(m).is_integer() and float(tau).is_integer()):
        raise ValueError(f"embedding dimension and delay must be integers, got m={m}, tau={tau}")
    m, tau = int(m), int(tau)
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("series must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(x)):
        raise ValueError("series contains non-finite values")
    n_out = x.size - (m - 1) * tau
    if n_out < 1:
        raise ValueError(
            f"series of length {x.size} is too short for m={m}, tau={tau}; "
            f"need at least {(m - 1) * tau + 1} samples"
        )
    cloud = np.empty((n_out, m), dtype=float)
    for j in range(m):
        cloud[:, j] = x[j * tau : j * tau + n_out]
    return cloud


def read_series(path, channel: int | None = None) -> np.ndarray:
    """
    Read a time series from CSV.

    Single-column files hold one real per line. Multi-column files require
    `channel` (0-based) to pick the column.
    """
    table = read_csv(path)
    width = table.values.shape[1]
    if channel is None and width != 1:
        raise ParseError(
            f"{path}:{table.linenos[0]}: {width} columns; pass a channel to select one"
        )
    if channel is not None and not 0 <= channel < width:
        raise ParseError(
            f"{path}:{table.linenos[0]}: channel {channel} out of range for "
            f"{width} columns"
        )
    return table.values[:, channel or 0]


def read_cloud(path) -> np.ndarray:
    """Read a point cloud from CSV (one point per row, fixed column count)."""
    return read_csv(path).values


def write_cloud(path, cloud) -> None:
    """Write a 2-D point cloud as CSV with full float precision."""
    write_csv(path, cloud)
