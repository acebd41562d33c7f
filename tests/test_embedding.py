import numpy as np
import pytest

from persphere.embedding import delay_embed, read_cloud, read_series, write_cloud
from persphere.errors import ParseError
from persphere.persistence import cloud_diameter, diagram_of_cloud


def test_basic_window():
    out = delay_embed([1, 2, 3, 4, 5], m=2, tau=1)
    assert out.tolist() == [[1, 2], [2, 3], [3, 4], [4, 5]]


def test_m1_is_identity():
    out = delay_embed([7, 8, 9], m=1, tau=3)
    assert out.shape == (3, 1)
    assert out[:, 0].tolist() == [7, 8, 9]


def test_count_law_and_coordinate_identity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(1, 200))
        m = int(rng.integers(1, 6))
        tau = int(rng.integers(1, 8))
        if n < (m - 1) * tau + 1:
            continue
        series = rng.normal(size=n)
        cloud = delay_embed(series, m, tau)
        assert cloud.shape == (n - (m - 1) * tau, m)
        for t in range(cloud.shape[0]):
            for j in range(m):
                assert cloud[t, j] == series[t + j * tau]


def test_too_short_and_bad_params():
    with pytest.raises(ValueError, match="too short"):
        delay_embed([1, 2, 3], m=2, tau=3)
    with pytest.raises(ValueError):
        delay_embed([1, 2, 3], m=0, tau=1)
    with pytest.raises(ValueError):
        delay_embed([1, 2, 3], m=2, tau=0)
    with pytest.raises(ValueError):
        delay_embed([1.0, np.nan], m=1, tau=1)


@pytest.mark.parametrize("m, tau", [(2.5, 1), (2, 1.5), (float("nan"), 1), (2, float("inf"))])
def test_non_integral_parameters_raise_value_error(m, tau):
    with pytest.raises(ValueError, match="must be integers"):
        delay_embed([1.0, 2.0, 3.0, 4.0, 5.0], m=m, tau=tau)


def test_integral_float_parameters_embed_as_integers():
    series = [1.0, 2.0, 3.0, 4.0, 5.0]
    assert np.array_equal(delay_embed(series, m=2.0, tau=np.int64(2)), delay_embed(series, 2, 2))


def test_sine_loop_has_one_dominant_cycle():
    # The embedded sine traces a closed loop; its 1-cycle is born at the
    # sample spacing and survives past any moderate cutoff, while spurious
    # cycles die almost immediately. With the cutoff at 0.65 * diameter the
    # dominant class is still alive, so its persistence exceeds half the
    # diameter no matter where it eventually dies.
    t = np.arange(200)
    series = np.sin(2 * np.pi * t / 50)
    cloud = delay_embed(series, m=2, tau=12)
    assert cloud.shape == (188, 2)
    diam = cloud_diameter(cloud)
    cutoff = 0.65 * diam
    _, pd1 = diagram_of_cloud(cloud, max_scale=cutoff)
    assert pd1.essential.size == 1
    assert cutoff - pd1.essential[0] > 0.5 * diam
    if pd1.pairs.size:
        spurious = pd1.pairs[:, 1] - pd1.pairs[:, 0]
        assert spurious.max() <= 0.5 * diam


def test_series_io_roundtrip(tmp_path):
    path = tmp_path / "ts.csv"
    values = [1.5, -2.25, 3.125]
    path.write_text("\n".join(f"{v:.17g}" for v in values) + "\n")
    assert read_series(path).tolist() == values

    multi = tmp_path / "multi.csv"
    multi.write_text("1,10\n2,20\n")
    assert read_series(multi, channel=1).tolist() == [10.0, 20.0]
    with pytest.raises(ParseError):
        read_series(multi)
    with pytest.raises(ParseError):
        read_series(multi, channel=5)


def test_cloud_io_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    cloud = rng.normal(size=(17, 3))
    path = tmp_path / "cloud.csv"
    write_cloud(path, cloud)
    back = read_cloud(path)
    assert np.array_equal(back, cloud)

    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    with pytest.raises(ParseError):
        read_cloud(bad)
