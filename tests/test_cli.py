import json
import math
import re

import numpy as np
import pytest

from persphere import errors
from persphere.analysis import cross_distances, read_matrix
from persphere.cli import DEFAULT_GRID, DEFAULT_SIGMA, main
from persphere.density import kde, read_grid
from persphere.embedding import read_cloud, write_cloud
from persphere.errors import ParseError
from persphere.persistence import (
    PersistenceDiagram,
    normalize_diagram,
    read_diagram,
    read_diagrams,
    write_diagrams,
)
from persphere.sphere import load_pga_model
from persphere.wasserstein import brute_force


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture
def sine_series(tmp_path):
    path = tmp_path / "ts.csv"
    t = np.arange(200)
    path.write_text(
        "\n".join(f"{v:.17g}" for v in np.sin(2 * np.pi * t / 50)) + "\n"
    )
    return path


def _write_diagram(path, points, dim=1):
    write_diagrams(path, [PersistenceDiagram(dim, np.asarray(points, dtype=float))])


def test_embed_persist_density_heatmap(tmp_path, sine_series):
    cloud = tmp_path / "cloud.csv"
    assert run("embed", "--input", sine_series, "--m", 2, "--tau", 12,
               "--output", cloud) == 0
    dgm = tmp_path / "dgm.csv"
    assert run("persist", "--input", cloud, "--max-scale", 1.3,
               "--output", dgm) == 0
    grid = tmp_path / "grid.csv"
    assert run("density", "--input", dgm, "--dim", 0, "--output", grid) == 0
    g = read_grid(grid)
    assert g.shape == (64, 64)
    assert g.sum() == pytest.approx(1.0, abs=1e-9)
    pgm = tmp_path / "grid.pgm"
    assert run("heatmap", "--input", grid, "--output", pgm) == 0
    raw = pgm.read_bytes()
    assert raw.startswith(b"P5\n64 64\n255\n")
    assert max(raw.split(b"255\n", 1)[1]) == 255


def test_exit_codes(tmp_path, capsys):
    # missing file -> 2
    assert run("density", "--input", tmp_path / "nope.csv", "--output",
               tmp_path / "x.csv") == 2
    # unparseable file -> 3
    bad = tmp_path / "bad.csv"
    bad.write_text("definitely,not,a diagram\n")
    assert run("density", "--input", bad, "--output", tmp_path / "x.csv") == 3
    # bad parameter -> 4
    good = tmp_path / "good.csv"
    _write_diagram(good, [[0.1, 0.5]])
    assert run("density", "--input", good, "--sigma", -1, "--output",
               tmp_path / "x.csv") == 4
    # unknown flag -> 4
    assert run("density", "--wat") == 4
    # one distmat item -> 4
    assert run("distmat", "--inputs", good, "--output", tmp_path / "dm.csv") == 4
    assert "need at least 2 items" in capsys.readouterr().err
    # groups with mixed channel counts -> 4
    groups = tmp_path / "groups.csv"
    groups.write_text(f"name,path\nx,{good}\nx,{good}\ny,{good}\n")
    assert run("distmat", "--groups", groups, "--output", tmp_path / "dm.csv") == 4
    assert "mixed channel counts" in capsys.readouterr().err
    # a feature name with no score -> 3
    features, scores = tmp_path / "features.csv", tmp_path / "scores.csv"
    features.write_text("name,c0\na,1\nb,2\nc,4\n")
    scores.write_text("name,score\na,1\nb,2\n")
    assert run("regress", "--features", features, "--scores", scores,
               "--output", tmp_path / "r.csv") == 3
    assert "missing scores for ['c']" in capsys.readouterr().err
    # a bad dimension token or a death before its birth -> 3
    bad.write_text("dim,birth,death\n1,0.1,0.5\nx,0.2,0.6\n")
    assert run("density", "--input", bad, "--output", tmp_path / "x.csv") == 3
    assert f"{bad}:3: bad dimension 'x'" in capsys.readouterr().err
    bad.write_text("dim,birth,death\n1,0.5,0.1\n")
    assert run("density", "--input", bad, "--output", tmp_path / "x.csv") == 3
    assert "invalid diagram for dim 1" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_inputs_exit_parse(tmp_path, capsys, token):
    series = tmp_path / "ts.csv"
    series.write_text(f"0.1\n0.2\n{token}\n0.4\n")
    assert run("embed", "--input", series, "--m", 2, "--tau", 1,
               "--output", tmp_path / "c.csv") == 3
    assert f"{series}:3:" in capsys.readouterr().err
    cloud = tmp_path / "cloud.csv"
    cloud.write_text(f"0,0\n1,{token}\n0,1\n")
    assert run("persist", "--input", cloud, "--output", tmp_path / "d.csv") == 3
    assert f"{cloud}:2:" in capsys.readouterr().err
    dgm = tmp_path / "dgm.csv"
    dgm.write_text(f"dim,birth,death\n1,{token},0.5\n")
    assert run("density", "--input", dgm, "--output", tmp_path / "g.csv") == 3
    assert f"{dgm}:2:" in capsys.readouterr().err
    # inf is an essential bar's death; nan and -inf deaths are not
    dgm.write_text(f"dim,birth,death\n1,0.1,0.5\n1,0.2,{token}\n")
    assert run("density", "--input", dgm, "--output", tmp_path / "g.csv") == (
        0 if token == "inf" else 3)
    assert token == "inf" or f"{dgm}:3:" in capsys.readouterr().err
    grid = tmp_path / "grid.csv"
    grid.write_text(f"0.25,0.25\n0.25,{token}\n")
    assert run("heatmap", "--input", grid, "--output", tmp_path / "g.pgm") == 3
    assert f"{grid}:2:" in capsys.readouterr().err
    matrix = tmp_path / "dm.csv"
    matrix.write_text(f",a,b\na,0,{token}\nb,{token},0\n")
    with pytest.raises(ParseError, match=f"^{re.escape(str(matrix))}:2:"):
        read_matrix(matrix)
    features = tmp_path / "features.csv"
    scores = tmp_path / "scores.csv"
    names = [f"s{i}" for i in range(4)]
    features.write_text("name,c0\n" + "".join(f"{n},{i}\n" for i, n in enumerate(names)))
    scores.write_text("name,score\n" + "".join(f"{n},{i}\n" for i, n in enumerate(names)))
    bad = features.read_text().replace("s2,2", f"s2,{token}")
    (tmp_path / "bad_features.csv").write_text(bad)
    assert run("regress", "--features", tmp_path / "bad_features.csv", "--scores", scores,
               "--output", tmp_path / "r.csv") == 3
    assert "bad_features.csv:4:" in capsys.readouterr().err
    bad = scores.read_text().replace("s1,1", f"s1,{token}")
    (tmp_path / "bad_scores.csv").write_text(bad)
    assert run("regress", "--features", features, "--scores", tmp_path / "bad_scores.csv",
               "--output", tmp_path / "r.csv") == 3
    assert "bad_scores.csv:3:" in capsys.readouterr().err


@pytest.mark.parametrize("which, lineno", [("features", 4), ("scores", 5)])
def test_regress_duplicate_names_exit_parse(tmp_path, capsys, which, lineno):
    lines = {"features": ["name,c0", "a,1", "b,2", "c,4"],
             "scores": ["name,score", "a,1", "b,2", "c,3"]}
    lines[which].insert(lineno - 1, "a,5")
    paths = {}
    for key, rows in lines.items():
        paths[key] = tmp_path / f"{key}.csv"
        paths[key].write_text("\n".join(rows) + "\n")
    assert run("regress", "--features", paths["features"], "--scores", paths["scores"],
               "--output", tmp_path / "r.csv") == 3
    assert f"{paths[which]}:{lineno}: duplicate name" in capsys.readouterr().err


def test_unreadable_inputs_exit_codes(tmp_path, capsys):
    latin = tmp_path / "latin1.csv"
    latin.write_bytes(b"dim,birth,death\n1,0.1,0.5 \xe9\n")
    assert run("density", "--input", latin, "--output", tmp_path / "g.csv") == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: parse: {latin}: ") and err.count("\n") == 1
    folder = tmp_path / "folder"
    folder.mkdir()
    assert run("density", "--input", folder, "--output", tmp_path / "g.csv") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(folder) in err and err.count("\n") == 1


def test_dist_hilbert_and_w1(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    _write_diagram(a, [[0.2, 0.8]])
    _write_diagram(b, [[0.2, 0.8]])
    assert run("dist", "--a", a, "--b", b, "--metric", "hilbert") == 0
    assert float(capsys.readouterr().out.strip()) < 1e-6
    assert run("dist", "--a", a, "--b", b, "--metric", "w1") == 0
    assert float(capsys.readouterr().out.strip()) == 0.0


def test_dim0_matching_commands(tmp_path, capsys):
    # H0 files as `persist` writes them: finite bars born at 0 plus one
    # essential bar, which normalization caps at death 1.
    rng = np.random.default_rng(12)
    paths = []
    for i in range(4):
        p = tmp_path / f"h{i}.csv"
        deaths = rng.uniform(0.05, 0.9, 3)
        write_diagrams(p, [PersistenceDiagram(0, np.column_stack([np.zeros(3), deaths]), [0.0])])
        paths.append(p)
    a, b = paths[:2]
    x, y = (normalize_diagram(read_diagram(p, 0), 1.0) for p in (a, b))
    for metric, q in (("w1", 1), ("w2", 2)):
        assert run("dist", "--a", a, "--b", b, "--metric", metric, "--dim", 0,
                   "--scale", 1.0) == 0
        assert abs(float(capsys.readouterr().out) - brute_force(x, y, q)) <= 1e-12
    out = tmp_path / "dm.csv"
    assert run("distmat", "--inputs", *paths, "--metric", "w2", "--dim", 0,
               "--output", out) == 0
    values = read_matrix(out, "w2").values
    assert values.shape == (4, 4)
    assert np.array_equal(values, values.T)
    assert np.all(np.diag(values) == 0.0)
    assert np.all(values[~np.eye(4, dtype=bool)] > 0.0)
    geo = tmp_path / "geo"
    assert run("geodesic", "--from", a, "--to", b, "--steps", 3, "--space",
               "alexandrov", "--dim", 0, "--output-dir", geo) == 0
    mid = read_diagram(geo / "step_001.csv", 0)
    assert mid.pairs.shape[0] > 0 and np.all(mid.pairs[:, 0] == 0.0)


@pytest.mark.parametrize("dim", [0, 1])
@pytest.mark.parametrize("metric", ["hilbert", "w1", "w2"])
def test_dist_prints_the_cross_distances_entry(tmp_path, capsys, metric, dim):
    # `dist` is the 1x1 case of cross_distances, the one place that turns a
    # metric name into a distance. For this seed a Hilbert value summed
    # cell by cell would differ from it in the last digits, in both dims.
    rng = np.random.default_rng(2)
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        deaths = rng.uniform(0.05, 0.9, 6)
        births = rng.uniform(0.1, 0.6, 5)
        write_diagrams(path, [
            PersistenceDiagram(0, np.column_stack([np.zeros(6), deaths]), [0.0]),
            PersistenceDiagram(1, np.column_stack([births, births + rng.uniform(0.05, 0.4, 5)])),
        ])
    diagrams = [read_diagram(p, dim) for p in paths]
    scale = max(d.max_finite() for d in diagrams)
    items = [normalize_diagram(d, scale) for d in diagrams]
    if metric == "hilbert":
        items = [kde(d, DEFAULT_SIGMA, DEFAULT_GRID) for d in items]
    assert run("dist", "--a", paths[0], "--b", paths[1], "--metric", metric, "--dim", dim) == 0
    value = cross_distances(items[:1], items[1:], metric)[0, 0]
    assert capsys.readouterr().out == f"{value:.17g}\n"


@pytest.mark.parametrize("sigma", ["inf", "nan"])
def test_density_non_finite_sigma_exits_parameter(tmp_path, capsys, sigma):
    # At sigma=inf every kernel is 1, and the grid would be silently uniform.
    good = tmp_path / "good.csv"
    _write_diagram(good, [[0.1, 0.5]])
    out = tmp_path / "g.csv"
    assert run("density", "--input", good, "--sigma", sigma, "--output", out) == 4
    assert capsys.readouterr().err == (
        f"error: parameter: sigma must be positive and finite, got {sigma}\n")
    assert not out.exists()


def test_geodesic_endpoints_match_density(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    _write_diagram(a, [[0.1, 0.5]])
    _write_diagram(b, [[0.4, 0.9]])
    out = tmp_path / "geo"
    assert run("geodesic", "--from", a, "--to", b, "--steps", 5, "--scale", 1.0,
               "--output-dir", out) == 0
    step_files = sorted(out.iterdir())
    assert [p.name for p in step_files] == [f"step_{i:03d}.csv" for i in range(5)]
    ga = tmp_path / "da.csv"
    gb = tmp_path / "db.csv"
    assert run("density", "--input", a, "--scale", 1.0, "--output", ga) == 0
    assert run("density", "--input", b, "--scale", 1.0, "--output", gb) == 0
    assert np.abs(read_grid(out / "step_000.csv") - read_grid(ga)).max() <= 1e-9
    assert np.abs(read_grid(out / "step_004.csv") - read_grid(gb)).max() <= 1e-9


def test_geodesic_alexandrov_steps_are_diagrams(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    _write_diagram(a, [[0.0, 1.0]])
    _write_diagram(b, [[0.0, 0.5]])
    out = tmp_path / "geo"
    assert run("geodesic", "--from", a, "--to", b, "--steps", 3,
               "--space", "alexandrov", "--output-dir", out) == 0
    mid = read_diagram(out / "step_001.csv", 1)
    assert mid.pairs.tolist() == [[0.0, 0.75]]


def test_geodesic_steps_checked_before_reading(tmp_path, capsys):
    b = tmp_path / "b.csv"
    _write_diagram(b, [[0.1, 0.5]])
    out = tmp_path / "geo"
    for space in ("sphere", "alexandrov"):
        assert run("geodesic", "--from", tmp_path / "missing.csv", "--to", b,
                   "--steps", 1, "--space", space, "--output-dir", out) == 4
        assert "--steps must be >= 2, got 1" in capsys.readouterr().err
    assert not out.exists()


def test_diagram_without_the_dimension_exits_parameter(tmp_path, capsys):
    # Two points have no H1 class, so the diagram file holds H0 rows only.
    cloud, dgm, out = tmp_path / "cloud.csv", tmp_path / "dgm.csv", tmp_path / "g.csv"
    write_cloud(cloud, np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert run("persist", "--input", cloud, "--output", dgm) == 0
    assert list(read_diagrams(dgm)) == [0]
    capsys.readouterr()
    assert run("density", "--input", dgm, "--dim", 1, "--output", out) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: parameter: ") and "no finite coordinates" in err
    assert run("density", "--input", dgm, "--dim", 1, "--scale", 1, "--output", out) == 4
    err = capsys.readouterr().err
    assert err.startswith(f"error: parameter: {dgm}: no density: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_mean_command(tmp_path):
    paths = []
    for i, pts in enumerate(([[0.2, 0.6]], [[0.2, 0.6], [0.5, 0.9]])):
        p = tmp_path / f"m{i}.csv"
        _write_diagram(p, pts)
        paths.append(p)
    out = tmp_path / "mean.csv"
    assert run("mean", "--inputs", *paths, "--scale", 1.0, "--output", out) == 0
    g = read_grid(out)
    assert g.sum() == pytest.approx(1.0, abs=1e-9)


def test_pga_command_and_coords(tmp_path):
    paths = []
    rng = np.random.default_rng(0)
    for i in range(5):
        p = tmp_path / f"p{i}.csv"
        _write_diagram(p, [[0.2 + rng.uniform(0, 0.1), 0.7]])
        paths.append(p)
    out = tmp_path / "model"
    assert run("pga", "--inputs", *paths, "--components", 2, "--scale", 1.0,
               "--output-dir", out) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["n_components"] == 2
    assert manifest["scale"] == 1.0
    coords = (out / "coords.csv").read_text().splitlines()
    assert coords[0] == "name,c0,c1"
    assert len(coords) == 6


def test_pga_inputs_sharing_a_basename_exit_parameter(tmp_path, capsys):
    # coords.csv names its rows by basename, which `regress` requires unique.
    paths = []
    for rel, b in (("a/x.csv", 0.1), ("b/x.csv", 0.3), ("c/y.csv", 0.5)):
        p = tmp_path / rel
        p.parent.mkdir()
        _write_diagram(p, [[b, b + 0.4]])
        paths.append(p)
    out = tmp_path / "model"
    assert run("pga", "--inputs", *paths, "--components", 1, "--scale", 1.0,
               "--output-dir", out) == 4
    err = capsys.readouterr().err
    assert err == (f"error: parameter: --inputs {paths[0]} and {paths[1]} "
                   "share the row name 'x'\n")
    assert not out.exists()


def test_distmat_and_knn_rows_sharing_a_basename_exit_parameter(tmp_path, capsys):
    # Matrix labels and prediction rows are named by basename, as coords.csv is.
    paths = []
    for rel, b in (("a/x.csv", 0.1), ("b/x.csv", 0.3), ("c/y.csv", 0.5)):
        p = tmp_path / rel
        p.parent.mkdir()
        _write_diagram(p, [[b, b + 0.4]])
        paths.append(p)
    out = tmp_path / "out.csv"
    assert run("distmat", "--inputs", *paths, "--metric", "w1", "--output", out) == 4
    assert capsys.readouterr().err == (f"error: parameter: --inputs {paths[0]} and {paths[1]} "
                                       "share the row name 'x'\n")
    train = tmp_path / "train.csv"
    train.write_text(f"path,label\n{paths[2]},y\n")
    assert run("knn", "--train", train, "--test", *paths, "--output", out) == 4
    assert capsys.readouterr().err == (f"error: parameter: --test {paths[0]} and {paths[1]} "
                                       "share the row name 'x'\n")
    assert not out.exists()


def test_distmat_and_manifest(tmp_path):
    paths = []
    for i, b in enumerate((0.1, 0.3, 0.5)):
        p = tmp_path / f"d{i}.csv"
        _write_diagram(p, [[b, b + 0.4]])
        paths.append(p)
    out = tmp_path / "dm.csv"
    man = tmp_path / "dm.json"
    assert run("distmat", "--inputs", *paths, "--metric", "hilbert",
               "--output", out, "--manifest", man) == 0
    manifest = json.loads(man.read_text())
    assert manifest["metric"] == "hilbert"
    assert manifest["scale"] == 0.9
    rows = out.read_text().splitlines()
    assert rows[0] == ",d0,d1,d2"
    assert len(rows) == 4


def test_distmat_groups_channel_mean(tmp_path):
    # Two items with two channels each; distances average over channels.
    values = {
        ("x", 0): [[0.1, 0.5]],
        ("x", 1): [[0.2, 0.6]],
        ("y", 0): [[0.3, 0.7]],
        ("y", 1): [[0.4, 0.8]],
    }
    rows = ["name,path"]
    for (name, ch), pts in values.items():
        p = tmp_path / f"{name}_{ch}.csv"
        _write_diagram(p, pts)
        rows.append(f"{name},{p}")
    groups = tmp_path / "groups.csv"
    groups.write_text("\n".join(rows) + "\n")
    out = tmp_path / "dm.csv"
    assert run("distmat", "--groups", groups, "--metric", "w1", "--scale", 1.0,
               "--output", out) == 0
    got = float(out.read_text().splitlines()[1].split(",")[2])
    # each channel pair is two points at L1 offset 0.4, matched directly
    assert got == pytest.approx(0.4, abs=1e-9)


def test_knn_command(tmp_path):
    train_rows = ["path,label"]
    for i, (b, label) in enumerate([(0.1, "low"), (0.12, "low"), (0.5, "high"), (0.52, "high")]):
        p = tmp_path / f"t{i}.csv"
        _write_diagram(p, [[b, b + 0.3]])
        train_rows.append(f"{p},{label}")
    train = tmp_path / "train.csv"
    train.write_text("\n".join(train_rows) + "\n")
    test_file = tmp_path / "query.csv"
    _write_diagram(test_file, [[0.51, 0.81]])
    out = tmp_path / "pred.csv"
    man = tmp_path / "pred.json"
    assert run("knn", "--train", train, "--test", test_file, "--k", 1,
               "--output", out, "--manifest", man) == 0
    assert out.read_text().splitlines()[1].endswith(",high")
    assert json.loads(man.read_text())["k"] == 1


def test_regress_command(tmp_path, capsys):
    features = tmp_path / "features.csv"
    lines = ["name,c0"]
    scores = ["name,score"]
    rng = np.random.default_rng(1)
    for i in range(10):
        x = float(rng.normal())
        lines.append(f"s{i},{x:.17g}")
        scores.append(f"s{i},{2 * x + 1:.17g}")
    features.write_text("\n".join(lines) + "\n")
    score_file = tmp_path / "scores.csv"
    score_file.write_text("\n".join(scores) + "\n")
    out = tmp_path / "pred.csv"
    assert run("regress", "--features", features, "--scores", score_file,
               "--output", out) == 0
    printed = capsys.readouterr().out
    assert "pearson_r" in printed
    assert float(printed.split()[-1]) == pytest.approx(1.0, abs=1e-9)


def test_bench_command(tmp_path):
    out = tmp_path / "bench.json"
    assert run("bench", "--n", 10, "--trials", 10, "--seed", 3,
               "--output", out) == 0
    payload = json.loads(out.read_text())
    assert payload["pairs"] == 10
    assert payload["hilbert_mean_s"] > 0
    assert payload["w1_mean_s"] > 0


def test_synth_reproducible(tmp_path):
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    for out in (out1, out2):
        assert run("synth", "--classes", 3, "--per-class", 2, "--seed", 7,
                   "--output-dir", out) == 0
    files1 = sorted(p.name for p in out1.iterdir())
    files2 = sorted(p.name for p in out2.iterdir())
    assert files1 == files2
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    labels = (out1 / "labels.csv").read_text().splitlines()
    assert labels[0] == "name,label"
    assert len(labels) == 7


def test_commands_do_not_mutate_inputs(tmp_path):
    dgm = tmp_path / "in.csv"
    _write_diagram(dgm, [[0.2, 0.8]])
    before = dgm.read_bytes()
    assert run("density", "--input", dgm, "--output", tmp_path / "g.csv") == 0
    assert dgm.read_bytes() == before


def test_embed_channel_selection(tmp_path):
    series = tmp_path / "multi.csv"
    series.write_text("0,10\n1,11\n2,12\n3,13\n")
    out = tmp_path / "cloud.csv"
    assert run("embed", "--input", series, "--channel", 1, "--m", 2, "--tau", 1,
               "--output", out) == 0
    cloud = [line.split(",") for line in out.read_text().splitlines()]
    assert [[float(v) for v in row] for row in cloud] == [
        [10, 11], [11, 12], [12, 13]
    ]


def test_names_with_a_comma_exit_parameter(tmp_path, capsys):
    paths = []
    for name, b in (("a,b", 0.1), ("d1", 0.3), ("d2", 0.5)):
        p = tmp_path / f"{name}.csv"
        _write_diagram(p, [[b, b + 0.4]])
        paths.append(p)
    train = tmp_path / "train.csv"
    train.write_text(f"path,label\n{paths[1]},x\n{paths[2]},y\n")
    dm, model, pred = tmp_path / "dm.csv", tmp_path / "pga", tmp_path / "pred.csv"
    for argv, out in (
        (("distmat", "--inputs", *paths, "--metric", "w1", "--output", dm), dm),
        (("pga", "--inputs", *paths, "--output-dir", model), model / "coords.csv"),
        (("knn", "--train", train, "--test", paths[0], "--output", pred), pred),
    ):
        assert run(*argv) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: parameter: ") and "'a,b'" in err
        assert err.count("\n") == 1
        assert not out.exists()
    assert list(model.glob("*")) == []


def test_distmat_inputs_and_groups_are_exclusive(tmp_path, capsys):
    paths = []
    for i in range(3):
        p = tmp_path / f"d{i}.csv"
        _write_diagram(p, [[0.1 * i, 0.1 * i + 0.4]])
        paths.append(p)
    groups = tmp_path / "groups.csv"
    groups.write_text(f"name,path\nx,{paths[0]}\ny,{paths[1]}\n")
    out = tmp_path / "dm.csv"
    assert run("distmat", "--inputs", *paths, "--groups", groups, "--output", out) == 4
    assert "not allowed with" in capsys.readouterr().err
    assert not out.exists()


def _chain():
    """synth -> persist -> density -> distmat -> knn -> pga -> mean -> geodesic
    -> regress in the working directory; returns the reader of every file."""

    def rows(header, text):
        return lambda p: errors.read_csv(p, header, text=text)

    assert run("synth", "--classes", 3, "--per-class", 2, "--seed", 7, "--n-min", 20,
               "--n-max", 26, "--output-dir", "syn") == 0
    readers = {"syn/labels.csv": rows("name,label", 2), "syn/manifest.json": errors.read_json}
    names = [r[0] for r in errors.read_csv("syn/labels.csv", "name,label", text=2).text]
    dgms = [f"{name}.csv" for name in names]
    for dgm in dgms:
        assert run("persist", "--input", f"syn/{dgm}", "--output", dgm) == 0
        readers[f"syn/{dgm}"] = read_cloud
        readers[dgm] = read_diagrams
    assert run("density", "--input", dgms[0], "--output", "g.csv") == 0
    readers["g.csv"] = read_grid
    for metric in ("hilbert", "w1"):
        assert run("distmat", "--inputs", *dgms, "--metric", metric, "--output",
                   f"{metric}.csv", "--manifest", f"{metric}.json") == 0
        readers[f"{metric}.csv"] = lambda p, m=metric: read_matrix(p, m)
        readers[f"{metric}.json"] = errors.read_json
    with open("train.csv", "w") as fh:
        fh.write("path,label\n")
        fh.writelines(f"{d},{n.rsplit('_', 1)[1]}\n" for d, n in zip(dgms[1:], names[1:]))
    readers["train.csv"] = rows("path,label", 2)
    assert run("knn", "--train", "train.csv", "--test", dgms[0], "--k", 3,
               "--output", "knn.csv", "--manifest", "knn.json") == 0
    readers["knn.csv"] = rows("name,label", 2)
    readers["knn.json"] = errors.read_json
    assert run("pga", "--inputs", *dgms, "--components", 2, "--output-dir", "pga") == 0
    for f in ("mean.csv", "component_000.csv", "component_001.csv"):
        readers[f"pga/{f}"] = read_grid
    readers["pga/manifest.json"] = lambda p: load_pga_model(p.parent)
    readers["pga/coords.csv"] = rows("name,c0,c1", 1)
    assert run("mean", "--inputs", *dgms, "--output", "mean.csv") == 0
    readers["mean.csv"] = read_grid
    for space in ("sphere", "alexandrov"):
        assert run("geodesic", "--from", dgms[0], "--to", dgms[-1], "--steps", 3,
                   "--space", space, "--output-dir", space) == 0
        for i in range(3):
            readers[f"{space}/step_{i:03d}.csv"] = read_grid if space == "sphere" else read_diagrams
    with open("scores.csv", "w") as fh:
        fh.write("name,score\n")
        fh.writelines(f"{n},{i}\n" for i, n in enumerate(names))
    readers["scores.csv"] = rows("name,score", 1)
    assert run("regress", "--features", "pga/coords.csv", "--scores", "scores.csv",
               "--output", "reg.csv") == 0
    readers["reg.csv"] = rows("name,score,predicted", 1)
    return readers


def test_cli_chain_reproducible_and_readable(tmp_path, monkeypatch, capsys):
    outputs = []
    for run_dir in ("one", "two"):
        (tmp_path / run_dir).mkdir()
        monkeypatch.chdir(tmp_path / run_dir)
        readers = _chain()
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    files = sorted(str(p.relative_to(tmp_path / "one")) for p in (tmp_path / "one").rglob("*")
                   if p.is_file())
    assert files == sorted(readers)
    for name in files:
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
        readers[name](tmp_path / "one" / name)
