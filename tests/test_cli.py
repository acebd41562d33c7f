import hashlib
import importlib
import json
import math
import re
from pathlib import Path

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


def test_geodesic_alexandrov_solves_one_matching(tmp_path, monkeypatch):
    # Two H1 diagrams with different births take the Hungarian solve.
    wasserstein = importlib.import_module("persphere.wasserstein")
    solve = wasserstein._hungarian_partners
    calls = []

    def counting(*costs):
        calls.append(costs[0].shape)
        return solve(*costs)

    monkeypatch.setattr(wasserstein, "_hungarian_partners", counting)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    _write_diagram(a, [[0.1, 0.4], [0.3, 0.9]])
    _write_diagram(b, [[0.2, 0.5], [0.35, 0.7], [0.6, 0.8]])
    assert run("geodesic", "--from", a, "--to", b, "--steps", 5,
               "--space", "alexandrov", "--output-dir", tmp_path / "geo") == 0
    assert calls == [(2, 3)]
    assert len(list((tmp_path / "geo").iterdir())) == 5


def test_geodesic_alexandrov_keeps_essential_bars(tmp_path, capsys):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_diagrams(a, [PersistenceDiagram(0, [[0.0, 0.3], [0.0, 0.5]], [0.0])])
    write_diagrams(b, [PersistenceDiagram(0, [[0.0, 0.4]], [0.2])])
    out = tmp_path / "geo"
    assert run("geodesic", "--from", a, "--to", b, "--steps", 3,
               "--space", "alexandrov", "--dim", 0, "--output-dir", out) == 0
    assert (out / "step_000.csv").read_bytes() == a.read_bytes()
    assert read_diagram(out / "step_001.csv", 0).essential.tolist() == [0.1]
    assert read_diagram(out / "step_002.csv", 0).essential.tolist() == [0.2]
    capsys.readouterr()
    c = tmp_path / "c.csv"
    write_diagrams(c, [PersistenceDiagram(0, [[0.0, 0.4]], [0.2, 0.3])])
    assert run("geodesic", "--from", a, "--to", c, "--steps", 3, "--space", "alexandrov",
               "--dim", 0, "--output-dir", tmp_path / "bad") == 4
    err = capsys.readouterr().err
    assert err.startswith("error: parameter: ") and "essential bars" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "bad").exists()


# sha256 of the BLAS-free outputs of the golden CLI chain, named as
# `tests/cli_digests.py` prints them, plus the dim-0 Alexandrov geodesic,
# whose steps carry each diagram's essential bar.
GOLDEN_DIGESTS = {
    "alexandrov/step_000.csv": "c6132f94edf36477e31857921e49767155764595a7367f788eed3370fe09d4bb",
    "alexandrov/step_001.csv": "04058a33e54e11ec77650b9d4b4e2ebc09aaf77e595399d76f191f8d647f6287",
    "alexandrov/step_002.csv": "eb54ac6674d85c10fdbacbdda1b0b7c0d98f057dced49330203daf9b329a847e",
    "alexandrov_dim0/step_000.csv": "1ab5ce01bc4c3a1df6c25a49fcc6815fc6e7d0a439d2434c0b9025d59908aa13",
    "alexandrov_dim0/step_001.csv": "684835feb2e34e70efda07fcb7a82595e5a5a26fa1b2e8899f2b4cfa891146ad",
    "alexandrov_dim0/step_002.csv": "b318e94eca0c9840f493dd032c433e8ca126a9cb6e6d9649c16a3ce1a213b3eb",
    "dm_w1_0.csv": "cc25d855eba9972a58dba2e9e52ae47294292a63cb6ee0c7cbab3ec2e2647b2c",
    "dm_w1_0.json": "e0453dee72db911c221cde34f5eee108dfa06fcf2e98051404c37ea877fd7154",
    "dm_w1_1.csv": "d51d9febcb028d3ab136c937a47eba235a50634f4820bc260025ac321c5ff97a",
    "dm_w1_1.json": "b671aa9cbca2340a83c43988116259d7faa8068064de83bee0f0346c92e536b6",
    "dm_w2_0.csv": "1211180ccbbd08b20880969e3b2d3a06785cac35e7a03572bbba28390ffb6412",
    "dm_w2_0.json": "60ac12e90abf82ff0ded4fdd248e710c33032399d7a69835dd20c5aa91eb0f1c",
    "dm_w2_1.csv": "8bc49b9756b1232fc8a1b95ea74af7d16052e0341614258983314a960a26ce93",
    "dm_w2_1.json": "7fc042f37788ec4a2ed5e4b7ad58951b38959cdcb6bcb6947c0cc7e7c6c99b63",
    "pd/cloud_000_one_loop.csv": "3c4f115af8766f9e9c6dc59000c1e7625a81c0a03012463de0b348676966ccc0",
    "pd/cloud_001_one_loop.csv": "36243d0bd8db34fbdef8c5f362bd57f6c26a19e8764ef9c60e07e8784eee8874",
    "pd/cloud_002_one_loop.csv": "66334430565142c789e398b3b93a67a066354302158c4148c6e47fe9ac193745",
    "pd/cloud_003_one_loop.csv": "f5602034dfa4594ea9792497fc139953c3db527bc04713f3a683a38cbb5ea91a",
    "pd/cloud_004_two_loops.csv": "fa920bcfd063b906077ce75ff5e22f8ff7698c81baac3af23f5d1428ba21062a",
    "pd/cloud_005_two_loops.csv": "a5021f301c23759604c4058cebe1f7f050c24a679c1a2b8e3caab872fe18fa81",
    "pd/cloud_006_two_loops.csv": "43c1bf0b08a7fdc17825a480f9b11319794fc5e0b49fa616f3cb4cca390c829f",
    "pd/cloud_007_two_loops.csv": "4dc9ca7f6e990c3bd2965665f4ad892405dc8a5e0b56a8d1aa69d9a14f909a59",
    "pd/cloud_008_noise.csv": "49d63ff355709510bd10e4bdfd731751bf17b39b66ba3b5ffe1cb63da1c06b2b",
    "pd/cloud_009_noise.csv": "b3ff6c2550b0ad724b5e143f7984481b1675dec623f603bb92defdfb1257b480",
    "pd/cloud_010_noise.csv": "e18fb01cb69f1c3a970e2861b769e285eeee584fbdd2dca39e0184ef5de2d42f",
    "pd/cloud_011_noise.csv": "0f3f2980f81226bce6dc69addb2297ebb371c35f64c50f2ccc05759e675a1e2b",
    "pd_links/cloud_000_one_loop.csv": "dc985ec66f13f79c9d4b831218047173c758eb9040a06873672ff64172911c8c",
    "pd_links/cloud_001_one_loop.csv": "3731bc047e7c697b62a5892e7fad454d47906dca3da1bc790c28cd71beece37a",
    "pd_links/cloud_002_one_loop.csv": "ecbf36de0eb9ff043df997c69221f8b12b1cfce96735035459d2195429f3ba50",
    "pd_links/cloud_003_one_loop.csv": "de1f9e58bb1cf9a1c5a203f11de43128baaa1625611a01cb8d9fc6b2a135d8ea",
    "pd_links/cloud_004_two_loops.csv": "34cc93a13eba9d993d0bf8b1c0a6826146f417a0aecf05de2e24ea5d62294374",
    "pd_links/cloud_005_two_loops.csv": "b85394816be8fbae0473d69a53f185a302cf481cfb891b28855295ab10f2a609",
    "pd_links/cloud_006_two_loops.csv": "d0354c526aa5318868166ea6f4dc31d90d1e401371e2eb10d77c7e0e5cc594e8",
    "pd_links/cloud_007_two_loops.csv": "05373e03b06f3394e8d3dcb466321add4684bf4f08d8e3d7bbdca0ce53bed85e",
    "pd_links/cloud_008_noise.csv": "53e11efcae8e149f994e1fe64eb31c3e9038935e34478a10716143fbe2afcbb3",
    "pd_links/cloud_009_noise.csv": "6ff95de524cec537ef17ecfeca267e0bea37a02bb4333071b09144afd206e783",
    "pd_links/cloud_010_noise.csv": "6ae4eda0ca153aa9afa372f8491ff368d4d1769a71b525b2a424e27267048c37",
    "pd_links/cloud_011_noise.csv": "5477d1f382e6c77e241fcaffde2b8cb307b85065d0dbc975d5732ea5e7dd5e7f",
    "syn/cloud_000_one_loop.csv": "805ceee2d00ded127192dd7a0356ff1f93a38b959512433edcd1dd30720d5577",
    "syn/cloud_001_one_loop.csv": "c813de173c5a3f944d54f3077bcfa3ec0b3bd384036d32f8f332e27e3942cafc",
    "syn/cloud_002_one_loop.csv": "b2e9765b1a4733d23edb04cbcd76bd6eea33d2905bb11c091947037fadd3a8b6",
    "syn/cloud_003_one_loop.csv": "41cb886ab06c31443427718759cf74d2a6aa99dfd2bc2a53ca90681be52444b7",
    "syn/cloud_004_two_loops.csv": "6240fbe760e7ede212727f374278efe4d2acc8fdc155e77ee6ab1388dcda8fc3",
    "syn/cloud_005_two_loops.csv": "36d7325c60b84aeccf44f2af534d73603356b5b017da160bdb15cc3e2455274e",
    "syn/cloud_006_two_loops.csv": "b8b9eaadc25786389d060673cecf052e709d83fed90daeff0af52b690a12c755",
    "syn/cloud_007_two_loops.csv": "bd86857d87d21ef328d856ba45e07d4285788da84cf9f8a3b006c10ec8f76310",
    "syn/cloud_008_noise.csv": "b0fadc30cd590fcff690d661bce514c3f9751ccfda7ce0054187097a110b8b70",
    "syn/cloud_009_noise.csv": "db04ebce60dcb73d818e8e3b039591db4bd31da6843d319d35a7e492df9a8f5e",
    "syn/cloud_010_noise.csv": "3a4276d710d738d79d4138cde432039f8d20ad86dc356142e026f3919288e254",
    "syn/cloud_011_noise.csv": "df1a8c6bb5c1faffe19e258e8deb3f9ff5420ff248df91deb2d827c155272c45",
    "syn/labels.csv": "a085d577679db3fb1a6c577bacd7d905762a7999030386b88fb3ccbb6e06f088",
    "syn/manifest.json": "c37f9dcb5c47a9f1fcc8bc12a22179ffa9d4ec62f8eb27a1cd15e0fd45345116",
}


def test_golden_chain_bytes(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run("synth", "--per-class", 4, "--seed", 3, "--output-dir", "syn") == 0
    names = sorted(p.stem for p in Path("syn").glob("cloud_*.csv"))
    for out, links in (("pd", ()), ("pd_links", ("--temporal-links",))):
        Path(out).mkdir()
        for name in names:
            assert run("persist", "--input", f"syn/{name}.csv", *links,
                       "--output", f"{out}/{name}.csv") == 0
    dgms = [f"pd/{name}.csv" for name in names]
    for metric in ("w1", "w2"):
        for dim in (0, 1):
            stem = f"dm_{metric}_{dim}"
            assert run("distmat", "--inputs", *dgms, "--metric", metric, "--dim", dim,
                       "--output", f"{stem}.csv", "--manifest", f"{stem}.json") == 0
    for dim, out in ((1, "alexandrov"), (0, "alexandrov_dim0")):
        assert run("geodesic", "--from", dgms[0], "--to", dgms[-1], "--steps", 3,
                   "--space", "alexandrov", "--dim", dim, "--output-dir", out) == 0
    got = {p.as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(Path(".").rglob("*")) if p.is_file()}
    assert got == GOLDEN_DIGESTS


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
