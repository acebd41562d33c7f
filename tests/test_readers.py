"""One contract for every CSV reader: blank lines, CRLF and a leading byte-order
mark parse, and a ragged row, a bad number, a wrong header or an empty file
raise ParseError naming the file (and the line, for a row error). The JSON
readers skip a leading byte-order mark too."""

import numpy as np
import pytest

from persphere import cli
from persphere.analysis import (
    BenchReport,
    DistanceMatrix,
    read_bench_report,
    read_matrix,
    write_bench_report,
)
from persphere.density import kde, read_grid, sqrt_transform
from persphere.embedding import read_cloud, read_series
from persphere.errors import ParseError, read_csv
from persphere.persistence import PersistenceDiagram, read_diagrams
from persphere.sphere import load_pga_model, pga, save_pga_model

# name, reader, header line (None: headerless), two data rows, a numeric column
READERS = [
    ("read_series", read_series, None, [["1.5"], ["2.5"]], 0),
    ("read_series_channel", lambda p: read_series(p, channel=1), None,
     [["1", "10"], ["2", "20"]], 1),
    ("read_cloud", read_cloud, None, [["0", "1"], ["2", "3"]], 1),
    ("read_grid", read_grid, None, [["0.25", "0.25"], ["0.25", "0.25"]], 0),
    ("read_diagrams", read_diagrams, "dim,birth,death",
     [["0", "0", "inf"], ["1", "0.1", "0.5"]], 1),
    ("read_matrix", read_matrix, ",a,b", [["a", "0", "1"], ["b", "1", "0"]], 1),
    ("group_inputs", lambda p: cli._group_inputs([], p), "name,path",
     [["x", "a.csv"], ["y", "b.csv"]], None),
    ("read_manifest_csv", lambda p: read_csv(p, "path,label", text=2).text,
     "path,label", [["a.csv", "one"], ["b.csv", "two"]], None),
    ("read_feature_csv", cli._read_feature_csv, "name,c0,c1",
     [["s0", "1", "2"], ["s1", "3", "4"]], 1),
    ("read_score_csv", lambda p: cli._read_score_csv(p, ["s0", "s1"]), "name,score",
     [["s0", "1"], ["s1", "2"]], 1),
]


def _text(header, rows, newline="\n"):
    lines = ([header] if header is not None else []) + [",".join(r) for r in rows]
    return "".join(line + newline for line in lines)


def _plain(x):
    """Reader results as nested builtins, for equality checks."""
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, PersistenceDiagram):
        return (x.homology_dim, x.pairs.tolist(), x.essential.tolist())
    if isinstance(x, DistanceMatrix):
        return (x.labels, x.values.tolist())
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    return x


def _cases():
    for name, read, header, rows, numeric in READERS:
        first = 1 if header is None else 2
        yield pytest.param(read, header, rows, numeric, "ragged", first + 1,
                           id=f"{name}-ragged")
        if numeric is not None:
            yield pytest.param(read, header, rows, numeric, "bad_token", first + 1,
                               id=f"{name}-bad_token")
        if header is not None:
            yield pytest.param(read, header, rows, numeric, "wrong_header", None,
                               id=f"{name}-wrong_header")
        yield pytest.param(read, header, rows, numeric, "empty", None,
                           id=f"{name}-empty")
        yield pytest.param(read, header, rows, numeric, "crlf_blank", None,
                           id=f"{name}-crlf_blank")
        yield pytest.param(read, header, rows, numeric, "bom", None, id=f"{name}-bom")


@pytest.mark.parametrize("read, header, rows, numeric, case, lineno", _cases())
def test_reader_contract(tmp_path, read, header, rows, numeric, case, lineno):
    path = tmp_path / "in.csv"
    if case in ("crlf_blank", "bom"):
        plain = tmp_path / "plain.csv"
        plain.write_text(_text(header, rows))
        if case == "bom":
            body = "\ufeff" + _text(header, rows)
        else:
            body = _text(header, rows[:1], "\r\n") + "\r\n  \r\n" + _text(None, rows[1:], "\r\n")
        path.write_bytes(body.encode("utf-8"))
        assert _plain(read(path)) == _plain(read(plain))
        return
    if case == "ragged":
        rows = [rows[0], rows[1] + ["9"]]
    elif case == "bad_token":
        rows = [rows[0], list(rows[1])]
        rows[1][numeric] = "oops"
    elif case == "wrong_header":
        header = "wrong,header"
    path.write_text("" if case == "empty" else _text(header, rows))
    with pytest.raises(ParseError) as info:
        read(path)
    prefix = f"{path}:{lineno}:" if lineno is not None else f"{path}: "
    assert str(info.value).startswith(prefix)


def _with_bom(path):
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())


def test_json_readers_skip_bom(tmp_path):
    report = BenchReport(30, 64, 0.05, 10, 5, 1e-6, 1e-7, 1e-3, 1e-4)
    write_bench_report(tmp_path / "bench.json", report)
    _with_bom(tmp_path / "bench.json")
    assert read_bench_report(tmp_path / "bench.json") == report

    model = pga([sqrt_transform(kde(PersistenceDiagram(1, np.array([p])), 0.1, 8))
                 for p in ([0.2, 0.5], [0.3, 0.6])], 1)
    save_pga_model(model, tmp_path / "model", {"sigma": 0.05})
    _with_bom(tmp_path / "model" / "manifest.json")
    loaded, manifest = load_pga_model(tmp_path / "model")
    assert manifest["sigma"] == 0.05
    assert np.array_equal(loaded.variances, model.variances)
    assert np.array_equal(loaded.components[0].values, model.components[0].values)
