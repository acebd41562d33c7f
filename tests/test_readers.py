"""One contract for every CSV reader: blank lines, CRLF and a leading byte-order
mark parse, and a ragged row, a bad number, a wrong header or an empty file
raise ParseError naming the file (and the line, for a row error)."""

import numpy as np
import pytest

from persphere import cli
from persphere.analysis import DistanceMatrix, read_matrix
from persphere.density import read_grid
from persphere.embedding import read_cloud, read_series
from persphere.errors import ParseError
from persphere.persistence import PersistenceDiagram, read_diagrams

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
    ("read_manifest_csv", cli._read_manifest_csv, "path,label",
     [["a.csv", "one"], ["b.csv", "two"]], None),
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
