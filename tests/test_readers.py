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


def _read_csv_by_lines(path, header=None, text=0, inf_column=None, empty_ok=False):
    """`read_csv`'s contract, read a line at a time: the reference its
    whole-body parse must match, Table for Table and message for message."""
    linenos, texts, rows = [], [], []
    width = fields = None
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            if header is not None:
                line = fh.readline().strip()
                prefix = header[:-3] if header.endswith(",...") else None
                if line != header and not (prefix and line.startswith(prefix)):
                    raise ParseError(f"{path}: expected header {header!r}, got {line!r}")
                fields = line.split(",")
                width = len(fields)
            for lineno, line in enumerate(fh, start=2 if header is not None else 1):
                line = line.strip()
                if not line:
                    continue
                row = line.split(",")
                if width is None:
                    width = len(row)
                elif len(row) != width:
                    raise ParseError(f"{path}:{lineno}: expected {width} columns, got {len(row)}")
                try:
                    rows.append([float(f) for f in row[text:]])
                except ValueError as exc:
                    raise ParseError(f"{path}:{lineno}: {exc}") from None
                linenos.append(lineno)
                texts.append(row[:text])
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None
    if not rows and not empty_ok:
        raise ParseError(f"{path}: no data rows")
    values = np.asarray(rows, dtype=float).reshape(len(rows), width - text)
    bad = ~np.isfinite(values)
    if inf_column is not None:
        bad[:, inf_column - text] &= values[:, inf_column - text] != np.inf
    if bad.any():
        r = int(np.argmax(bad.any(axis=1)))
        raise ParseError(f"{path}:{linenos[r]}: non-finite value {values[r][bad[r]][0]}")
    return (fields, linenos, texts, values.shape, values.tobytes())


TOKENS = ["1_0", " 2 ", "+inf", "1e400", "nan", "infinity", "-0", "0x1p3", "", "\x0c3"]
DIAGRAM = ("dim,birth,death", 1, 2)  # header, text columns, inf column


def _reader_corpus():
    """(name, body, read_csv options): every token in and out of the diagram
    format's inf column and in a headerless file, line breaks that file
    iteration does or does not split on, and files with two faults."""
    diagram = {"header": DIAGRAM[0], "text": DIAGRAM[1], "inf_column": DIAGRAM[2],
               "empty_ok": True}
    for k, token in enumerate(TOKENS):
        yield f"birth-{k}", f"dim,birth,death\n0,0,1\n1,{token},9\n", diagram
        yield f"death-{k}", f"dim,birth,death\n0,0,1\n1,0.5,{token}\n", diagram
        yield f"plain-{k}", f"1,2\n{token},4\n", {}
    breaks = {
        "lone_cr": "1,2\r3,4\n5,6\n",
        "formfeed_inside": "1,\x0c2\n3\x0c,4\n\x0c\n5,6\n",
        "crlf": "1,2\r\n\r\n3,4\r\n",
        "line_separator": "1,2\u20283,4\n5,6\n",
        "next_line": "1,2\x853\n4,5\n",
        "no_final_newline": "1,2\n3,4",
        "bom_blank_lines": "\ufeff\n\n1,2\n\n",
    }
    for name, body in breaks.items():
        yield name, body, {}
        yield f"diagram-{name}", "dim,birth,death\n" + body.replace("1,2", "0,0,1"), diagram
    yield "bad_number_then_ragged", "1,2\n3,x\n5,6,7\n", {}
    yield "ragged_then_bad_number", "1,2\n3,4,5\nx,6\n", {}
    yield "bad_number_then_non_finite", "1,2\nnan,4\n5,y\n", {}
    yield "wrong_header", "dim,birth\n0,0,1\n", diagram
    yield "header_prefix", "name,a,b\nx,1,2\ny,3,4\n", {"header": "name,...", "text": 1}
    yield "empty", "", {}
    yield "header_only", "dim,birth,death\n", diagram


@pytest.mark.parametrize("name, body, options", _reader_corpus(),
                         ids=[c[0] for c in _reader_corpus()])
def test_read_csv_matches_a_line_at_a_time_reader(tmp_path, name, body, options):
    path = tmp_path / "in.csv"
    path.write_bytes(body.encode("utf-8"))
    try:
        expected = _read_csv_by_lines(path, **options)
    except ParseError as exc:
        with pytest.raises(ParseError) as info:
            read_csv(path, **options)
        assert str(info.value) == str(exc)
        return
    got = read_csv(path, **options)
    assert (got.header, got.linenos, got.text, got.values.shape, got.values.tobytes()) == expected


def test_read_csv_reports_an_early_row_fault_before_late_bad_utf8(tmp_path):
    # A file read a line at a time meets a ragged row before it decodes the
    # bytes far past it; reading the whole body decodes them first, so the
    # one-pass parse must give way to the line-at-a-time read.
    for early in ("1,2\n3\n", "1,2\n3,x\n", ""):
        path = tmp_path / "in.csv"
        path.write_bytes(early.encode() + b"5,6\n" * 20000 + b"\xff,1\n")
        with pytest.raises(ParseError) as info:
            _read_csv_by_lines(path)
        with pytest.raises(ParseError) as got:
            read_csv(path)
        assert str(got.value) == str(info.value)
