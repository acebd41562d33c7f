"""Every writer's exact bytes, the write_csv -> read_csv round trip, and the
errors of the one CSV writer and the one JSON reader."""

import numpy as np
import pytest

from persphere import errors
from persphere.analysis import DistanceMatrix, write_matrix
from persphere.density import SqrtDensity, write_grid
from persphere.embedding import write_cloud
from persphere.errors import ParseError, read_csv
from persphere.persistence import PersistenceDiagram, write_diagrams
from persphere.sphere import PgaModel, load_pga_model, save_pga_model


def test_grid_cloud_matrix_diagram_bytes(tmp_path):
    path = tmp_path / "out.csv"
    write_grid(path, [[0.25, -0.0], [5e-324, 0.1]])
    assert path.read_bytes() == b"0.25,-0\n4.9406564584124654e-324,0.10000000000000001\n"
    write_cloud(path, [[1.5, -2.0], [3.0, 1 / 3]])
    assert path.read_bytes() == b"1.5,-2\n3,0.33333333333333331\n"
    write_matrix(path, DistanceMatrix(["a", "b"], np.array([[0.0, 0.5], [0.5, 0.0]]), "w1"))
    assert path.read_bytes() == b",a,b\na,0,0.5\nb,0.5,0\n"
    write_diagrams(path, [PersistenceDiagram(0, [[0.0, 0.5]], [0.0]),
                          PersistenceDiagram(1, [[0.1, 0.3]])])
    assert path.read_bytes() == (
        b"dim,birth,death\n0,0,0.5\n0,0,inf\n1,0.10000000000000001,0.29999999999999999\n"
    )
    write_diagrams(path, [PersistenceDiagram(1, np.empty((0, 2)))])
    assert path.read_bytes() == b"dim,birth,death\n"


def test_pga_model_manifest_bytes(tmp_path):
    mean = SqrtDensity(grid=np.ones((2, 2)))
    model = PgaModel(mean=mean, components=[[[1.0, -1.0], [-1.0, 1.0]]], variances=[0.25])
    save_pga_model(model, tmp_path, metadata={"scale": 0.5})
    assert (tmp_path / "manifest.json").read_bytes() == (
        b'{\n  "grid_size": 2,\n  "n_components": 1,\n  "scale": 0.5,\n'
        b'  "variances": [\n    0.25\n  ]\n}\n'
    )
    assert (tmp_path / "mean.csv").read_bytes() == b"1,1\n1,1\n"
    assert (tmp_path / "component_000.csv").read_bytes() == b"1,-1\n-1,1\n"


def test_write_csv_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    values = rng.standard_normal((20, 4)) * 10.0 ** rng.integers(-320, 307, (20, 4))
    values[0, :3] = [5e-324, 1e308, -0.0]
    values[1, :3] = [2.2250738585072009e-308, -1e-310, 0.0]
    values[::3, 3] = np.inf
    header = ["name", "a", "b", "c", "d"]
    text = [[f"r{i}"] for i in range(20)]
    path = tmp_path / "t.csv"
    errors.write_csv(path, values, header, text)
    table = read_csv(path, ",".join(header), text=1, inf_column=4)
    assert table.header == header
    assert table.text == text
    assert table.values.tobytes() == values.tobytes()


@pytest.mark.parametrize("cell", ["a,b", "a\nb", "a\rb"])
@pytest.mark.parametrize("where", ["header", "text"])
def test_write_csv_rejects_separators_in_text(tmp_path, cell, where):
    path = tmp_path / "t.csv"
    header = ["name", cell if where == "header" else "x"]
    text = [["ok"], [cell if where == "text" else "ok2"]]
    with pytest.raises(ValueError, match="comma or line break"):
        errors.write_csv(path, np.zeros((2, 1)), header, text)
    assert not path.exists()


def test_load_pga_model_truncated_manifest(tmp_path):
    mean = SqrtDensity(grid=np.ones((2, 2)))
    save_pga_model(PgaModel(mean=mean, components=[]), tmp_path)
    manifest = tmp_path / "manifest.json"
    manifest.write_bytes(manifest.read_bytes()[:10])
    with pytest.raises(ParseError, match=f"^{manifest}: invalid JSON: "):
        load_pga_model(tmp_path)


def test_write_csv_names_the_first_cell_with_a_separator(tmp_path):
    path = tmp_path / "t.csv"
    text = [["ok"], ["a\nb"], ["c,d"]]
    message = f"{path}: text cell 'a\\nb' contains a comma or line break"
    with pytest.raises(ValueError) as caught:
        errors.write_csv(path, np.zeros((3, 1)), ["name"], text)
    assert str(caught.value) == message
