"""scripts/compare_outputs.py, loaded by path: the lines it reports for two output directories."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_names_files_only_one_side_holds(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    for d in (a, b):
        (d / "spectrum.csv").write_text("1,2\n3,4\n")
    (a / "metadata.json").write_text("{}\n")
    (b / "metadata.json").write_text('{"n": 1}\n')
    (a / "lacv.csv").write_text("1\n")
    (b / "trend.csv").write_text("t,estimate,lo,hi\n0,1,,\n")
    assert load_script().compare(a, b) == [
        "lacv.csv: only in A",
        "metadata.json: bytes differ",
        "spectrum.csv: identical",
        "trend.csv: only in B",
    ]


def test_compare_with_a_missing_directory(tmp_path):
    (tmp_path / "b").mkdir()
    (tmp_path / "b" / "spectrum.csv").write_text("1\n")
    assert load_script().compare(tmp_path / "a", tmp_path / "b") == ["spectrum.csv: only in B"]


def test_equal_values_in_other_bytes_are_a_difference(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    b.mkdir()
    (a / "lacv.csv").write_text("0.5,1\n")
    (b / "lacv.csv").write_text("5e-1,1\n")
    (a / "trend.csv").write_text("t,estimate,lo,hi\n0,1,,\n")
    (b / "trend.csv").write_text("t,estimate,lo,hi\n0,1.5,,\n")
    assert load_script().compare(a, b) == [
        "lacv.csv: values equal, bytes differ",
        "trend.csv: 0.5  t: identical  estimate: 0.5  lo: identical  hi: identical",
    ]
