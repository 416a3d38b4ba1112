"""scripts/bench_pairs.py, loaded by path: what it records about a checkout."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_checkout_of_a_tree_without_git(tmp_path):
    (tmp_path / "src").mkdir()
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("")
    assert load_script().checkout(tmp_path) == {"sha": None, "src_tree": None, "dirty": None}
