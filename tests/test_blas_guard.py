"""No new BLAS route in the package source.

A product that goes through BLAS splits long sums across threads, so its
last bits change with the thread count (tests/test_threads.py checks the
CLI outputs).  This test parses every module of the package and fails on
``@``, ``np.dot``, ``np.matmul``, ``np.inner``, ``np.tensordot``,
``np.vdot``, any ``np.linalg`` name, an ``np.einsum`` called with
``optimize``, and ``np.convolve`` or ``np.correlate``, unless ALLOWED names
the (module, function) it sits in.  An ALLOWED entry that matches nothing
fails too, so the list shrinks with the code.
"""

import ast
from pathlib import Path

import wavetrend

SOURCE = Path(wavetrend.__file__).parent

BANNED = {f"np.{name}" for name in ("dot", "matmul", "inner", "tensordot", "vdot",
                                     "convolve", "correlate")}

# (module, enclosing function): why its BLAS-like call stays
ALLOWED = {
    ("wavelets", "_invert"): "np.linalg.cond and np.linalg.inv of a J x J matrix",
    ("wavelets", "_cascade"): "np.convolve with a filter-length kernel",
    ("wavelets", "autocorrelation_wavelets"): "np.convolve of the filter with itself",
}


def _dotted(node: ast.AST) -> str:
    """'np.linalg.inv' for that attribute chain, '' for anything else."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    return ".".join([node.id, *reversed(parts)]) if isinstance(node, ast.Name) else ""


class _Finder(ast.NodeVisitor):
    def __init__(self, module: str):
        self.module, self.scope, self.found = module, ["<module>"], []

    def _add(self, node: ast.AST, what: str) -> None:
        self.found.append((self.module, self.scope[-1], node.lineno, what))

    def _function(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = _function

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if isinstance(node.op, ast.MatMult):
            self._add(node, "@")
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if isinstance(node.op, ast.MatMult):
            self._add(node, "@=")
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        name = _dotted(node)
        if name in BANNED or name.startswith("np.linalg."):
            self._add(node, name)
            return  # np.linalg.inv is one finding, not two
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if _dotted(node.func) == "np.einsum" and any(k.arg == "optimize" for k in node.keywords):
            self._add(node, "np.einsum(optimize=...)")
        self.generic_visit(node)


def find_blas(source: str, module: str) -> list[tuple[str, str, int, str]]:
    """(module, function, line, what) for every BLAS-like use in source."""
    finder = _Finder(module)
    finder.visit(ast.parse(source))
    return finder.found


def test_finder_sees_every_banned_form():
    source = (
        "def f(a, b):\n"
        "    a @= b\n"
        "    return a @ b, np.dot(a, b), np.linalg.norm(a), np.einsum('i,i', a, b, optimize=1)\n"
        "g = np.correlate\n"
        "h = np.einsum('i,i', g, g)\n"
    )
    assert [hit[1:] for hit in find_blas(source, "m")] == [
        ("f", 2, "@="), ("f", 3, "@"), ("f", 3, "np.dot"), ("f", 3, "np.linalg.norm"),
        ("f", 3, "np.einsum(optimize=...)"), ("<module>", 4, "np.correlate"),
    ]


def test_no_blas_outside_the_allowlist():
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    found = [hit for path in modules for hit in find_blas(path.read_text(), path.stem)]
    stray = [hit for hit in found if hit[:2] not in ALLOWED]
    assert not stray, f"BLAS-like calls outside the allowlist: {stray}"
    stale = set(ALLOWED) - {hit[:2] for hit in found}
    assert not stale, f"allowlist entries that match nothing: {sorted(stale)}"
