"""Report how far the outputs of two wavetrend runs are apart.

    python scripts/compare_outputs.py DIR_A DIR_B

For every file present in both directories it prints "identical" when the
bytes match.  Otherwise a CSV gets the max-norm relative difference
max|B - A| / max|A| over all cells, and one figure per column if it has a
header row; empty and non-finite cells must sit in the same places, else
that is reported instead of a figure.  Any other file (metadata.json)
gets "bytes differ".  A file only one directory holds is reported as
"only in A" or "only in B".
"""

import argparse
import csv
from pathlib import Path

import numpy as np


def _is_number(cell: str) -> bool:
    try:
        float(cell or "nan")
    except ValueError:
        return False
    return True


def read_table(path: Path) -> tuple[list[str] | None, np.ndarray]:
    """(header or None, cells as floats with empty cells NaN)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = None
    if rows and not all(_is_number(c) for c in rows[0]):
        header, rows = rows[0], rows[1:]
    return header, np.array([[float(c) if c else np.nan for c in r] for r in rows])


def relative_difference(a: np.ndarray, b: np.ndarray) -> str:
    if a.shape != b.shape:
        return f"shape {a.shape} against {b.shape}"
    finite = np.isfinite(a)
    if not np.array_equal(finite, np.isfinite(b)):
        return "empty or non-finite cells differ"
    if np.array_equal(a[finite], b[finite]):
        return "identical"
    scale = np.max(np.abs(a[finite]))
    return f"{np.max(np.abs(a[finite] - b[finite])) / scale:.3g}"


def _files(d: Path) -> set[str]:
    return {p.name for p in d.glob("*") if p.is_file()}


def compare(dir_a: Path, dir_b: Path) -> list[str]:
    names_a, names_b = _files(dir_a), _files(dir_b)
    lines = []
    for name in sorted(names_a | names_b):
        path_a, path_b = dir_a / name, dir_b / name
        if name not in names_b:
            lines.append(f"{name}: only in A")
        elif name not in names_a:
            lines.append(f"{name}: only in B")
        elif path_a.read_bytes() == path_b.read_bytes():
            lines.append(f"{name}: identical")
        elif path_a.suffix != ".csv":
            lines.append(f"{name}: bytes differ")
        else:
            header, a = read_table(path_a)
            _, b = read_table(path_b)
            line = f"{name}: {relative_difference(a, b)}"
            if header is not None and a.shape == b.shape:
                line += "".join(
                    f"  {col}: {relative_difference(a[:, i], b[:, i])}"
                    for i, col in enumerate(header)
                )
            lines.append(line)
    return lines


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir_a", type=Path)
    parser.add_argument("dir_b", type=Path)
    args = parser.parse_args(argv)
    print("\n".join(compare(args.dir_a, args.dir_b)))


if __name__ == "__main__":
    main()
