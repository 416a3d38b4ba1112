"""The CSV number writer gives the bytes of Python's "%.17g", value by value.

Every case joins "%.17g" % v with "," and ends each line in the suffix and
"\\n", and the writer must match that byte for byte: seeded values over the
whole float64 range, exact and near ties, the values next to the switches
between fixed and exponent notation, values that round up to a power of
ten, and the values the writer hands to Python's formatting.  Widths 1, 98
and 16384 put the boundaries between the writer's chunks between rows and
inside them.
"""

import io
from decimal import Decimal

import numpy as np
import pytest

from wavetrend._csv_writer import write_rows


def written(rows, suffix=b""):
    fh = io.BytesIO()
    write_rows(fh, rows, suffix)
    return fh.getvalue()


def expected(rows, suffix=""):
    rows = np.asarray(rows, dtype=np.float64)
    lines = rows.reshape(rows.shape[0], -1).tolist()
    return "".join(",".join("%.17g" % v for v in line) + suffix + "\n" for line in lines).encode()


def seeded_values(size, seed):
    """Half random bit patterns (every exponent, subnormals, nan and inf
    included), half uniform digits times 10**e for e in -320..308."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2**64, size=size // 2, dtype=np.uint64, endpoint=False)
    mantissa = rng.uniform(1.0, 10.0, size - size // 2) * rng.choice([-1.0, 1.0], size - size // 2)
    with np.errstate(over="ignore"):  # most mantissas overflow to inf at e = 308
        decimal = mantissa * 10.0 ** rng.integers(-320, 309, size - size // 2).astype(np.float64)
    values = np.concatenate([bits.view(np.float64), decimal])
    rng.shuffle(values)
    return values


def exact_ties():
    """Odd multiples of 2**-k whose decimal expansion has 18 significant
    digits ending in 5: an exact tie at 17 digits, rounded half to even."""
    ties = [
        v
        for k in range(1, 80)
        for v in (m * 2.0**-k for m in range(1, 200, 2))
        if len(Decimal(v).as_tuple().digits) == 18 and Decimal(v).as_tuple().digits[-1] == 5
    ]
    assert len(ties) > 100
    return ties


def edge_values():
    powers = [2.0**-k for k in range(25, 61)]
    # no integer double at or above 2**60 is an exact 17-digit tie; these
    # are the doubles nearest to such decimal ties
    near_ties = [float(f"{d}5" + "0" * z) for d in (12345678901234567, 98765432109876543)
                 for z in range(2, 30)]
    switches = [
        x
        for b in (1e-5, 1e-4, 0.1, 1.0, 1e16, 1e17, 1e100, 1e-100, 1e-250, 1e250)
        for x in (np.nextafter(b, 0.0), b, np.nextafter(b, np.inf))
    ]
    # the doubles next to 10**k, many of which print as 10**k itself
    tens = [float(f"1e{k}") for k in range(-323, 309)]
    tens += [np.nextafter(x, 0.0) for x in tens]
    round_up = [float(f"9.9999999999999999{t}e{k}") for k in range(-300, 300) for t in "5678"]
    special = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, np.finfo(float).max,
               -np.finfo(float).max, np.finfo(float).tiny, np.nextafter(1.0, 0.0), 1 / 3, 2 / 3]
    values = np.array(powers + near_ties + switches + tens + round_up + special + exact_ties())
    return np.concatenate([values, -values])


def test_edges_hold_values_that_round_up_to_a_power_of_ten():
    def rounds_up(v):
        text = "%.17g" % v
        digits = text.split("e")[0].replace(".", "").strip("0")
        return digits == "1" and Decimal(v) < Decimal(text)

    assert sum(rounds_up(v) for v in edge_values().tolist() if 0 < v < np.inf) > 10


@pytest.mark.parametrize("width", [1, 98, 16384])
def test_seeded_values_match_percent_17g(width):
    size = 2_000_000 if width == 98 else 200_000
    values = seeded_values(width * -(-size // width), seed=width)
    rows = values.reshape(-1, width)
    assert written(rows) == expected(rows)


@pytest.mark.parametrize("width", [1, 98, 16384])
def test_edge_values_match_percent_17g(width):
    values = edge_values()
    values = np.resize(values, width * -(-values.size // width))
    rows = values.reshape(-1, width)
    assert written(rows) == expected(rows)


def test_vector_suffix_and_empty_input():
    values = np.array([1.5, -0.0, 1e-5, 123456789.0])
    assert written(values) == expected(values[:, None])
    assert written(values.reshape(2, 2), b",,") == expected(values.reshape(2, 2), ",,")
    assert written(np.arange(20000.0)) == "".join(f"{t}\n" for t in range(20000)).encode()
    assert written(np.empty((0, 3))) == b""
