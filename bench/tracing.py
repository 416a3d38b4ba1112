"""In-memory span tracer that wraps the public functions of each wavetrend layer.

A layer is a module of the package.  Each traced function is replaced at
every binding in the ``wavetrend.*`` module namespaces (for example both
``wavetrend.transforms.ndwt_forward`` and ``wavetrend.trend.ndwt_forward``),
so calls made between modules are seen too.  Nothing under ``src/`` changes.

A span is (op, name, start, end, parent).  The program is single threaded,
so child spans nest inside their parent and never overlap each other; a
span's self time is its duration minus the summed durations of its direct
children.

A function that a later version removes or renames is simply not wrapped:
its metrics read zero calls and zero seconds.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import sys
from collections import defaultdict
from time import perf_counter

# Root span names opened by the benchmark itself around one op.
CLI_ROOT = "cli.main"
LIB_ROOT = "bench.lib_analyze"


_signature = functools.cache(inspect.signature)  # one entry per traced function


def _bound(fn, args, kwargs):
    return _signature(fn).bind(*args, **kwargs).arguments


# ------------------------------------------------------------- counters
# Each counter gets (tracer, fn, args, kwargs, result) and adds exact
# work counts computed from the call's sizes, never from timings.

def _ndwt_madds(tr, fn, args, kwargs, pyr):
    # every level correlates a length-n row with both L-tap filters:
    # 2 * L * n multiply-adds per level
    tr.add("transforms.madds_computed", 2 * pyr.filter.length * pyr.length * pyr.levels)


def _ndwt_inverse_madds(tr, fn, args, kwargs, result):
    pyr = _bound(fn, args, kwargs)["pyr"]
    tr.add("transforms.madds_computed", 2 * pyr.filter.length * pyr.length * pyr.levels)


def _dwt_rows(n, levels):
    # row length at level j is n / 2**(j - 1): the input of the analysis
    # step, the output of the synthesis step
    return sum(n >> (j - 1) for j in range(1, levels + 1))


def _dwt_forward_madds(tr, fn, args, kwargs, pyr):
    # 2 * L * (row length) per level
    tr.add("transforms.madds_computed", 2 * pyr.filter.length * _dwt_rows(pyr.length, pyr.levels))


def _dwt_inverse_madds(tr, fn, args, kwargs, result):
    pyr = _bound(fn, args, kwargs)["pyr"]
    tr.add("transforms.madds_computed", 2 * pyr.filter.length * _dwt_rows(pyr.length, pyr.levels))


def _acw_key(tr, fn, args, kwargs, acw):
    tr.seen("wavelets.acw", (acw.filter.label, acw.levels))


def _cross_a_key(tr, fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    key = (a["acw_generating"].filter.label, a["acw_analysis"].filter.label, a["max_scale"])
    tr.seen("wavelets.cross_a", key)


def _smooth_madds(tr, fn, args, kwargs, pgram):
    # levels * n * binwidth: one binwidth-long window per output point;
    # the unsmoothed "none" kind does no windowed work
    sm = pgram.smoother
    if sm is not None and sm.kind != "none":
        levels, n = pgram.raw.shape
        tr.add("spectrum.smooth_madds_computed", levels * n * sm.binwidth)


# (span name, module, function, counter or None)
TARGETS = (
    ("transforms.ndwt_forward", "transforms", "ndwt_forward", _ndwt_madds),
    ("transforms.ndwt_inverse", "transforms", "ndwt_average_basis", _ndwt_inverse_madds),
    ("transforms.dwt_forward", "transforms", "dwt_forward", _dwt_forward_madds),
    ("transforms.dwt_inverse", "transforms", "dwt_inverse", _dwt_inverse_madds),
    ("transforms.extend", "transforms", "extend_series", None),
    ("simulate.tlsw_sim", "simulate", "tlsw_sim", None),
    ("wavelets.acw", "wavelets", "autocorrelation_wavelets", _acw_key),
    ("wavelets.cross_a", "wavelets", "cross_a_matrix", _cross_a_key),
    ("wavelets.correction", "wavelets", "a_matrix", None),
    ("wavelets.correction", "wavelets", "d_matrix", None),
    ("wavelets.difference", "wavelets", "difference_series", None),
    ("trend.estimate", "trend", "estimate_trend", None),
    ("trend.linear", "trend", "linear_trend", None),
    ("trend.nonlinear", "trend", "nonlinear_trend", None),
    ("trend.variance_matrix", "trend", "variance_matrix", None),
    ("trend.bootstrap", "trend", "bootstrap_ci", None),
    ("trend.analytic", "trend", "analytic_ci", None),
    ("spectrum.estimate", "spectrum", "estimate_spectrum", None),
    ("spectrum.periodogram", "spectrum", "wavelet_periodogram", None),
    ("spectrum.smooth", "spectrum", "smooth_periodogram", _smooth_madds),
    ("spectrum.correct", "spectrum", "correct_periodogram", None),
    ("lacv.lacv", "lacv", "lacv_from_spectrum", None),
    ("cli.read", "cli", "read_series", None),
)

LAYERS = ("transforms", "simulate", "wavelets", "trend", "spectrum", "lacv")


class Tracer:
    """Wraps the traced functions while installed and records spans of one op at a time."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._op = -1
        self._counts: dict[str, float] = defaultdict(float)
        self._keys: dict[str, set] = defaultdict(set)
        self._repeats: dict[str, int] = defaultdict(int)
        self._patched: list = []

    # ---- patching
    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "wavetrend" or name.startswith("wavetrend."))]
        for span, modname, fname, counter in TARGETS:
            try:
                orig = getattr(importlib.import_module("wavetrend." + modname), fname)
            except (ImportError, AttributeError):
                continue
            wrapper = self._wrap(span, orig, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                try:
                    counter(self, fn, args, kwargs, result)
                except (AttributeError, KeyError, TypeError, ValueError):
                    pass  # a changed signature or result type drops the count, not the op
            return result
        return traced

    # ---- recording
    def begin_op(self, op: int) -> None:
        self._op = op
        self._keys.clear()

    def span(self, name: str):
        return _Span(self, name)

    def add(self, counter: str, amount: float) -> None:
        self._counts[(self._op, counter)] += amount

    def seen(self, name: str, key) -> None:
        if key in self._keys[name]:
            self._repeats[(self._op, name)] += 1
        self._keys[name].add(key)

    # ---- reporting
    def op_metrics(self, op: int) -> dict[str, float]:
        """Per-layer metrics of one op, from its spans and counters."""
        spans = [s for s in self.spans if s[0] == op]
        index = {s[5]: s for s in spans}
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s[4] >= 0:
                child_time[s[4]] += s[3] - s[2]
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for s in spans:
            _, name, t0, t1, parent, idx = s
            calls[name] += 1
            self_s[name] += (t1 - t0) - child_time[idx]
            # inclusive time counts only the outermost span of a name, so a
            # traced function calling another of the same name is not counted twice
            p = parent
            while p >= 0 and index[p][1] != name:
                p = index[p][4]
            if p < 0:
                incl[name] += t1 - t0

        m: dict[str, float] = {}
        for fn in ("ndwt_forward", "ndwt_inverse", "dwt_forward", "dwt_inverse"):
            m[f"transforms.{fn}.calls"] = calls[f"transforms.{fn}"]
            m[f"transforms.{fn}.s"] = incl[f"transforms.{fn}"]
        m["transforms.madds_computed"] = self._counts[(op, "transforms.madds_computed")]
        m["simulate.tlsw_sim.calls"] = calls["simulate.tlsw_sim"]
        m["simulate.tlsw_sim.s"] = incl["simulate.tlsw_sim"]
        for short in ("acw", "cross_a"):
            name = f"wavelets.{short}"
            m[f"{name}.calls"] = calls[name]
            m[f"{name}.s"] = incl[name]
            m[f"{name}.repeat_frac"] = self._repeats[(op, name)] / calls[name] if calls[name] else 0.0
        m["wavelets.correction.s"] = incl["wavelets.correction"]
        m["trend.estimate.calls"] = calls["trend.estimate"]
        for short in ("linear", "nonlinear", "variance_matrix"):
            m[f"trend.{short}.s"] = incl[f"trend.{short}"]
        m["trend.bootstrap.self_s"] = self_s["trend.bootstrap"]
        m["trend.analytic.self_s"] = self_s["trend.analytic"]
        for short in ("periodogram", "smooth", "correct"):
            m[f"spectrum.{short}.s"] = incl[f"spectrum.{short}"]
        m["spectrum.smooth_madds_computed"] = self._counts[(op, "spectrum.smooth_madds_computed")]
        m["lacv.s"] = incl["lacv.lacv"]
        m["cli.read_s"] = incl["cli.read"]
        # analyze time outside every traced span below it: argument parsing,
        # CSV formatting and file writes
        m["cli.self_s"] = self_s[CLI_ROOT]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        return m

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, t0, t1, parent, idx in self.spans:
                fh.write(json.dumps({"op": op, "id": idx, "name": name, "start": t0,
                                     "end": t1, "parent": parent}) + "\n")


class _Span:
    __slots__ = ("tr", "name", "idx", "parent", "t0")

    def __init__(self, tr: Tracer, name: str):
        self.tr = tr
        self.name = name

    def __enter__(self):
        tr = self.tr
        self.parent = tr._stack[-1] if tr._stack else -1
        self.idx = len(tr.spans)
        tr.spans.append(None)
        tr._stack.append(self.idx)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = perf_counter()
        tr = self.tr
        tr._stack.pop()
        tr.spans[self.idx] = (tr._op, self.name, self.t0, t1, self.parent, self.idx)
        return False


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    """Median over ops of each per-op metric."""
    return {k: float(statistics.median(d[k] for d in per_op)) for k in per_op[0]}

