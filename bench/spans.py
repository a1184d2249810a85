"""Tracing from outside the program: wrap public functions where wigpath looks
them up, record one span per call, and turn the spans into layer metrics.

``from x import f`` binds ``f`` into the importing module, so a function is
wrapped at every place a caller resolves it (``wigpath.cli.wigner_quadrature``
and ``wigpath.checks.wigner_quadrature`` are two places of one layer).  The
check suites are reached through the ``wigpath.checks.SUITES`` table, and
``FamilyParams`` through the ``__post_init__`` its generated ``__init__``
calls.  A place whose name no longer exists is skipped; a layer none of whose
places exist is reported as absent rather than as zero.

Spans are kept in memory and written out once, after the timed phase.  The
tracer is single-threaded: every workload runs with ``--workers 1``.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import sys
import time
from collections import defaultdict


def _rows(args, kwargs, result):
    return {"rows": len(args[0])}


def _mc(args, kwargs, result):
    spec = args[2] if len(args) > 2 else kwargs.get("spec")
    out = {"samples": getattr(spec, "samples", None)}
    for key, attr in (
        ("phase", "mean_phase_magnitude"),
        ("ess", "effective_sample_size"),
        ("se", "standard_error"),
    ):
        out[key] = getattr(result, attr, None)
    return out


def _quad_config(args, kwargs, result):
    params = args[1] if len(args) > 1 else kwargs.get("params")
    spec = args[2] if len(args) > 2 else kwargs.get("spec")
    return {"config": [params.L, params.N, getattr(spec, "points_per_dim", None)]}


def _attrs(hook, args, kwargs, result):
    # a changed signature or result type loses the attributes, not the span
    if hook is None:
        return None
    try:
        return hook(args, kwargs, result)
    except (AttributeError, IndexError, KeyError, TypeError):
        return None


def _places(module_names, path):
    return tuple((module, path) for module in module_names)


CALLS_S = ("calls", "s")

# layer -> (lookup places as (module, dotted path), reported span metrics,
# attribute hook).  A dotted path step into a dict selects the entry by key.
# The derived metrics follow in layer_metrics.
LAYERS = {
    "special.laguerre_all": (_places(["wigpath.states"], "laguerre_all"), CALLS_S, None),
    "special.log_bessel_i0": (
        _places(["wigpath.states", "wigpath.special"], "log_bessel_i0"), CALLS_S, None
    ),
    **{
        f"states.{name}": (_places(["wigpath.cli", "wigpath.checks"], name), CALLS_S, None)
        for name in ("wigner_number", "wigner_poisson", "wigner_spectral")
    },
    "states.FamilyParams": (
        _places(["wigpath.states"], "FamilyParams.__post_init__"), CALLS_S, None
    ),
    "saddle.wigner_saddle": (_places(["wigpath.cli"], "wigner_saddle"), CALLS_S, None),
    "action.circle_actions_batch": (
        _places(["wigpath.integrate"], "circle_actions_batch"), ("calls", "rows", "s"), _rows
    ),
    "integrate.wigner_montecarlo": (
        _places(["wigpath.cli", "wigpath.checks"], "wigner_montecarlo"),
        ("calls", "s", "self_s"),
        _mc,
    ),
    "integrate.wigner_quadrature": (
        _places(["wigpath.cli", "wigpath.checks"], "wigner_quadrature"), CALLS_S, _quad_config
    ),
    "integrate.midpoint_histogram": (
        _places(["wigpath.integrate"], "midpoint_histogram"), ("s", "self_s"), None
    ),
    "integrate.smoothed_wigner_from_histogram": (
        _places(["wigpath.integrate"], "smoothed_wigner_from_histogram"), ("s",), None
    ),
    **{
        f"checks.check_{suite}": (_places(["wigpath.checks"], f"SUITES.{suite}"), ("s",), None)
        for suite in ("oracle", "normalization", "determinant")
    },
    "checks.radial_normalization": (
        _places(["wigpath.checks"], "radial_normalization"), CALLS_S, None
    ),
    "cli.main": (_places(["wigpath.cli"], "main"), ("calls", "s", "self_s"), None),
}


def _lookup(module, path: str):
    """(owner, key) of a lookup place in a module, or None when the name is gone."""
    *steps, key = path.split(".")
    owner = module
    try:
        for step in steps:
            owner = owner[step] if isinstance(owner, dict) else getattr(owner, step)
    except (AttributeError, KeyError):
        return None
    present = key in owner if isinstance(owner, dict) else hasattr(owner, key)
    return (owner, key) if present else None


def _exists(module_name: str, path: str) -> bool:
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return False
    return _lookup(module, path) is not None


def absent_layers() -> set[str]:
    """Layers none of whose lookup places exist in the importable program."""
    return {
        layer
        for layer, (places, _, _) in LAYERS.items()
        if not any(_exists(m, p) for m, p in places)
    }


class Tracer:
    """In-memory span recorder; spans are (id, parent, name, start, end, attrs)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._ids = itertools.count()

    def wrap(self, func, name: str, hook=None):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            result = None
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                self._stack.pop()
                attrs = _attrs(hook, args, kwargs, result)
                self.spans.append((span_id, parent, name, start, end, attrs))

        return traced

    def install(self) -> None:
        """Wrap every existing lookup place of every layer.

        Only modules the process has already imported are touched, so tracing
        never adds an import to a workload.
        """
        for layer, (places, _, hook) in LAYERS.items():
            for module_name, path in places:
                module = sys.modules.get(module_name)
                found = module and _lookup(module, path)
                if not found:
                    continue
                owner, key = found
                if isinstance(owner, dict):
                    owner[key] = self.wrap(owner[key], layer, hook)
                else:
                    setattr(owner, key, self.wrap(getattr(owner, key), layer, hook))

    def dump(self) -> dict:
        return {"run_id": self.run_id, "spans": self.spans}


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for span_id, parent, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: (end - start) - covered_length(children[span_id], start, end)
        for span_id, _, _, start, end, _ in spans
    }


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def layer_metrics(spans, absent: set[str] = frozenset()) -> dict[str, float]:
    """Per-layer metrics of one traced process.

    A layer present in the program but not entered reports zero calls and
    zero time; ratios over no work report 0.  Metrics of absent layers are
    left out.
    """
    selfs = self_times(spans)
    by_layer = defaultdict(list)
    for span in spans:
        by_layer[span[2]].append(span)

    out: dict[str, float] = {}
    for layer, (_, kinds, _) in LAYERS.items():
        if layer in absent:
            continue
        mine = by_layer.get(layer, [])
        values = {
            "calls": len(mine),
            "s": sum(sp[4] - sp[3] for sp in mine),
            "self_s": sum(selfs[sp[0]] for sp in mine),
            "rows": sum((sp[5] or {}).get("rows", 0) for sp in mine),
        }
        for kind in kinds:
            out[f"{layer}.{kind}"] = values[kind]

    if "action.circle_actions_batch" not in absent:
        rows = out["action.circle_actions_batch.rows"]
        busy = out["action.circle_actions_batch.s"]
        out["action.ns_per_path"] = 1e9 * busy / rows if rows else 0.0

    if "integrate.wigner_montecarlo" not in absent:
        calls = [sp[5] for sp in by_layer.get("integrate.wigner_montecarlo", []) if sp[5]]
        samples = sum(c["samples"] or 0 for c in calls)
        busy = out["integrate.wigner_montecarlo.s"]
        out["integrate.mc.samples_per_s"] = samples / busy if busy else 0.0
        out["integrate.mc.mean_phase"] = _mean(
            [c["phase"] for c in calls if c["phase"] is not None]
        )
        out["integrate.mc.ess_frac"] = _mean(
            [c["ess"] / c["samples"] for c in calls if c["ess"] is not None and c["samples"]]
        )
        out["integrate.mc.se2_mean"] = _mean([c["se"] ** 2 for c in calls if c["se"] is not None])

    if "integrate.wigner_quadrature" not in absent:
        first: dict[tuple, float] = {}
        later: list[float] = []
        for sp in sorted(by_layer.get("integrate.wigner_quadrature", []), key=lambda sp: sp[3]):
            key = tuple(sp[5]["config"]) if sp[5] else None
            if key in first:
                later.append(sp[4] - sp[3])
            else:
                first[key] = sp[4] - sp[3]
        out["integrate.quadrature.first_call_s"] = _mean(list(first.values()))
        out["integrate.quadrature.steady_us"] = 1e6 * statistics.median(later) if later else 0.0
    return out


_UNITS = {
    "action.ns_per_path": "ns",
    "integrate.mc.samples_per_s": "1/s",
    "integrate.mc.mean_phase": "1",
    "integrate.mc.ess_frac": "1",
    "integrate.mc.se2_mean": "1",
    "integrate.quadrature.steady_us": "us",
    "cli.bytes_written": "B",
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric: counts for calls and rows, else seconds."""
    if metric in _UNITS:
        return _UNITS[metric]
    return "count" if metric.endswith((".calls", ".rows")) else "s"
