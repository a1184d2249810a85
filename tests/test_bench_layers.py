"""The benchmark tracer (bench/spans.py) finds the program's traced layers.

A traced benchmark run leaves out the metrics of every layer whose wrapped
names are gone from the program, so renaming or removing one of those names
silently drops per-layer metrics from the result.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np

from wigpath.integrate import MonteCarloSpec, QuadratureSpec, wigner_montecarlo, wigner_quadrature
from wigpath.states import FamilyParams


def bench_spans():
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_and_place_exists():
    spans = bench_spans()
    assert spans.absent_layers() == set()
    missing = [
        (module, path)
        for places, _, _ in spans.LAYERS.values()
        for module, path in places
        if not spans._exists(module, path)
    ]
    assert missing == []


def test_traced_montecarlo_calls_give_finite_mc_metrics():
    # the span hook reads the result's attributes: a scalar call gives floats,
    # and an array call gives a list, whose attributes the hook skips
    spans = bench_spans()
    _, _, hook = spans.LAYERS["integrate.wigner_montecarlo"]
    tracer = spans.Tracer("test")
    traced = tracer.wrap(wigner_montecarlo, "integrate.wigner_montecarlo", hook)
    params, spec = FamilyParams(2, 1.5), MonteCarloSpec(samples=4_000, seed=1)
    traced(0.8 + 0j, params, spec)
    traced(np.array([0.0, 0.8 + 0.3j]), params, spec)
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["integrate.wigner_montecarlo.calls"] == 2
    for name in ("samples_per_s", "mean_phase", "ess_frac", "se2_mean"):
        value = metrics[f"integrate.mc.{name}"]
        assert math.isfinite(value) and value > 0


def test_scalar_quadrature_call_has_a_float_value():
    # bench/outcheck.py reads .value of one-point quadrature calls
    res = wigner_quadrature(0.8 + 0j, FamilyParams(2, 1.5), QuadratureSpec(points_per_dim=64))
    assert type(res.value) is float and math.isfinite(res.value)
