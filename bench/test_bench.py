"""Tests of the benchmark's own arithmetic and output check.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import outcheck  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from wigpath.states import FamilyParams, wigner_spectral  # noqa: E402


def span(span_id, parent, name, start, end, attrs=None):
    return (span_id, parent, name, start, end, attrs)


def test_self_time_subtracts_union_of_children():
    trace = [
        span(0, None, "cli.main", 0.0, 10.0),
        span(1, 0, "integrate.wigner_montecarlo", 1.0, 4.0),
        span(2, 0, "integrate.wigner_montecarlo", 3.0, 6.0),  # overlaps span 1
        span(3, 0, "integrate.wigner_montecarlo", 9.0, 12.0),  # runs past its parent
        span(4, 1, "action.circle_actions_batch", 1.5, 2.0),  # grandchild of 0
    ]
    selfs = spans.self_times(trace)
    assert selfs[0] == pytest.approx(10.0 - (5.0 + 1.0))
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[4] == pytest.approx(0.5)


def test_layer_metrics_from_spans():
    mc = {"samples": 1000, "phase": 0.5, "ess": 100.0, "se": 0.01}
    trace = [
        span(0, None, "integrate.wigner_montecarlo", 0.0, 2.0, mc),
        span(1, 0, "action.circle_actions_batch", 0.0, 1.5, {"rows": 1000}),
        span(2, None, "integrate.wigner_quadrature", 2.0, 2.5, {"config": [3, 10.5, 64]}),
        span(3, None, "integrate.wigner_quadrature", 2.5, 2.6, {"config": [3, 10.5, 64]}),
        span(4, None, "integrate.wigner_quadrature", 2.6, 2.9, {"config": [2, 10.5, 64]}),
    ]
    m = spans.layer_metrics(trace)
    assert m["integrate.wigner_montecarlo.self_s"] == pytest.approx(0.5)
    assert m["action.ns_per_path"] == pytest.approx(1.5e6)
    assert m["integrate.mc.samples_per_s"] == pytest.approx(500.0)
    assert m["integrate.mc.ess_frac"] == pytest.approx(0.1)
    assert m["integrate.mc.se2_mean"] == pytest.approx(1e-4)
    assert m["integrate.quadrature.first_call_s"] == pytest.approx(0.4)
    assert m["integrate.quadrature.steady_us"] == pytest.approx(1e5)
    assert m["cli.main.calls"] == 0


def test_absent_layer_is_left_out():
    m = spans.layer_metrics([], absent={"action.circle_actions_batch"})
    assert not any(key.startswith("action.") for key in m)
    assert m["integrate.wigner_montecarlo.calls"] == 0


def test_benchmark_json_lists_the_reported_per_layer_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = set(spans.layer_metrics([])) | {"cli.bytes_written", "trace_overhead_s"}
    assert {m["name"] for m in bench["per_layer"]} == reported
    assert all(m["unit"] == spans.unit_of(m["name"]) for m in bench["per_layer"])
    assert {m["name"] for m in bench["end_to_end"]} == set(run.UNITS)
    assert {w["name"] for w in bench["workloads"]} == set(wl.WORKLOADS)


def test_mc_cost_from_hand_built_csv(tmp_path):
    csv = tmp_path / "mc.csv"
    csv.write_text(
        "r,W,method,stderr,region\n"
        "0,0.1,mc,0.001,\n"
        "1,0.2,mc,0.003,\n"
    )
    # mean stderr^2 = (1e-6 + 9e-6) / 2 = 5e-6; 2 s * 5e-6 / 1e-6 = 10 s
    assert outcheck.mc_cost_s(2.0, [csv]) == pytest.approx(10.0)
    assert outcheck.mc_cost_s(2.0, [csv, csv]) == pytest.approx(10.0)


def write_quad_outputs(out):
    for L, N, M, rmax in wl.QUAD_CONFIGS:
        rs = np.linspace(0.0, rmax, wl.QUAD_POINTS)
        params = FamilyParams(L, N)
        lines = ["r,W,method,stderr,region"]
        lines += [f"{float(r)!r},{wigner_spectral(complex(r), params)!r},quadrature,," for r in rs]
        (out / wl.quad_file(L)).write_text("\n".join(lines) + "\n")


def perturb(path, row, value):
    lines = path.read_text().splitlines()
    cells = lines[row + 1].split(",")
    cells[1] = value(float(cells[1]))
    lines[row + 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "value, fails",
    [
        (lambda w: repr(w), 0),
        (lambda w: repr(w + 1e-4), 1),
        (lambda w: "nan", 1),
        (lambda w: "", 1),
    ],
    ids=["exact", "perturbed", "nan", "missing"],
)
def test_output_check_flags_bad_values(tmp_path, value, fails):
    write_quad_outputs(tmp_path)
    perturb(tmp_path / wl.quad_file(3), 17, value)
    tally = outcheck.Tally()
    steps = [{"step": wl.quad_file(L), "rc": 0, "error": None} for L, *_ in wl.QUAD_CONFIGS]
    outcheck.check_rep("quad_profile", steps, tmp_path, tmp_path, outcheck.Oracles(), tally)
    assert tally.attempted == len(wl.QUAD_CONFIGS) * wl.QUAD_POINTS
    assert tally.failed == fails


def test_output_check_counts_a_failed_step_and_its_lost_values(tmp_path):
    tally = outcheck.Tally()
    steps = [{"step": "mc", "rc": 2, "error": None}]
    outcheck.check_rep("mc_profile", steps, tmp_path, tmp_path, outcheck.Oracles(), tally)
    assert tally.failed == tally.attempted == 1 + wl.MC_POINTS


def test_mc_check_uses_standard_errors(tmp_path):
    rs = np.linspace(0.0, wl.MC_RMAX, wl.MC_POINTS)
    params = FamilyParams(wl.MC_L, wl.MC_N)
    exact = [wigner_spectral(complex(r), params) for r in rs]
    offsets = [0.0] * wl.MC_POINTS
    offsets[2] = 6e-3  # 6 stderr off
    lines = ["r,W,method,stderr,region"]
    lines += [f"{float(r)!r},{w + d!r},mc,0.001," for r, w, d in zip(rs, exact, offsets)]
    (tmp_path / "mc.csv").write_text("\n".join(lines) + "\n")
    tally = outcheck.Tally()
    outcheck.check_mc(tmp_path, tmp_path, outcheck.Oracles(), tally)
    assert (tally.attempted, tally.failed) == (wl.MC_POINTS, 1)


def test_supported_percentile_needs_ten_samples_beyond():
    assert run.supported_percentile(39) is None
    assert run.supported_percentile(40) == 75
    assert run.supported_percentile(100) == 90
    assert run.supported_percentile(1000) == 99


def test_number_state_reference_matches_closed_form():
    rs = np.array([0.0, 0.5, 1.7])
    ref = outcheck.number_state_reference(1, rs)
    assert ref == pytest.approx((2 / math.pi) * -np.exp(-2 * rs**2) * (1 - 4 * rs**2))
