"""The benchmark's four workloads, as one worker process runs them.

Each workload has a set-up (imports, then the ``FamilyParams`` it evaluates)
and a timed phase of CLI invocations through ``wigpath.cli.main`` or calls
into the public library.  Names are looked up on their module at call time,
so a traced worker reaches the wrapped functions.  Why each workload exists
and what it leaves out is in WORKLOADS.md next to this file.

This module imports no wigpath code at import time: set-up is timed, and the
midpoint workload must not pay for the CLI's scipy import.
"""

from __future__ import annotations

import importlib
import math
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# mc_profile: one MC profile across the interior and the exterior of the circle
MC_L, MC_N = 4, 1.5
MC_SAMPLES = 125_000
MC_RMAX, MC_POINTS = 2.7, 8

# quad_profile: (L, N, M, rmax); kernels of 64 KB, 1 MB and 4 MB
QUAD_CONFIGS = ((3, 10.5, 256, 5.0), (5, 10.5, 64, 5.0), (2, 50.5, 512, 9.0))
QUAD_POINTS = 400

# analytic_profiles
FIG_LEVELS = (1, 10, 40, 100)
FIG_POINTS = 4001
SPEC_L, SPEC_N, SPEC_RMAX, SPEC_POINTS = 2, 50.5, 10.0, 2000
CHECK_SUITES = ("oracle", "normalization", "determinant")

# midpoint_map
MID_L, MID_N = 3, 1.5
MID_SAMPLES = 2_000_000
MID_BINS = 64
MID_HALF_WIDTH = math.sqrt(MID_N) + 3.0


def mc_seed(run_seed: int, rep: int) -> int:
    """MC seed of one repetition: every repetition of a run draws afresh."""
    return 1000 * run_seed + rep


def quad_file(L: int) -> str:
    return f"quad_L{L}.csv"


def _step(label: str, call: Callable[[], int]) -> dict:
    try:
        return {"step": label, "rc": call(), "error": None}
    except Exception:  # a crash fails this step's operations; later steps still run
        return {"step": label, "rc": None, "error": traceback.format_exc()}


def _cli(label: str, argv: list[str]) -> dict:
    cli = importlib.import_module("wigpath.cli")
    return _step(label, lambda: cli.main(argv))


def _mc_setup(seed: int):
    from wigpath.states import FamilyParams

    return FamilyParams(MC_L, MC_N)


def _mc_run(state, seed: int, out: Path):
    argv = [
        "profile", "--state", "family", "--L", str(MC_L), "--N", str(MC_N),
        "--method", "mc", "--samples", str(MC_SAMPLES), "--rmin", "0",
        "--rmax", str(MC_RMAX), "--points", str(MC_POINTS), "--workers", "1",
        "--seed", str(seed), "--out", str(out / "mc.csv"),
    ]
    return [_cli("mc", argv)], {}


def _quad_setup(seed: int):
    from wigpath.states import FamilyParams

    return [FamilyParams(L, N) for L, N, _, _ in QUAD_CONFIGS]


def _quad_run(state, seed: int, out: Path):
    steps = []
    for L, N, M, rmax in QUAD_CONFIGS:
        argv = [
            "profile", "--state", "family", "--L", str(L), "--N", str(N),
            "--method", "quadrature", "--M", str(M), "--rmax", str(rmax),
            "--points", str(QUAD_POINTS), "--workers", "1", "--out", str(out / quad_file(L)),
        ]
        steps.append(_cli(quad_file(L), argv))
    return steps, {}


def _analytic_setup(seed: int):
    from wigpath.states import FamilyParams

    return FamilyParams(SPEC_L, SPEC_N)


def _analytic_run(state, seed: int, out: Path):
    steps = [
        _cli(
            "figure2",
            ["figure2", "--n", *map(str, FIG_LEVELS), "--points", str(FIG_POINTS),
             "--out-dir", str(out / "figure2")],
        ),
        _cli(
            "spectral",
            ["profile", "--state", "family", "--L", str(SPEC_L), "--N", str(SPEC_N),
             "--method", "spectral", "--rmax", str(SPEC_RMAX), "--points", str(SPEC_POINTS),
             "--workers", "1", "--out", str(out / "spectral.csv")],
        ),
    ]
    for suite in CHECK_SUITES:
        steps.append(_cli(suite, ["check", suite, "--out", str(out / f"check_{suite}.json")]))
    return steps, {}


def _midpoint_setup(seed: int):
    from wigpath.integrate import MidpointGrid, MonteCarloSpec
    from wigpath.states import FamilyParams

    return (
        FamilyParams(MID_L, MID_N),
        MonteCarloSpec(MID_SAMPLES, seed=seed, workers=1),
        MidpointGrid(MID_HALF_WIDTH, MID_BINS),
    )


def _midpoint_run(state, seed: int, out: Path):
    integrate = importlib.import_module("wigpath.integrate")
    params, spec, grid = state
    arrays = {}

    def call() -> int:
        hist = integrate.midpoint_histogram(params, spec, grid)
        arrays["midpoint"] = integrate.smoothed_wigner_from_histogram(
            hist, grid, params, spec.samples
        )
        return 0

    return [_step("midpoint", call)], arrays


@dataclass(frozen=True)
class Workload:
    modules: tuple[str, ...]  # imported in set-up, before tracing is installed
    setup: Callable  # (mc seed) -> state
    run: Callable  # (state, mc seed, output dir) -> (steps, arrays to save)


WORKLOADS = {
    "mc_profile": Workload(("wigpath.cli",), _mc_setup, _mc_run),
    "quad_profile": Workload(("wigpath.cli",), _quad_setup, _quad_run),
    "analytic_profiles": Workload(("wigpath.cli",), _analytic_setup, _analytic_run),
    "midpoint_map": Workload(("wigpath.integrate",), _midpoint_setup, _midpoint_run),
}
