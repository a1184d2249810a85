"""Output checks, run in the benchmark process after the timed phase.

Every Wigner value a workload writes is one operation, and so is every case
of a check suite.  An operation fails on a crash or non-zero exit of its
step, a missing or non-finite value, or an out-of-tolerance comparison with an
oracle independent of the route that produced it:

* quadrature and MC profiles against ``wigner_spectral``; quadrature within
  the ``check oracle`` tolerance, MC within ``MC_Z`` standard errors;
* ``figure2`` number panels against ``scipy.special.eval_laguerre`` and
  Poisson panels against ``gaussian_convolve_p1`` (a sample of radii);
  saddle panels are asymptotic and are only required to be finite;
* the spectral profile against quadrature at a sample of radii;
* the check suites case by case, and their exit code;
* the midpoint map by its correlation with the spectral values on the grid,
  with the threshold of the repository's own test.

Oracle values depend only on the workload, so they are cached per run.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import eval_laguerre

import workloads as wl
from wigpath.integrate import MidpointGrid, QuadratureSpec, wigner_quadrature
from wigpath.states import FamilyParams, gaussian_convolve_p1, wigner_spectral

MC_Z = 5.0
MIDPOINT_MIN_CORRELATION = 0.9
SAMPLE_STRIDE = 100  # every 100th radius of the long analytic profiles
SPECTRAL_CHECK_M = 512


def oracle_tolerance(reference):
    """The ``check oracle`` tolerance: 1e-6 relative, floored at |W| = 0.01."""
    return 1e-6 * np.maximum(np.abs(reference), 0.01)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def cases(self, ok: np.ndarray, what: str) -> None:
        ok = np.asarray(ok, dtype=bool)
        self.attempted += ok.size
        bad = int(ok.size - ok.sum())
        if bad:
            self.failed += bad
            self.problems.append(f"{what}: {bad} of {ok.size} failed")

    def lost(self, count: int, what: str) -> None:
        self.attempted += count
        self.failed += count
        self.problems.append(f"{what}: {count} operations lost")


def read_profile(path: Path) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(r, W, stderr) columns of a profile CSV; empty cells read as nan."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))

    def column(key):
        return np.array([float(row[key]) if row[key] else math.nan for row in rows])

    return column("r"), column("W"), column("stderr")


def mc_cost_s(wall_s: float, paths) -> float:
    """Projected time to standard error 1e-3 at every radius:
    wall_s * mean_r(stderr_r^2) / 1e-6, the mean over every row of the given
    MC profile CSVs."""
    se2 = np.concatenate([read_profile(p)[2] ** 2 for p in paths])
    return wall_s * float(np.mean(se2)) / 1e-6


class Oracles:
    """Reference values, computed on first use and kept for the run."""

    def __init__(self):
        self._cache: dict = {}
        self._params: dict = {}

    def params(self, L: int, N: float) -> FamilyParams:
        if (L, N) not in self._params:
            self._params[L, N] = FamilyParams(L, N)
        return self._params[L, N]

    def _get(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    def spectral(self, L: int, N: float, rs: np.ndarray) -> np.ndarray:
        return self._get(
            ("spectral", L, N, rs.tobytes()),
            lambda: np.array([wigner_spectral(complex(r), self.params(L, N)) for r in rs]),
        )

    def quadrature(self, L: int, N: float, M: int, rs: np.ndarray) -> np.ndarray:
        spec = QuadratureSpec(points_per_dim=M)
        return self._get(
            ("quadrature", L, N, M, rs.tobytes()),
            lambda: np.array(
                [wigner_quadrature(complex(r), self.params(L, N), spec).value for r in rs]
            ),
        )

    def poisson(self, N: float, rs: np.ndarray) -> np.ndarray:
        return self._get(
            ("poisson", N, rs.tobytes()),
            lambda: np.array([gaussian_convolve_p1(complex(r), N)[0] for r in rs]),
        )

    def midpoint_truth(self) -> np.ndarray:
        def compute():
            c = MidpointGrid(wl.MID_HALF_WIDTH, wl.MID_BINS).centers()
            cx, cy = np.meshgrid(c, c, indexing="ij")
            params = self.params(wl.MID_L, wl.MID_N)
            return np.array(
                [wigner_spectral(complex(x, y), params) for x, y in zip(cx.ravel(), cy.ravel())]
            )

        return self._get("midpoint", compute)


def number_state_reference(n: int, rs: np.ndarray) -> np.ndarray:
    s2 = rs * rs
    return (2.0 / math.pi) * (-1.0) ** n * np.exp(-2.0 * s2) * eval_laguerre(n, 4.0 * s2)


def _profile(path: Path, points: int, what: str, tally: Tally):
    """Read a profile with the expected row count, or count its values lost."""
    try:
        rs, w, se = read_profile(path)
    except (OSError, KeyError, ValueError) as exc:
        tally.lost(points, f"{what} unreadable ({exc})")
        return None
    if len(rs) != points:
        tally.lost(points, f"{what} has {len(rs)} rows, expected {points}")
        return None
    return rs, w, se


def _against(values, reference, tolerance) -> np.ndarray:
    return np.isfinite(values) & (np.abs(values - reference) <= tolerance)


def check_mc(out: Path, data: Path, oracles: Oracles, tally: Tally) -> None:
    got = _profile(out / "mc.csv", wl.MC_POINTS, "mc profile", tally)
    if got is None:
        return
    rs, w, se = got
    ref = oracles.spectral(wl.MC_L, wl.MC_N, rs)
    ok = np.isfinite(se) & (se > 0) & _against(w, ref, MC_Z * se)
    tally.cases(ok, f"mc vs spectral within {MC_Z} stderr")


def check_quad(out: Path, data: Path, oracles: Oracles, tally: Tally) -> None:
    for L, N, M, _ in wl.QUAD_CONFIGS:
        got = _profile(out / wl.quad_file(L), wl.QUAD_POINTS, f"quadrature L={L}", tally)
        if got is None:
            continue
        rs, w, _ = got
        ref = oracles.spectral(L, N, rs)
        ok = _against(w, ref, oracle_tolerance(ref))
        tally.cases(ok, f"quadrature L={L} N={N} M={M} vs spectral")


def check_analytic(out: Path, data: Path, oracles: Oracles, tally: Tally) -> None:
    fig = out / "figure2"
    for n in wl.FIG_LEVELS:
        exact = _profile(fig / f"n{n}_exact.csv", wl.FIG_POINTS, f"figure2 n={n} exact", tally)
        if exact is not None:
            rs, w, _ = exact
            ref = number_state_reference(n, rs)
            tally.cases(_against(w, ref, oracle_tolerance(ref)), f"figure2 n={n} vs eval_laguerre")
        saddle = _profile(fig / f"n{n}_saddle.csv", wl.FIG_POINTS, f"figure2 n={n} saddle", tally)
        if saddle is not None:
            tally.cases(np.isfinite(saddle[1]), f"figure2 n={n} saddle finite")
        poisson = _profile(
            fig / f"n{n}_poisson.csv", wl.FIG_POINTS, f"figure2 n={n} poisson", tally
        )
        if poisson is not None:
            rs, w, _ = poisson
            ok = np.isfinite(w)
            idx = np.arange(0, len(rs), SAMPLE_STRIDE)
            ref = oracles.poisson(n + 0.5, rs[idx])
            ok[idx] &= _against(w[idx], ref, oracle_tolerance(ref))
            tally.cases(ok, f"figure2 n={n} poisson vs gaussian_convolve_p1")

    spectral = _profile(out / "spectral.csv", wl.SPEC_POINTS, "spectral profile", tally)
    if spectral is not None:
        rs, w, _ = spectral
        ok = np.isfinite(w)
        idx = np.arange(0, len(rs), SAMPLE_STRIDE)
        ref = oracles.quadrature(wl.SPEC_L, wl.SPEC_N, SPECTRAL_CHECK_M, rs[idx])
        ok[idx] &= _against(w[idx], ref, oracle_tolerance(ref))
        tally.cases(ok, "spectral profile vs quadrature")

    for suite in wl.CHECK_SUITES:
        path = out / f"check_{suite}.json"
        try:
            report = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            tally.lost(1, f"check {suite} report unreadable ({exc})")
            continue
        tally.cases([bool(c["passed"]) for c in report["checks"]], f"check {suite} cases")


def check_midpoint(out: Path, data: Path, oracles: Oracles, tally: Tally) -> None:
    cells = wl.MID_BINS * wl.MID_BINS
    try:
        est = np.load(data / "midpoint.npy").ravel()
    except (OSError, ValueError) as exc:
        tally.lost(cells + 1, f"midpoint map unreadable ({exc})")
        return
    if est.size != cells:
        tally.lost(cells + 1, f"midpoint map has {est.size} cells, expected {cells}")
        return
    finite = np.isfinite(est)
    tally.cases(finite, "midpoint map finite")
    corr = float(np.corrcoef(est, oracles.midpoint_truth())[0, 1]) if finite.all() else math.nan
    tally.cases([corr >= MIDPOINT_MIN_CORRELATION], f"midpoint correlation {corr:.4f}")


CHECKS = {
    "mc_profile": check_mc,
    "quad_profile": check_quad,
    "analytic_profiles": check_analytic,
    "midpoint_map": check_midpoint,
}


def check_rep(
    workload: str, steps: list[dict], out: Path, data: Path, oracles: Oracles, tally: Tally
) -> None:
    """Check one repetition's outputs; a step that crashed or exited non-zero
    is one more failed operation on top of whatever its outputs show."""
    for step in steps:
        if step["rc"] != 0:
            detail = (step["error"] or "").strip().splitlines()[-1:] or [f"exit {step['rc']}"]
            tally.lost(1, f"step {step['step']}: {detail[0]}")
    CHECKS[workload](out, data, oracles, tally)
