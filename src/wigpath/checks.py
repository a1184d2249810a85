"""Cross-validation suites: the named consistency checks behind `wigpath check`.

Each suite returns a list of :class:`CheckResult`; the CLI renders them as a
JSON report and the acceptance tests assert on the same code paths.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field

import numpy as np

from .integrate import (
    MonteCarloSpec,
    QuadratureSpec,
    SignProblemError,
    wigner_montecarlo,
    wigner_quadrature,
)
from .saddle import hessian_log_det, hessian_matrix
from .states import (
    FamilyParams,
    refine_by_doubling,
    wigner_number,
    wigner_poisson,
    wigner_spectral,
)

# (L, N) pairs exercised by the quadrature-vs-spectral identity check.
ORACLE_CASES = ((1, 1.5), (2, 1.5), (3, 1.5), (2, 10.5))

# Gauss-Legendre rules of the radial normalization: doubled from the first
# node count until two successive rules agree to the tolerance (absolute, on
# an integral of order 1).  The cap bounds the eigenvalue solve behind the
# nodes (about 0.1 s at 1024 nodes); every built-in case converges by 128.
_GL_FIRST_NODES = 32
_GL_MAX_NODES = 1024
_GL_TOL = 1e-12


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: dict = field(default_factory=dict)


@functools.lru_cache(maxsize=None)
def _legendre_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], read-only (shared by callers)."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def radial_normalization(profile, s_max: float) -> tuple[float, float]:
    """2 pi int_0^smax W(s) s ds for rotation-invariant W, by Gauss-Legendre rules.

    `profile` maps a 1-D array of radii to their W values.  The node count
    doubles until two successive rules agree to 1e-12; returns (integral,
    |I_n - I_{n/2}|) and raises QuadratureConvergenceError past the cap.
    """

    def rule(nodes: int) -> float:
        x, w = _legendre_rule(nodes)
        s = 0.5 * s_max * (x + 1.0)
        # 2 pi times the Jacobian s_max / 2 of the map from [-1, 1]
        return math.pi * s_max * float(np.dot(w, np.asarray(profile(s), dtype=float) * s))

    return refine_by_doubling(rule, _GL_FIRST_NODES, _GL_MAX_NODES, _GL_TOL, "radial normalization")


def check_oracle(points: int = 20, M: int = 128) -> list[CheckResult]:
    """Path-integral quadrature against the spectral mixture, radially sampled."""
    out = []
    spec = QuadratureSpec(points_per_dim=M)
    for L, N in ORACLE_CASES:
        params = FamilyParams(L, N)
        rs = np.linspace(0.0, math.sqrt(N) + 2.0, points)
        worst = 0.0
        for q, ws in zip(wigner_quadrature(rs, params, spec), wigner_spectral(rs, params)):
            tol = 1e-6 * max(abs(ws), 0.01)
            worst = max(worst, abs(q.value - ws) / tol)
        out.append(
            CheckResult(
                name=f"oracle L={L} N={N}",
                passed=worst <= 1.0,
                detail={"worst_over_tolerance": worst, "points": points, "M": M},
            )
        )
    return out


def _normalization_cases() -> list[tuple[str, object, float]]:
    """(label, radial profile of an array of radii, s_max) triples for the six states."""
    qspec = QuadratureSpec()
    cases: list[tuple[str, object, float]] = []
    for N in (1.0, 10.5):
        s_max = math.sqrt(math.ceil(4 * N + 20)) + 6.0
        cases.append((f"poisson N={N}", lambda rs, N=N: wigner_poisson(rs, N), s_max))
    for n in (1, 10):
        cases.append((f"number n={n}", lambda rs, n=n: wigner_number(rs, n), math.sqrt(n) + 6.0))
    fam = FamilyParams(3, 1.5)
    cases.append(
        (
            "family L=3 N=1.5 quadrature",
            lambda rs: [q.value for q in wigner_quadrature(rs, fam, qspec)],
            math.sqrt(fam.n_max) + 6.0,
        )
    )
    fam2 = FamilyParams(2, 10.5)
    s_max = math.sqrt(fam2.n_max) + 6.0
    cases.append(("family L=2 N=10.5 spectral", lambda rs: wigner_spectral(rs, fam2), s_max))
    return cases


def check_normalization(tol: float = 1e-6) -> list[CheckResult]:
    """Unit total mass of the Wigner functions, by doubling Gauss-Legendre rules."""
    out = []
    for label, profile, s_max in _normalization_cases():
        integral, err = radial_normalization(profile, s_max)
        out.append(
            CheckResult(
                name=f"normalization {label}",
                passed=abs(integral - 1.0) <= tol,
                detail={"integral": integral, "quad_error": err},
            )
        )
    return out


def check_determinant(n_random: int = 50, seed: int = 20230914, tol: float = 1e-10) -> list[CheckResult]:
    """Closed-form Hessian determinant against dense elimination, at angles
    drawn by the standard library's seeded generator (it loads no OpenSSL)."""
    rng = random.Random(seed)
    out = []
    for L in range(3, 11):
        worst = 0.0
        for _ in range(n_random):
            theta = complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 0.3))
            r = 1.0 + 2.0 * rng.random()
            # an arbitrary half-angle, not a solved saddle
            sign, logabs = np.linalg.slogdet(hessian_matrix(theta, r, L))
            dense = sign * np.exp(logabs)
            closed = np.exp(complex(hessian_log_det(theta, r, L)))
            worst = max(worst, abs(dense - closed) / abs(closed))
        out.append(
            CheckResult(
                name=f"determinant L={L}",
                passed=worst <= tol,
                detail={"worst_relative_error": worst, "samples": n_random},
            )
        )
    return out


_SIGN_COLUMNS = (
    "L", "estimate", "standard_error", "mean_phase_magnitude", "phase_standard_error",
    "effective_sample_size",
)


def sign_rows(members: list[FamilyParams], alpha: complex, spec: MonteCarloSpec) -> list[dict]:
    """One row of Monte Carlo sign-problem diagnostics per family member in
    `members`, at the point alpha: L, the estimate and its standard error, the
    mean phase magnitude and its standard error, and the effective sample size.
    Where the sign problem hides the value (SignProblemError) the row keeps the
    mean phase magnitude (None where every weight underflows) and the
    effective sample size, and the other entries are None."""
    rows = []
    for params in members:
        try:
            res = wigner_montecarlo(alpha, params, spec)
        except SignProblemError as exc:
            row = (None, None, exc.mean_phase_magnitude, None, exc.effective_sample_size)
        else:
            row = (
                res.value, res.standard_error, res.mean_phase_magnitude,
                res.phase_standard_error, res.effective_sample_size,
            )
        rows.append(dict(zip(_SIGN_COLUMNS, (params.L, *row))))
    return rows


def check_sign(L_max: int = 5, samples: int = 200_000, seed: int = 7) -> list[CheckResult]:
    """Mean-phase-magnitude table over L = 1..L_max with a monotone-trend flag,
    for the family at N = 1.5 and the point alpha = 0.8."""
    if L_max < 1:
        raise ValueError(f"the sign suite needs L_max >= 1, got {L_max}")
    members = [FamilyParams(L, 1.5) for L in range(1, L_max + 1)]
    rows = sign_rows(members, 0.8 + 0j, MonteCarloSpec(samples, seed=seed))
    phases = [(row["mean_phase_magnitude"], row["phase_standard_error"] or 0.0) for row in rows]
    positive = all(phase > 0 for phase, _ in phases)
    # each step may rise by at most twice the combined standard error
    monotone = all(b <= a + 2 * math.hypot(sa, sb) for (a, sa), (b, sb) in zip(phases, phases[1:]))
    return [
        CheckResult(
            name=f"sign trend L=1..{L_max}",
            passed=positive and monotone,
            detail={"rows": rows, "strictly_positive": positive, "non_increasing": monotone},
        )
    ]


SUITES = {
    "oracle": check_oracle,
    "normalization": check_normalization,
    "determinant": check_determinant,
    "sign": check_sign,
}


def run_suite(name: str, **kwargs) -> dict:
    """Run one named suite (or "all") and assemble a machine-readable report."""
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown check suite {name!r}; choose from {sorted(SUITES)} or 'all'")
    names = list(SUITES) if name == "all" else [name]
    results: list[CheckResult] = []
    for suite in names:
        results.extend(SUITES[suite](**kwargs) if suite == "sign" else SUITES[suite]())
    return {
        "suites": names,
        "passed": bool(all(r.passed for r in results)),
        "checks": [{"name": r.name, "passed": bool(r.passed), "detail": r.detail} for r in results],
    }

