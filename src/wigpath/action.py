"""Geometric action of discretized phase-space paths.

A path is an ordered list of complex vertices gamma_1 .. gamma_L with the
periodic convention gamma_0 = gamma_L, so the path term contains the closing
link.  The total action against an evaluation point alpha splits as

  Re S = (1/2) sum_{l=2..L} |gamma_l - gamma_{l-1}|^2  +  2 |alpha - mid|^2
  Im S = twice the symplectic area swept by the closed polygon plus the
         rectangle spanned by the end chord and alpha,

with mid = (gamma_1 + gamma_L)/2 the chord midpoint.  Time reversal flips the
sign of Im S and leaves Re S alone, which is why the assembled Wigner values
come out real.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CirclePath:
    """A path whose vertices sit on the circle of given radius."""

    radius: float
    angles: tuple[float, ...]

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if len(self.angles) < 1:
            raise ValueError("a path needs at least one vertex")
        object.__setattr__(self, "angles", tuple(float(a) for a in self.angles))

    def vertices(self) -> np.ndarray:
        return self.radius * np.exp(1j * np.asarray(self.angles))


@dataclass(frozen=True)
class ActionValue:
    """Total geometric action with its audited decomposition."""

    total: complex
    re_internal_links: float
    re_end_gap: float
    im_area: float


def _as_vertices(path) -> np.ndarray:
    g = np.asarray(path, dtype=complex)
    if g.ndim != 1 or g.size < 1:
        raise ValueError("path must be a non-empty 1-D sequence of complex vertices")
    if not np.all(np.isfinite(g)):
        raise ValueError("path vertices must be finite")
    return g


def path_action(path) -> complex:
    """Closed-polygon (Bargmann) term: sum of half link lengths squared plus
    i times the swept area, including the gamma_L -> gamma_1 closing link."""
    g = _as_vertices(path)
    prev = np.roll(g, 1)
    d = g - prev
    return complex(0.5 * (d.real**2 + d.imag**2).sum() + 1j * (g * prev.conj()).imag.sum())


def end_action(path, alpha: complex) -> complex:
    """Term tying the path ends to the evaluation point: 2 (alpha - gamma_L)(alpha* - gamma_1*)."""
    g = _as_vertices(path)
    return 2.0 * (alpha - g[-1]) * (alpha.conjugate() - g[0].conjugate())


def chord_midpoint(path) -> complex:
    """Mean of the path's end points; classifies which phase-space point the
    path contributes to."""
    g = _as_vertices(path)
    return complex(0.5 * (g[0] + g[-1]))


def total_action(path, alpha: complex) -> ActionValue:
    g = _as_vertices(path)
    total = path_action(g) + end_action(g, alpha)
    d = g[1:] - g[:-1]
    internal = float(0.5 * (d.real**2 + d.imag**2).sum())
    gap = alpha - chord_midpoint(g)
    end_gap = float(2.0 * (gap.real**2 + gap.imag**2))
    return ActionValue(
        total=total,
        re_internal_links=internal,
        re_end_gap=end_gap,
        im_area=float(total.imag),
    )


def circle_path_terms(thetas: np.ndarray, r: float) -> np.ndarray:
    """Vectorized closed-polygon terms for a (batch, L) array of angles on the
    circle of radius r: path_action of each row, one complex value per path."""
    th = np.asarray(thetas)
    if th.ndim != 2:
        raise ValueError("expected a (batch, L) angle array")
    prev = np.roll(th, 1, axis=1)
    return th.shape[1] * r * r - r * r * np.exp(1j * (prev - th)).sum(axis=1)


def circle_actions_batch(
    thetas: np.ndarray, r: float, s, phi: float = 0.0
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (path term, total) actions for a (batch, L) array of angles.

    Workhorse for the Monte Carlo estimators; one row per sampled path.  s is
    a scalar, giving totals of shape (batch,), or a 1-D array of radii, giving
    C-contiguous totals of shape (len(s), batch) whose row i equals the scalar
    call at s[i] bit for bit: the path terms and the radius-free end factors
    are computed once and shared by every radius.
    """
    th = np.asarray(thetas)
    path_terms = circle_path_terms(th, r)
    s = np.asarray(s, dtype=float)
    if s.ndim > 1:
        raise ValueError("s must be a scalar or a 1-D array of radii")
    # (k, 1) gives one row per radius; a scalar stays a Python float so that
    # numpy reuses the batch-sized temporaries in place, as before
    s = s[:, None] if s.ndim else float(s)
    end_terms = (
        2.0 * s * s
        + 2.0 * r * r * np.exp(1j * (th[:, -1] - th[:, 0]))
        - 2.0 * r * s * (np.exp(-1j * (th[:, 0] - phi)) + np.exp(1j * (th[:, -1] - phi)))
    )
    return path_terms, path_terms + end_terms
