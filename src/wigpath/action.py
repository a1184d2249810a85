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

The batched circle forms turn each sampled angle into one unit phasor
e = cos theta + i sin theta and build every term from products of phasors:
the links e_{l-1} conj(e_l), the end chord e_L conj(e_1), the ends tied to
alpha, and (in integrate) the chord midpoint r (e_1 + e_L)/2.
`circle_phasors` gives the phasors and the alpha-free path terms;
`circle_actions_batch` gives the totals at a 1-D array of radii |alpha|, one
row per radius, each row bit-identical to the call at that radius alone.
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


def circle_phasors(thetas, r: float) -> tuple[np.ndarray, np.ndarray]:
    """Unit phasors of a (batch, L) angle array, filled part by part with no
    complex temporary (equal to exp(1j*theta) bit for bit), and the path term
    of each row, its links summed one column at a time."""
    th = np.asarray(thetas)
    if th.ndim != 2:
        raise ValueError("expected a (batch, L) angle array")
    e = np.empty(th.shape, dtype=complex)
    np.cos(th, out=e.real)
    np.sin(th, out=e.imag)
    links = e[:, -1] * e[:, 0].conj()
    step = np.empty_like(links)
    for l in range(1, th.shape[1]):
        links += np.multiply(e[:, l - 1], np.conjugate(e[:, l], out=step), out=step)
    links *= r * r
    return e, np.subtract(th.shape[1] * r * r, links, out=links)


def circle_actions_batch(
    thetas: np.ndarray, r: float, s: np.ndarray, out: tuple[np.ndarray, np.ndarray] | None = None
) -> np.ndarray:
    """Total actions of a (batch, L) array of angles at a 1-D array s of radii.

    Workhorse for the Monte Carlo estimators; one column per sampled path,
    with one unit phasor per angle, and alpha on the positive real axis (the
    angles of a point at argument phi are rotated by -phi).  Returns
    C-contiguous totals of shape (len(s), batch) whose row i equals the call
    at s[i:i+1] bit for bit: the path terms and the radius-free end factors
    are computed once and shared by every radius.

    out is None or a (totals, scratch) pair of C-contiguous (len(s), batch)
    arrays, complex and real; the totals are written into the first and
    returned, and the second is overwritten.  With out=None both are
    allocated here.  Either way the same in-place steps run in the same order.
    """
    e, path_terms = circle_phasors(thetas, r)
    s = np.asarray(s, dtype=float)
    if s.ndim != 1:
        raise ValueError("s must be a 1-D array of radii")
    if out is None:
        out = np.empty((s.size, len(e)), dtype=complex), np.empty((s.size, len(e)))
    totals, scratch = out
    s = s[:, None]  # (k, 1): one row per radius
    first, last = e[:, 0], e[:, -1]
    ends = first.conj() + last
    # the real 2 r s is applied part by part through the real scratch
    np.add(2.0 * s * s, 2.0 * r * r * (last * first.conj()), out=totals)
    totals.real -= np.multiply(2.0 * r * s, ends.real, out=scratch)
    totals.imag -= np.multiply(2.0 * r * s, ends.imag, out=scratch)
    totals += path_terms
    return totals
