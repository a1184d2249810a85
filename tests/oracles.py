"""Reference implementations shared by the test modules.  They run none of
the library's code, so a test that compares against them checks the library
and not itself."""

import cmath
import math
from dataclasses import dataclass

import numpy as np


def log_bessel_i0_reference(x: float) -> float:
    """ln I0 at one float x >= 0, kept as a bit-for-bit oracle: a power series
    below 20 and the asymptotic expansion above, each summed term by term in a
    Python loop."""
    if x < 20.0:
        q = 0.25 * x * x
        term = total = 1.0
        for k in range(1, 200):
            term *= q / (k * k)
            total += term
            if term < 1e-18 * total:
                break
        return math.log(total)
    term = total = 1.0
    for k in range(1, 40):
        new = term * (2 * k - 1) ** 2 / (8.0 * k * x)
        if new >= term and k > 2:
            break  # divergent tail reached
        term = new
        total += term
        if term < 1e-18 * total:
            break
    return x - 0.5 * math.log(2.0 * math.pi * x) + math.log(total)


# Dense Fock oracle: any seed rho_1, a matrix in a truncated number basis,
# gives the family member W(alpha) = (2/pi) Tr[D(alpha) Pi D(alpha)^dag rho_1^L]
# / Z from one eigh for rho_1^L and one for D(alpha).  eigh is O(dim^3), and
# the seeds keep ceil(4N + 40) levels, so the tests stay at N <= 10.5.

_PADDING = 80  # levels above the seed's basis in which D(alpha) is formed


def seed_levels(N: float) -> int:
    """Number levels kept by a seed of mean occupation N: the Poisson weight
    dropped above them is below 1e-16 up to N = 10.5."""
    return math.ceil(4 * N + 40)


def poisson_weights(N: float, dim: int) -> np.ndarray:
    """p_n = e^-N N^n / n! for n < dim, from the running sum of ln n."""
    n = np.arange(dim)
    return np.exp(-N + n * math.log(N) - np.cumsum(np.log(np.maximum(n, 1))))


def circle_seed(N: float) -> np.ndarray:
    """The circle seed: the average of |sqrt(N) e^{i theta}><...| over theta,
    diagonal with the Poisson weights."""
    return np.diag(poisson_weights(N, seed_levels(N))).astype(complex)


def mgon_seed(N: float, M: int) -> np.ndarray:
    """The M-gon seed: the average of the coherent projectors at the M angles
    2 pi j / M, with elements sqrt(p_n p_m) where n = m (mod M) and 0
    elsewhere."""
    amp = np.sqrt(poisson_weights(N, seed_levels(N)))
    n = np.arange(amp.size)
    return np.outer(amp, amp) * ((n[:, None] - n[None, :]) % M == 0)


def seed_power(rho: np.ndarray, L: int) -> np.ndarray:
    """rho^L of a Hermitian seed, from its eigh."""
    lam, v = np.linalg.eigh(rho)
    return (v * lam**L) @ v.conj().T


def dense_wigner(alpha: complex, rho: np.ndarray) -> float:
    """(2/pi) Tr[D(alpha) Pi D(alpha)^dag rho], the Wigner function of a
    unit-trace rho (linear in rho), with Pi the parity.  D(alpha) =
    exp(-iH) comes from the eigh of H = i(alpha a^dag - alpha* a) in the
    basis of rho padded by 80 levels; the trace is Tr[Pi D^dag rho D], read
    on the rows of D inside the basis of rho."""
    dim = rho.shape[0] + _PADDING
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    lam, v = np.linalg.eigh(1j * (alpha * a.T - np.conj(alpha) * a))
    d = ((v * np.exp(-1j * lam)) @ v.conj().T)[: rho.shape[0]]
    parity = (-1.0) ** np.arange(dim)
    return 2.0 / math.pi * float((((rho @ d) * d.conj()).sum(axis=0) @ parity).real)


# Generic path action: the reference for the batched circle forms of
# wigpath.action.  A path is a 1-D sequence of complex vertices gamma_1 ..
# gamma_L with gamma_0 = gamma_L, so the path term contains the closing link.


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


# Phase-space primitives: coherent overlaps and the displaced parity, directly
# and as complex logarithms (real part = log magnitude, imaginary part = phase).


def log_coherent_overlap(beta: complex, gamma: complex) -> complex:
    """Complex log of <beta|gamma> for normalized minimum-uncertainty states."""
    return (
        -0.5 * (beta.real**2 + beta.imag**2)
        - 0.5 * (gamma.real**2 + gamma.imag**2)
        + beta.conjugate() * gamma
    )


def coherent_overlap(beta: complex, gamma: complex) -> complex:
    """<beta|gamma> = exp(-|beta|^2/2 - |gamma|^2/2 + beta* gamma); |result| <= 1."""
    return cmath.exp(log_coherent_overlap(beta, gamma))


def log_displaced_parity_element(alpha: complex, beta: complex, gamma: complex) -> complex:
    """Complex log of <beta| (pi/2) delta_2(alpha - a) |gamma>.

    delta_2 is the symmetrically ordered two-dimensional delta operator whose
    expectation value is the Wigner function; it acts as a parity operator
    displaced to the point alpha.
    """
    return -2.0 * (alpha - gamma) * (alpha.conjugate() - beta.conjugate()) + log_coherent_overlap(
        beta, gamma
    )


def displaced_parity_element(alpha: complex, beta: complex, gamma: complex) -> complex:
    return cmath.exp(log_displaced_parity_element(alpha, beta, gamma))
