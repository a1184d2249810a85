"""Reference implementations shared by the test modules.  They run none of
the library's code, so a test that compares against them checks the library
and not itself."""

import math

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
