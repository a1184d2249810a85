"""Reference implementations shared by the test modules.  They run none of
the library's code, so a test that compares against them checks the library
and not itself."""

import math


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
