"""Field sizes and subspace counts; the library does no finite-field arithmetic.

The oracle evaluates its exact counting polynomials at the field sizes in
FIELDS, and its budget caps gaussian_binomial, the number of subspaces counted.
"""

from functools import lru_cache

# the field sizes the oracles count over
FIELDS = (2, 3, 4)


@lru_cache(maxsize=256)  # bounded: a refused request's huge count is not kept for long
def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of an n-dimensional space over F_q."""
    if k < 0 or k > n:
        return 0
    k = min(k, n - k)  # the count is symmetric in k and n - k
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den
