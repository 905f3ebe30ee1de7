"""Two-point Brill-Noether computations with independent verification oracles.

The package computes the adjusted Brill-Noether number and the sharp
two-point nonemptiness inequality, enumerates limit-series strata on
two-component curves, constructs witness chains of elliptic components, and
cross-checks the genus-0/1 base cases against exact point counts over small
finite fields, read off counting polynomials in q.

Each module is its own API: import a name from the module that defines it
(``bnseries.core``, ``bnseries.chains``, ...).  This package root exports nothing.
"""
