"""Limit-series strata on a curve with two smooth components and one node.

A pair of series on the components Y and Z, with ramification sequences
``alpha_y`` and ``alpha_z`` at the node, is compatible when

    alpha_y[j] + alpha_z[r - j] >= d - r   for every j,

and refined when equality holds for every j.  Refined node sequences come in
complementary pairs ``alpha_z[j] = d - r - alpha_y[r - j]``, and nonemptiness
of the whole limit-series space reduces to a scan over refined strata with a
nonemptiness oracle applied to each component.  That scan, with an injected
component oracle, is acceptance criterion 9's test reference
(``tests/reference.py``).

A ``Stratum`` computes its node gaps once, when it is built: the
compatibility check, ``refined`` and ``fiber_dim_bound`` all read that one
pass.  ``enumerate_refined_strata`` yields entry tuples, not ``Stratum``s, so
a scan validates no sequence per stratum.  On a refined stratum ``refined``
is true, ``fiber_dim_bound`` is 0 and ``stratum_expected_dim`` is the rho of
the glued problem (the node sequences sum to (r + 1)(d - r)); the ``strata``
command emits those invariants without computing them and looks up each
component's criterion in a ``core.criterion_table``.
"""

from collections.abc import Iterator
from itertools import combinations_with_replacement
from math import comb

from .core import (
    BNProblem, RamSeq, _ram_entries, _refuse_non_ints, _refuse_wrong_kind, _set, _Value, _comb_floor_log2,
    gaps, refuse_over_budget, rho_from_totals, validate_problem,
)


def _node_gaps(alpha_y: RamSeq, alpha_z: RamSeq) -> list[int]:
    """alpha_y[j] + alpha_z[r-j] - (d - r) for each j, after checking the shared context."""
    if alpha_y.d != alpha_z.d or alpha_y.r != alpha_z.r:
        raise ValueError("node sequences must share the same (r, d) context")
    return gaps(alpha_y.entries, alpha_z.entries, alpha_y.d - alpha_y.r)


def complement_entries(entries: tuple[int, ...], bound: int) -> tuple[int, ...]:
    """refined_complement on entry tuples, with bound = d - r."""
    return tuple([bound - a for a in reversed(entries)])


def refined_complement(alpha_y: RamSeq) -> RamSeq:
    """The unique node sequence achieving equality: d - r - alpha_y[r - j]."""
    return RamSeq(complement_entries(alpha_y.entries, alpha_y.d - alpha_y.r), alpha_y.d)


class Stratum(_Value):
    """A compatible node pair (alpha_y, alpha_z); rejects incompatible pairs."""

    __slots__ = ("alpha_y", "alpha_z", "_excess")  # _excess: the sum of the node gaps, all >= 0
    _fields = __slots__[:2]

    def __init__(self, alpha_y, alpha_z):
        _set(self, "alpha_y", alpha_y)
        _set(self, "alpha_z", alpha_z)
        _set(self, "_key", (alpha_y, alpha_z))
        if not (isinstance(alpha_y, RamSeq) and isinstance(alpha_z, RamSeq)):
            _refuse_wrong_kind({"alpha_y": alpha_y, "alpha_z": alpha_z}, RamSeq)
        node_gaps = _node_gaps(alpha_y, alpha_z)
        if min(node_gaps) < 0:
            raise ValueError(
                f"incompatible node pair {alpha_y.entries} / "
                f"{alpha_z.entries} for (r={alpha_y.r}, d={alpha_y.d})"
            )
        _set(self, "_excess", sum(node_gaps))

    @property
    def refined(self) -> bool:
        """alpha_z == refined_complement(alpha_y): no node gap is positive."""
        return self._excess == 0


def enumerate_refined_strata(r: int, d: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All C(d+1, r+1) refined strata for the (r, d) context, as entry tuples.

    Yields ``(alpha_y, alpha_z)`` with ``alpha_y`` in the order of
    ``all_ram_seqs`` and ``alpha_z`` its refined complement.  Nothing is
    validated; ``Stratum(RamSeq(alpha_y, d), RamSeq(alpha_z, d))`` is the
    object form.
    """
    # zs repeat the index pattern over the values reversed: z[j] = d - r - alpha_y[j]
    zs = combinations_with_replacement(range(d - r, -1, -1), r + 1)
    for alpha_y, z in zip(_ram_entries(r, d), zs):
        yield alpha_y, z[::-1]


def refuse_strata_over_budget(r: int, d: int) -> None:
    """Raise InfeasibleSize when the C(d+1, r+1) refined strata exceed the enumeration budget."""
    refuse_over_budget(lambda: comb(d + 1, r + 1), "strata", floor_log2=_comb_floor_log2(d + 1, r + 1))


def fiber_dim_bound(s: Stratum) -> int:
    """Excess of the node pair over exact complementarity.

    Nonnegative, and zero exactly for refined strata.  This bounds the fiber
    dimension of the forgetful comparison map from the finer limit-series
    space down to component pairs.
    """
    return s._excess


class TwoComponentProblem(_Value):
    """Marked two-component curve: genus g_y and g_z components glued at a node.

    ``alpha1`` is imposed at a marked point of Y, ``alpha2`` at a marked point
    of Z.
    """

    __slots__ = _fields = ("g_y", "g_z", "r", "d", "alpha1", "alpha2")

    def __init__(self, g_y, g_z, r, d, alpha1, alpha2):
        self._store((g_y, g_z, r, d, alpha1, alpha2))
        _refuse_non_ints({"g_y": g_y, "g_z": g_z})
        if g_y < 0 or g_z < 0:
            raise ValueError("component genera must be nonnegative")
        # the checks of glued_problem, without building it
        validate_problem(g_y + g_z, r, d, alpha1, alpha2)


def glued_problem(p: TwoComponentProblem) -> BNProblem:
    """The smooth two-point problem with g = g_y + g_z and the marked ramification."""
    return BNProblem(p.g_y + p.g_z, p.r, p.d, p.alpha1, p.alpha2)


def stratum_expected_dim(p: TwoComponentProblem, s: Stratum) -> int:
    """rho_Y + rho_Z for the stratum's component problems.

    Satisfies stratum_expected_dim + fiber_dim_bound = rho of the glued
    problem, for refined and non-refined strata alike.
    """
    r, d = p.r, p.d
    return rho_from_totals(p.g_y, r, d, p.alpha1.total(), s.alpha_y.total()) + rho_from_totals(
        p.g_z, r, d, s.alpha_z.total(), p.alpha2.total()
    )
