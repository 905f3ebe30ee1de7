"""Limit-series strata on a curve with two smooth components and one node.

A pair of series on the components Y and Z, with ramification sequences
``alpha_y`` and ``alpha_z`` at the node, is compatible when

    alpha_y[j] + alpha_z[r - j] >= d - r   for every j,

and refined when equality holds for every j.  Refined node sequences come in
complementary pairs ``alpha_z[j] = d - r - alpha_y[r - j]``, and nonemptiness
of the whole limit-series space reduces to a scan over refined strata with a
nonemptiness oracle applied to each component.

A ``Stratum`` computes its node gaps once, when it is built: the
compatibility check, ``refined`` and ``fiber_dim_bound`` all read that one
pass.  ``component_facts`` reads a stratum's expected dimension and the
criterion on both components off the entry tuples, so a scan builds two
validated sequences and one ``Stratum`` per stratum and no ``BNProblem``.
"""

from dataclasses import dataclass, field
from math import comb
from typing import Callable, Iterator

from .core import (
    BNProblem,
    RamSeq,
    all_ram_seqs,
    criterion_excess,
    gaps,
    refuse_over_budget,
    rho_from_totals,
    validate_problem,
)


def _node_gaps(alpha_y: RamSeq, alpha_z: RamSeq) -> list[int]:
    """alpha_y[j] + alpha_z[r-j] - (d - r) for each j, after checking the shared context."""
    if alpha_y.d != alpha_z.d or alpha_y.r != alpha_z.r:
        raise ValueError("node sequences must share the same (r, d) context")
    return gaps(alpha_y.entries, alpha_z.entries, alpha_y.d - alpha_y.r)


def eh_compatible(alpha_y: RamSeq, alpha_z: RamSeq) -> bool:
    """Node compatibility: alpha_y[j] + alpha_z[r-j] >= d - r for all j."""
    return min(_node_gaps(alpha_y, alpha_z)) >= 0


def complement_entries(entries: tuple[int, ...], bound: int) -> tuple[int, ...]:
    """refined_complement on entry tuples, with bound = d - r."""
    return tuple([bound - a for a in reversed(entries)])


def refined_complement(alpha_y: RamSeq) -> RamSeq:
    """The unique node sequence achieving equality: d - r - alpha_y[r - j]."""
    return RamSeq(complement_entries(alpha_y.entries, alpha_y.d - alpha_y.r), alpha_y.d)


@dataclass(frozen=True)
class Stratum:
    """A compatible node pair (alpha_y, alpha_z); rejects incompatible pairs."""

    alpha_y: RamSeq
    alpha_z: RamSeq
    # sum of the node gaps, all of them nonnegative once the pair is accepted
    _excess: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        node_gaps = _node_gaps(self.alpha_y, self.alpha_z)
        if min(node_gaps) < 0:
            raise ValueError(
                f"incompatible node pair {self.alpha_y.entries} / "
                f"{self.alpha_z.entries} for (r={self.alpha_y.r}, d={self.alpha_y.d})"
            )
        object.__setattr__(self, "_excess", sum(node_gaps))

    @property
    def refined(self) -> bool:
        """alpha_z == refined_complement(alpha_y): no node gap is positive."""
        return self._excess == 0


def enumerate_refined_strata(r: int, d: int) -> Iterator[Stratum]:
    """All C(d+1, r+1) refined strata for the (r, d) context."""
    for alpha_y in all_ram_seqs(r, d):
        yield Stratum(alpha_y, refined_complement(alpha_y))


def refuse_strata_over_budget(r: int, d: int) -> None:
    """Raise InfeasibleSize when the C(d+1, r+1) refined strata exceed the enumeration budget."""
    refuse_over_budget(comb(d + 1, r + 1), "strata")


def fiber_dim_bound(s: Stratum) -> int:
    """Excess of the node pair over exact complementarity.

    Nonnegative, and zero exactly for refined strata.  This bounds the fiber
    dimension of the forgetful comparison map from the finer limit-series
    space down to component pairs.
    """
    return s._excess


@dataclass(frozen=True)
class TwoComponentProblem:
    """Marked two-component curve: genus g_y and g_z components glued at a node.

    ``alpha1`` is imposed at a marked point of Y, ``alpha2`` at a marked point
    of Z.
    """

    g_y: int
    g_z: int
    r: int
    d: int
    alpha1: RamSeq
    alpha2: RamSeq

    def __post_init__(self):
        if self.g_y < 0 or self.g_z < 0:
            raise ValueError("component genera must be nonnegative")
        # the checks of glued_problem, without building it
        validate_problem(self.g_y + self.g_z, self.r, self.d, self.alpha1, self.alpha2)


def glued_problem(p: TwoComponentProblem) -> BNProblem:
    """The smooth two-point problem with g = g_y + g_z and the marked ramification."""
    return BNProblem(p.g_y + p.g_z, p.r, p.d, p.alpha1, p.alpha2)


def component_problems(p: TwoComponentProblem, s: Stratum) -> tuple[BNProblem, BNProblem]:
    """The two-point problems induced on Y and Z by a stratum.

    Y carries (alpha1, alpha_y), Z carries (alpha_z, alpha2).
    """
    p_y = BNProblem(p.g_y, p.r, p.d, p.alpha1, s.alpha_y)
    p_z = BNProblem(p.g_z, p.r, p.d, s.alpha_z, p.alpha2)
    return p_y, p_z


def stratum_expected_dim(p: TwoComponentProblem, s: Stratum) -> int:
    """rho_Y + rho_Z for the stratum's component problems.

    Satisfies stratum_expected_dim + fiber_dim_bound = rho of the glued
    problem, for refined and non-refined strata alike.
    """
    r, d = p.r, p.d
    return rho_from_totals(p.g_y, r, d, p.alpha1.total(), s.alpha_y.total()) + rho_from_totals(
        p.g_z, r, d, s.alpha_z.total(), p.alpha2.total()
    )


def component_facts(p: TwoComponentProblem, s: Stratum) -> tuple[int, bool, bool]:
    """stratum_expected_dim and nonempty_criterion of each of the component_problems.

    The answers are read off the entry tuples; no component problem is built.
    """
    r, d, g_y, g_z = p.r, p.d, p.g_y, p.g_z
    return (
        stratum_expected_dim(p, s),
        criterion_excess(g_y, r, d, p.alpha1.entries, s.alpha_y.entries) <= g_y,
        criterion_excess(g_z, r, d, s.alpha_z.entries, p.alpha2.entries) <= g_z,
    )


def eh_nonempty_two_component(
    p: TwoComponentProblem,
    base_oracle: Callable[[BNProblem], bool],
) -> bool:
    """Scan refined strata; true iff some stratum has both components nonempty.

    ``base_oracle`` decides nonemptiness of a component problem.  Injecting it
    lets callers mix the general criterion with exact genus-0/1 oracles.  A
    scan over the enumeration budget is refused before the first stratum.
    """
    refuse_strata_over_budget(p.r, p.d)
    for s in enumerate_refined_strata(p.r, p.d):
        p_y, p_z = component_problems(p, s)
        if base_oracle(p_y) and base_oracle(p_z):
            return True
    return False
