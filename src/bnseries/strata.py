"""Limit-series strata on a curve with two smooth components and one node.

A pair of series on the components Y and Z, with ramification sequences
``alpha_y`` and ``alpha_z`` at the node, is compatible when

    alpha_y[j] + alpha_z[r - j] >= d - r   for every j,

and refined when equality holds for every j.  Refined node sequences come in
complementary pairs ``alpha_z[j] = d - r - alpha_y[r - j]``, and nonemptiness
of the whole limit-series space reduces to a scan over refined strata with a
nonemptiness oracle applied to each component.
"""

from dataclasses import dataclass
from typing import Callable, Iterator

from .core import BNProblem, RamSeq, all_ram_seqs, gaps, rho


def eh_compatible(alpha_y: RamSeq, alpha_z: RamSeq) -> bool:
    """Node compatibility: alpha_y[j] + alpha_z[r-j] >= d - r for all j."""
    if alpha_y.d != alpha_z.d or alpha_y.r != alpha_z.r:
        raise ValueError("node sequences must share the same (r, d) context")
    return min(gaps(alpha_y, alpha_z, alpha_y.d - alpha_y.r)) >= 0


def refined_complement(alpha_y: RamSeq) -> RamSeq:
    """The unique node sequence achieving equality: d - r - alpha_y[r - j]."""
    r, d = alpha_y.r, alpha_y.d
    return RamSeq(tuple(d - r - alpha_y[r - j] for j in range(r + 1)), d)


@dataclass(frozen=True)
class Stratum:
    """A compatible node pair (alpha_y, alpha_z); rejects incompatible pairs."""

    alpha_y: RamSeq
    alpha_z: RamSeq

    def __post_init__(self):
        if not eh_compatible(self.alpha_y, self.alpha_z):
            raise ValueError(
                f"incompatible node pair {self.alpha_y.entries} / "
                f"{self.alpha_z.entries} for (r={self.alpha_y.r}, d={self.alpha_y.d})"
            )

    @property
    def r(self) -> int:
        return self.alpha_y.r

    @property
    def d(self) -> int:
        return self.alpha_y.d

    @property
    def refined(self) -> bool:
        return self.alpha_z == refined_complement(self.alpha_y)


def enumerate_refined_strata(r: int, d: int) -> Iterator[Stratum]:
    """All C(d+1, r+1) refined strata for the (r, d) context."""
    for alpha_y in all_ram_seqs(r, d):
        yield Stratum(alpha_y, refined_complement(alpha_y))


def fiber_dim_bound(s: Stratum) -> int:
    """Excess of the node pair over exact complementarity.

    Nonnegative, and zero exactly for refined strata.  This bounds the fiber
    dimension of the forgetful comparison map from the finer limit-series
    space down to component pairs.
    """
    return sum(gaps(s.alpha_y, s.alpha_z, s.d - s.r))


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
        glued_problem(self)


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
    p_y, p_z = component_problems(p, s)
    return rho(p_y) + rho(p_z)


def eh_nonempty_two_component(
    p: TwoComponentProblem,
    base_oracle: Callable[[BNProblem], bool],
) -> bool:
    """Scan refined strata; true iff some stratum has both components nonempty.

    ``base_oracle`` decides nonemptiness of a component problem.  Injecting it
    lets callers mix the general criterion with exact genus-0/1 oracles.
    """
    for s in enumerate_refined_strata(p.r, p.d):
        p_y, p_z = component_problems(p, s)
        if base_oracle(p_y) and base_oracle(p_z):
            return True
    return False
