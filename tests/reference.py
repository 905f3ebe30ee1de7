"""Test-side references that no command runs: brute-force enumerations and criterion 9's scan.

They import only public bnseries names.  The scan reaches the strata
enumeration and its budget check through the ``strata`` module, so a test
that patches either there sees it.
"""

from collections.abc import Callable, Iterator

from bnseries import strata
from bnseries.core import BNProblem, RamSeq, VanishingSeq, all_ram_seqs, gaps
from bnseries.elliptic import Point, ec_add, ec_neg
from bnseries.oracle import EllipticModel, ec_descriptor_rows, is_general
from bnseries.strata import Stratum, TwoComponentProblem


def ec_mul(p: int, a: int, pt: Point, n: int) -> Point:
    if n < 0:
        return ec_mul(p, a, ec_neg(p, pt), -n)
    result = None
    addend = pt
    while n:
        if n & 1:
            result = ec_add(p, a, result, addend)
        addend = ec_add(p, a, addend, addend)
        n >>= 1
    return result


def curve_points(p: int, a: int, b: int) -> Iterator[tuple[int, int]]:
    """All affine points, by scanning x against a table of squares."""
    roots = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    for x in range(p):
        rhs = (x * x * x + a * x + b) % p
        for y in roots.get(rhs, ()):
            yield (x, y)


def from_vanishing(a: VanishingSeq) -> RamSeq:
    """Inverse of to_vanishing: alpha_j = a_j - j."""
    return RamSeq(tuple(x - j for j, x in enumerate(a)), a.d)


def all_problems(g: int, r: int, d: int) -> Iterator[BNProblem]:
    """All two-point problems for fixed (g, r, d), over every (alpha1, alpha2)."""
    seqs = list(all_ram_seqs(r, d))
    for a1 in seqs:
        for a2 in seqs:
            yield BNProblem(g, r, d, a1, a2)


def ec_descriptor_scan(m: EllipticModel, p: BNProblem) -> dict:
    """Per-descriptor counting report for a genus-1 problem on the model, from ec_descriptor_rows."""
    rows = ec_descriptor_rows(m, p)
    return {
        "order_diff": m.order_diff,
        "descriptors": [
            {"bundle": bundle, "a": a, "counts": list(counts), "dim": dim, "nonempty": nonempty}
            for bundle, a, counts, dim, nonempty in rows
        ],
        "nonempty": any(row[4] for row in rows),
    }


def ec_g1_nonempty(m: EllipticModel, p: BNProblem) -> bool:
    """Brute-force nonemptiness for g = 1, requiring ord(P1 - P2) > d."""
    if not is_general(m, p.d):
        raise ValueError("generality hypothesis violated: ord(P1 - P2) must exceed d")
    return ec_descriptor_scan(m, p)["nonempty"]


def eh_compatible(alpha_y: RamSeq, alpha_z: RamSeq) -> bool:
    """Node compatibility: alpha_y[j] + alpha_z[r-j] >= d - r for all j."""
    if alpha_y.d != alpha_z.d or alpha_y.r != alpha_z.r:
        raise ValueError("node sequences must share the same (r, d) context")
    return min(gaps(alpha_y.entries, alpha_z.entries, alpha_y.d - alpha_y.r)) >= 0


def component_problems(p: TwoComponentProblem, s: Stratum) -> tuple[BNProblem, BNProblem]:
    """The two-point problems induced on Y and Z by a stratum.

    Y carries (alpha1, alpha_y), Z carries (alpha_z, alpha2).
    """
    p_y = BNProblem(p.g_y, p.r, p.d, p.alpha1, s.alpha_y)
    p_z = BNProblem(p.g_z, p.r, p.d, s.alpha_z, p.alpha2)
    return p_y, p_z


def eh_nonempty_two_component(
    p: TwoComponentProblem,
    base_oracle: Callable[[BNProblem], bool],
) -> bool:
    """Scan refined strata; true iff some stratum has both components nonempty.

    ``base_oracle`` decides nonemptiness of a component problem.  Injecting it
    lets callers mix the general criterion with exact genus-0/1 oracles.  A
    scan over the enumeration budget is refused before the first stratum.
    """
    strata.refuse_strata_over_budget(p.r, p.d)
    for alpha_y, alpha_z in strata.enumerate_refined_strata(p.r, p.d):
        p_y, p_z = component_problems(p, Stratum(RamSeq(alpha_y, p.d), RamSeq(alpha_z, p.d)))
        if base_oracle(p_y) and base_oracle(p_z):
            return True
    return False
