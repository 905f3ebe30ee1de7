"""Ramification sequences and the sharp two-point nonemptiness inequality.

Conventions used throughout the package:

* A ramification sequence of a rank-``r``, degree-``d`` linear series at a
  point is a nondecreasing integer sequence ``alpha_0 <= ... <= alpha_r``
  with values in ``[0, d - r]``.
* The matching vanishing sequence is ``a_j = alpha_j + j``; it is strictly
  increasing with values in ``[0, d]``.
* ``rho`` is the adjusted Brill-Noether number

      rho = (r + 1)(d - r) - r*g - sum(alpha1) - sum(alpha2).

* ``nonempty_criterion`` decides whether a general twice-marked curve of
  genus ``g`` carries a series with ramification at least ``alpha1`` and
  ``alpha2`` at the marked points:

      sum_j max(0, alpha1_j + alpha2_{r-j} + r - d + g)  <=  g.

* ``gaps(x, y, bound) = [x_j + y_{r-j} - bound]`` is the single home of that
  two-point pairing: the criterion, the node condition of ``strata`` and the
  genus-0/1 base cases of ``realize`` all read their answers off it.  It
  works on plain entry tuples, and so do ``criterion_excess`` and
  ``rho_from_totals``, which ``criterion_sum`` and ``rho`` delegate to, so a
  scan over many sequences need not build a ``BNProblem`` for each.

All arithmetic is exact.  ``refuse_over_budget`` is the one check of the
enumeration budget that bounds every request; every other function in this
module is pure and safe to call concurrently.
"""

import os
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Iterator

DEFAULT_ENUM_BUDGET = 10**7


class InfeasibleSize(RuntimeError):
    """The requested enumeration exceeds the configured budget."""


def refuse_over_budget(size: int, unit: str, at_least: bool = False) -> None:
    """Raise InfeasibleSize when enumerating ``size`` ``unit`` exceeds the budget.

    The budget is BN_ENUM_BUDGET, or DEFAULT_ENUM_BUDGET when unset; ``at_least``
    marks ``size`` as a lower bound.  A size with more decimal digits than
    int-to-str conversion allows is named by the power of two below it.
    """
    raw = os.environ.get("BN_ENUM_BUDGET", DEFAULT_ENUM_BUDGET)
    try:
        limit = int(raw)
    except ValueError:  # a configuration failure, not invalid input
        raise RuntimeError(f"BN_ENUM_BUDGET must be an integer, got {raw!r}") from None
    if size > limit:
        try:
            text = str(size)
        except ValueError:  # the process-wide digit limit is left as it is
            text, at_least = f"2^{size.bit_length() - 1}", True
        bound = "at least " if at_least else ""
        raise InfeasibleSize(f"enumeration of {bound}{text} {unit} exceeds the budget of {limit}")


@dataclass(frozen=True, init=False)
class _Seq:
    """Validated integer sequence with its (r, d) context; r is len(entries) - 1.

    Subclasses set the bound (entries lie in [0, d - _shift * r]), the order
    (each entry is at least the previous one plus _step) and the wording of
    the messages (_kind, _order, and the _outside format).
    """

    entries: tuple[int, ...]
    d: int

    # written out rather than generated: the generated one would set both
    # fields, call __post_init__ and have it set them again, and strata scans
    # build two sequences per stratum
    def __init__(self, entries, d):
        entries = tuple(map(int, entries))
        d = int(d)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "d", d)
        if len(entries) == 0:
            raise ValueError(f"{self._kind} sequence must be nonempty")
        r = len(entries) - 1
        if not 0 <= r <= d:
            raise ValueError(f"need 0 <= r <= d, got r={r}, d={d}")
        bound = d - self._shift * r
        step = self._step
        low = 0  # the least value the next entry may take
        for j, a in enumerate(entries):
            if not 0 <= a <= bound:
                raise ValueError(self._outside.format(j=j, a=a, bound=bound, r=r, d=d))
            if a < low:
                raise ValueError(f"entries not {self._order} at index {j}")
            low = a + step

    @property
    def r(self) -> int:
        return len(self.entries) - 1

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, j):
        return self.entries[j]


class RamSeq(_Seq):
    """Ramification sequence: nondecreasing entries alpha_j in [0, d - r]."""

    _kind = "ramification"
    _shift = 1
    _step = 0
    _order = "nondecreasing"
    _outside = "entry alpha_{j}={a} outside [0, {bound}] for r={r}, d={d}"

    def total(self) -> int:
        return sum(self.entries)


class VanishingSeq(_Seq):
    """Strictly increasing vanishing orders a_0 < ... < a_r in [0, d]."""

    _kind = "vanishing"
    _shift = 0
    _step = 1
    _order = "strictly increasing"
    _outside = "entry a_{j}={a} outside [0, {bound}]"


def to_vanishing(alpha: RamSeq) -> VanishingSeq:
    """Convert a ramification sequence to its vanishing sequence a_j = alpha_j + j."""
    return VanishingSeq(tuple(a + j for j, a in enumerate(alpha)), alpha.d)


def from_vanishing(a: VanishingSeq) -> RamSeq:
    """Inverse of to_vanishing: alpha_j = a_j - j."""
    return RamSeq(tuple(x - j for j, x in enumerate(a)), a.d)


@dataclass(frozen=True)
class BNProblem:
    """A two-point problem (g, r, d, alpha1, alpha2).

    ``alpha1`` and ``alpha2`` are the minimal ramification imposed at the two
    marked points; both must be valid in the (r, d) context.
    """

    g: int
    r: int
    d: int
    alpha1: RamSeq
    alpha2: RamSeq

    def __post_init__(self):
        validate_problem(self.g, self.r, self.d, self.alpha1, self.alpha2)


def validate_problem(g: int, r: int, d: int, alpha1: RamSeq, alpha2: RamSeq) -> None:
    """Raise ValueError unless (g, r, d, alpha1, alpha2) is a valid BNProblem."""
    if g < 0:
        raise ValueError(f"genus must be nonnegative, got {g}")
    if not 0 <= r <= d:
        raise ValueError(f"need 0 <= r <= d, got r={r}, d={d}")
    for name, alpha in (("alpha1", alpha1), ("alpha2", alpha2)):
        if not isinstance(alpha, RamSeq):
            raise ValueError(f"{name} must be a RamSeq")
        if alpha.d != d or alpha.r != r:
            raise ValueError(
                f"{name} has context (r={alpha.r}, d={alpha.d}), expected (r={r}, d={d})"
            )


def zero_ram(r: int, d: int) -> RamSeq:
    return RamSeq((0,) * (r + 1), d)


def problem(g, r, d, alpha1=None, alpha2=None) -> BNProblem:
    """Build a BNProblem from plain integer sequences (None means all zero)."""
    a1 = zero_ram(r, d) if alpha1 is None else RamSeq(tuple(alpha1), d)
    a2 = zero_ram(r, d) if alpha2 is None else RamSeq(tuple(alpha2), d)
    return BNProblem(g, r, d, a1, a2)


def rho_from_totals(g: int, r: int, d: int, total1: int, total2: int) -> int:
    """rho of a (g, r, d) problem whose two sequences sum to total1 and total2."""
    return (r + 1) * (d - r) - r * g - total1 - total2


def rho(p: BNProblem) -> int:
    """Adjusted Brill-Noether number; may be negative."""
    return rho_from_totals(p.g, p.r, p.d, p.alpha1.total(), p.alpha2.total())


def gaps(x: tuple[int, ...], y: tuple[int, ...], bound: int) -> list[int]:
    """The two-point pairing [x_j + y_{r-j} - bound for j = 0..r] on entry tuples of one length."""
    out = []  # a plain loop is cheaper than a comprehension on these short sequences
    for a, b in zip(x, y[::-1]):
        out.append(a + b - bound)
    return out


def criterion_excess(g: int, r: int, d: int, x: tuple[int, ...], y: tuple[int, ...]) -> int:
    """criterion_sum of the problem (g, r, d, x, y), read off its entry tuples."""
    total = 0
    for s in gaps(x, y, d - r - g):
        if s > 0:
            total += s
    return total


def criterion_sum(p: BNProblem) -> int:
    """Total positive part sum_j max(0, alpha1_j + alpha2_{r-j} + r - d + g).

    The summand is positive exactly on the index set of the nonemptiness
    inequality, so the criterion is ``criterion_sum(p) <= g``.
    """
    return criterion_excess(p.g, p.r, p.d, p.alpha1.entries, p.alpha2.entries)


def nonempty_criterion(p: BNProblem) -> bool:
    """Sharp nonemptiness test for a general twice-marked genus-g curve."""
    return criterion_sum(p) <= p.g


def all_ram_seqs(r: int, d: int) -> Iterator[RamSeq]:
    """All valid ramification sequences for (r, d), in lexicographic order.

    There are C(d+1, r+1) of them.
    """
    for entries in combinations_with_replacement(range(d - r + 1), r + 1):
        yield RamSeq(entries, d)


def all_problems(g: int, r: int, d: int) -> Iterator[BNProblem]:
    """All two-point problems for fixed (g, r, d), over every (alpha1, alpha2)."""
    seqs = list(all_ram_seqs(r, d))
    for a1 in seqs:
        for a2 in seqs:
            yield BNProblem(g, r, d, a1, a2)
