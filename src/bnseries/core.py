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
  ``criterion_table`` tabulates that pairing against one fixed sequence,
  built from ``gaps`` too, so a scan reads each criterion by lookup.

All arithmetic is exact.  ``refuse_over_budget`` is the one check of the
enumeration budget that bounds every request; every other function in this
module is pure and safe to call concurrently.

Every value class of the package derives from the private ``_Value``:
immutable ``__slots__`` fields, equality within one class and the field
tuple as hash, without the import cost of ``dataclasses``.
"""

import os
import sys
from collections.abc import Iterator
from itertools import combinations_with_replacement

DEFAULT_ENUM_BUDGET = 10**7


class InfeasibleSize(RuntimeError):
    """The requested enumeration exceeds the configured budget."""


def _enum_budget() -> int:
    """BN_ENUM_BUDGET, or DEFAULT_ENUM_BUDGET when unset, read afresh on every call."""
    raw = os.environ.get("BN_ENUM_BUDGET", DEFAULT_ENUM_BUDGET)
    try:
        return int(raw)
    except ValueError:  # a configuration failure, not invalid input
        raise RuntimeError(f"BN_ENUM_BUDGET must be an integer, got {raw!r}") from None


def refuse_over_budget(size, unit: str, at_least: bool = False, floor_log2: int = 0) -> None:
    """Raise InfeasibleSize when enumerating ``size`` ``unit`` exceeds the budget.

    The budget is _enum_budget(); ``at_least`` marks ``size`` as a lower
    bound.  A size with more decimal digits than int-to-str conversion
    allows is named by the power of two below it.  ``size`` may be a
    function computing it, not called when 2^floor_log2 <= size is too long
    to print (2^(4n) > 10^n for a limit of n digits): that power names it,
    and it is over the budget, which was parsed from at most n digits.
    """
    limit = _enum_budget()
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if 0 < 4 * digits <= floor_log2:
        raise InfeasibleSize(f"enumeration of at least 2^{floor_log2} {unit} exceeds the budget of {limit}")
    size = size() if callable(size) else size
    if size > limit:
        try:
            text = str(size)
        except ValueError:  # the process-wide digit limit is left as it is
            text, at_least = f"2^{size.bit_length() - 1}", True
        bound = "at least " if at_least else ""
        raise InfeasibleSize(f"enumeration of {bound}{text} {unit} exceeds the budget of {limit}")


def _comb_floor_log2(n: int, k: int) -> int:
    """An N with 2^N <= C(n, k) for 0 <= k <= n, in O(1): C(n, m) >= (n / m)^m for m = min(k, n - k)."""
    m = min(k, n - k)
    return m * ((n // m).bit_length() - 1) if m else 0


_set = object.__setattr__  # how a value class's __init__ sets its fields


class _Value:
    """Immutable value: the fields named in _fields, kept in __slots__.

    A subclass's __init__ sets each field with _set and their tuple as _key
    (_store does both, more slowly), then validates.  Values of one class are
    equal when their keys are, and copies and pickles go through __init__.
    """

    __slots__ = ("_key",)

    def _store(self, key):
        _set(self, "_key", key)
        for name, value in zip(self._fields, key):
            _set(self, name, value)

    def __eq__(self, other):
        return self._key == other._key if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete field {name!r} of an immutable value")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._key


def _refuse_non_int(value, what: str):
    """Raise ValueError for a value whose type is not exactly int (bool included).

    A string is passed to int() first, so one that is no integer keeps int's own message.
    """
    if isinstance(value, str):
        int(value)
    raise ValueError(f"{what} must be an int, got {value!r}")


def _refuse_non_ints(fields: dict) -> None:
    """_refuse_non_int for the first value of fields, by name, whose type is not exactly int."""
    for name, value in fields.items():
        if type(value) is not int:
            _refuse_non_int(value, name)


def _refuse_wrong_kind(fields: dict, kind: type) -> None:
    """Raise ValueError for the first value of fields, by name, that is not a kind instance."""
    for name, value in fields.items():
        if not isinstance(value, kind):
            raise ValueError(f"{name} must be a {kind.__name__}")


class _Seq(_Value):
    """Validated integer sequence with its (r, d) context; r is len(entries) - 1.

    The entries and d must be of type int exactly: nothing is coerced, and a
    bool, float or integer string is refused.

    Subclasses set the bound (entries lie in [0, d - _shift * r]), the order
    (each entry is at least the previous one plus _step) and the wording of
    the messages (_kind, _order, and the _outside format).
    """

    __slots__ = _fields = ("entries", "d")

    # valid entries cost a type test and one comparison each (scans build many);
    # _reject words a bad one
    def __init__(self, entries, d):
        try:
            entries = tuple(entries)
        except TypeError:
            raise ValueError(f"{self._kind} entries must be a sequence of ints") from None
        _set(self, "entries", entries)
        _set(self, "d", d)
        _set(self, "_key", (entries, d))
        if type(d) is not int:
            _refuse_non_int(d, "d")
        if not entries:
            raise ValueError(f"{self._kind} sequence must be nonempty")
        r = len(entries) - 1
        if not 0 <= r <= d:
            raise ValueError(f"need 0 <= r <= d, got r={r}, d={d}")
        bound = d - self._shift * r
        step = self._step
        low = 0  # the least value the next entry may take, never negative
        for a in entries:
            if type(a) is not int or not low <= a <= bound:
                self._reject(bound)
            low = a + step

    def _reject(self, bound):
        r, d, low = self.r, self.d, 0
        for j, a in enumerate(self.entries):
            if type(a) is not int:
                _refuse_non_int(a, f"{self._kind} entry {j}")
            if not 0 <= a <= bound:
                raise ValueError(self._outside.format(j=j, a=a, bound=bound, r=r, d=d))
            if a < low:
                raise ValueError(f"entries not {self._order} at index {j}")
            low = a + self._step

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

    __slots__ = ()
    _kind = "ramification"
    _shift = 1
    _step = 0
    _order = "nondecreasing"
    _outside = "entry alpha_{j}={a} outside [0, {bound}] for r={r}, d={d}"

    def total(self) -> int:
        return sum(self.entries)


class VanishingSeq(_Seq):
    """Strictly increasing vanishing orders a_0 < ... < a_r in [0, d]."""

    __slots__ = ()
    _kind = "vanishing"
    _shift = 0
    _step = 1
    _order = "strictly increasing"
    _outside = "entry a_{j}={a} outside [0, {bound}]"


def to_vanishing(alpha: RamSeq) -> VanishingSeq:
    """Convert a ramification sequence to its vanishing sequence a_j = alpha_j + j."""
    return VanishingSeq(tuple(a + j for j, a in enumerate(alpha)), alpha.d)


class BNProblem(_Value):
    """A two-point problem (g, r, d, alpha1, alpha2).

    ``alpha1`` and ``alpha2`` are the minimal ramification imposed at the two
    marked points; both must be valid in the (r, d) context.
    """

    __slots__ = _fields = ("g", "r", "d", "alpha1", "alpha2")

    def __init__(self, g, r, d, alpha1, alpha2):
        _set(self, "g", g)
        _set(self, "r", r)
        _set(self, "d", d)
        _set(self, "alpha1", alpha1)
        _set(self, "alpha2", alpha2)
        _set(self, "_key", (g, r, d, alpha1, alpha2))
        validate_problem(g, r, d, alpha1, alpha2)


def validate_problem(g: int, r: int, d: int, alpha1: RamSeq, alpha2: RamSeq) -> None:
    """Raise ValueError unless (g, r, d, alpha1, alpha2) is a valid BNProblem."""
    if type(g) is not int or type(r) is not int or type(d) is not int:
        _refuse_non_ints({"g": g, "r": r, "d": d})
    if g < 0:
        raise ValueError(f"genus must be nonnegative, got {g}")
    if not 0 <= r <= d:
        raise ValueError(f"need 0 <= r <= d, got r={r}, d={d}")
    for name, alpha in (("alpha1", alpha1), ("alpha2", alpha2)):
        if not isinstance(alpha, RamSeq):
            raise ValueError(f"{name} must be a RamSeq")
        if alpha.d != d or len(alpha.entries) != r + 1:  # alpha.r, without the property call
            raise ValueError(
                f"{name} has context (r={alpha.r}, d={alpha.d}), expected (r={r}, d={d})"
            )


def zero_ram(r: int, d: int) -> RamSeq:
    if type(r) is not int:  # (0,) * (r + 1) would raise TypeError, or accept a bool
        _refuse_non_int(r, "r")
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


def criterion_table(g: int, r: int, d: int, fixed: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Rows t[i][v] = max(0, fixed[r-i] + v - (d - r - g)) for v in [0, d - r], so that
    criterion_excess(g, r, d, fixed, y) == criterion_excess(g, r, d, y, fixed) == sum(t[i][y[i]]).
    Row i counts up from s = gaps((0, ..., 0), fixed, d - r - g)[i], clamped at 0."""
    n, rows = d - r + 1, []
    for s in gaps((0,) * (r + 1), fixed, d - r - g):
        zeros = min(max(-s, 0), n)  # the entries with s + v <= 0
        rows.append((0,) * zeros + tuple(range(s + zeros, s + n)))
    return rows


def criterion_sum(p: BNProblem) -> int:
    """Total positive part sum_j max(0, alpha1_j + alpha2_{r-j} + r - d + g).

    The summand is positive exactly on the index set of the nonemptiness
    inequality, so the criterion is ``criterion_sum(p) <= g``.
    """
    return criterion_excess(p.g, p.r, p.d, p.alpha1.entries, p.alpha2.entries)


def nonempty_criterion(p: BNProblem) -> bool:
    """Sharp nonemptiness test for a general twice-marked genus-g curve."""
    return criterion_sum(p) <= p.g


def _ram_entries(r: int, d: int) -> Iterator[tuple[int, ...]]:
    """The entry tuples of all_ram_seqs(r, d), in its order and unvalidated; the first is all zero."""
    return combinations_with_replacement(range(d - r + 1), r + 1)


def all_ram_seqs(r: int, d: int) -> Iterator[RamSeq]:
    """All valid ramification sequences for (r, d), in lexicographic order.

    There are C(d+1, r+1) of them.
    """
    for entries in _ram_entries(r, d):
        yield RamSeq(entries, d)
