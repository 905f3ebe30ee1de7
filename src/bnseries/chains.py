"""Witness chains of elliptic components for the two-point nonemptiness criterion.

A problem of genus g >= 1 satisfying the criterion is realized by a chain of
g genus-1 components (a single genus-0 component when g = 0).  Each component
carries a left and right ramification sequence; consecutive components meet in
a node where the sequences are exact complements, the outer ends carry the
imposed alpha1 and alpha2, and every component passes the genus-0/1 base-case
criterion.  Component rho values then add up to rho of the original problem.

``split_once`` peels one genus-1 component off a genus >= 2 problem.  Its
candidate nodes are the reversed alpha1 complement lowered by one (clamped at
0), then that sequence with one run's last slot raised, rightmost run first:
lexicographic order.  It keeps the first valid on both sides in O(r), by
updating the two sides' criterion sums per candidate.  One bounded memo
(1024 entries, r < 64 only) holds the part that only alpha1 decides.

``split_once`` and ``_chain_entries`` take and return entry tuples;
``build_chain`` wraps the latter's chain in value objects.  A genus-g chain
is one genus-1 component and then the chain of the residual genus-(g-1)
problem, so the CLI's ``sweep``, which visits genus g - 1 first, builds only
that component per chain and reads the rest from that layer.
"""

import json
from functools import lru_cache

from .core import (
    BNProblem, RamSeq, _refuse_non_ints, _refuse_wrong_kind, _set, _Value, gaps, nonempty_criterion, rho,
    rho_from_totals,
)
from .strata import complement_entries


class ConstructionFailed(RuntimeError):
    """No candidate split validates; must not happen when the criterion holds."""


class ChainComponent(_Value):
    """One component of a chain, marked on the left and right.

    Only structural validity is enforced here; the base-case criterion, the
    stored rho value and the node complements are re-checked independently by
    ``chain_violations`` so that tampered witnesses are representable and
    rejected.
    """

    __slots__ = _fields = ("genus", "left_ram", "right_ram", "component_rho")

    def __init__(self, genus, left_ram, right_ram, component_rho):
        _set(self, "genus", genus)
        _set(self, "left_ram", left_ram)
        _set(self, "right_ram", right_ram)
        _set(self, "component_rho", component_rho)
        _set(self, "_key", (genus, left_ram, right_ram, component_rho))
        if type(genus) is not int or type(component_rho) is not int:
            _refuse_non_ints({"genus": genus, "component_rho": component_rho})
        if genus not in (0, 1):
            raise ValueError("chain components have genus 0 or 1")
        if not (isinstance(left_ram, RamSeq) and isinstance(right_ram, RamSeq)):
            _refuse_wrong_kind({"left_ram": left_ram, "right_ram": right_ram}, RamSeq)
        if left_ram.d != right_ram.d or len(left_ram.entries) != len(right_ram.entries):
            raise ValueError("left/right sequences must share the (r, d) context")


class ChainWitness(_Value):
    __slots__ = _fields = ("r", "d", "components", "total_rho")

    def __init__(self, r, d, components, total_rho):
        _set(self, "r", r)
        _set(self, "d", d)
        _set(self, "components", components)
        _set(self, "total_rho", total_rho)
        _set(self, "_key", (r, d, components, total_rho))
        if type(r) is not int or type(d) is not int or type(total_rho) is not int:
            _refuse_non_ints({"r": r, "d": d, "total_rho": total_rho})
        if type(components) is not tuple:
            raise ValueError("components must be a tuple of ChainComponents")
        if not components:
            raise ValueError("a chain needs at least one component")
        for i, c in enumerate(components):  # kept cheap: it runs for every component of every chain built
            if type(c) is not ChainComponent:
                _refuse_wrong_kind({f"components[{i}]": c}, ChainComponent)
            if c.left_ram.d != d or len(c.left_ram.entries) != r + 1:
                raise ValueError("component context does not match the chain")


# split_once's memo: _MEMO_SIZE entries, for r < _MEMO_R only; about 6 MB at worst
_MEMO_SIZE, _MEMO_R = 1024, 64


@lru_cache(maxsize=_MEMO_SIZE)
def _genus1_side(alpha1: tuple[int, ...], d: int) -> tuple:
    """(base, gaps1, order): split_once's candidates as far as alpha1 decides them.

    base[k] = max(0, d - r - 1 - alpha1[r - k]) is nondecreasing, so raising
    slot k to d - r - alpha1[r - k] and sorting raises the last slot t of k's
    run: the candidates are base (None), then run ends t from right to left.
    ``order`` keeps those valid against alpha1, read off base's gaps gaps1:
    raising t adds 1 to gaps1[r - t], already 1 where the raise changes nothing.
    """
    r = len(alpha1) - 1
    base = tuple([max(0, d - r - 1 - a) for a in reversed(alpha1)])
    gaps1 = gaps(alpha1, base, d - r - 1)
    excess = sum(s for s in gaps1 if s > 0)
    order = [None] if excess <= 1 else []
    for t in range(r, -1, -1):
        if (t == r or base[t] < base[t + 1]) and excess + (gaps1[r - t] >= 0) <= 1:
            order.append(t)
    return base, gaps1, tuple(order)


def split_once(g: int, r: int, d: int, alpha1: tuple, alpha2: tuple) -> tuple[tuple, tuple]:
    """Split one genus-1 component off the genus >= 2 problem (g, r, d, alpha1, alpha2) of entry tuples.

    The tuples must be entries of valid sequences in the (r, d) context; they
    are not checked here.  Returns the node's entry tuples (alpha_y, alpha_z),
    alpha_z = complement_entries(alpha_y, d - r), such that the genus-1 problem
    (alpha1, alpha_y) and the residual genus-(g-1) problem (alpha_z, alpha2)
    both satisfy the nonemptiness criterion; alpha_y is the first such
    candidate of ``_genus1_side``.  Costs O(r): at a refined node the
    problem's criterion gaps are the genus-1 gaps plus the residual gaps, and
    raising slot t of the candidate takes 1 off residual gap r - t.
    """
    if g < 2:
        raise ValueError("split_once needs genus >= 2")
    whole = gaps(alpha1, alpha2, d - r - g)  # the problem's criterion, checked before any memo
    total = 0  # a loop: a generator's sum costs twice as much on these short sequences
    for s in whole:
        if s > 0:
            total += s
    if total > g:
        raise ValueError("split_once needs a problem satisfying the criterion")
    base, gaps1, order = (_genus1_side if r < _MEMO_R else _genus1_side.__wrapped__)(alpha1, d)
    excess = 0  # of the residual side at base, whose gaps are whole - gaps1
    for s, s1 in zip(whole, gaps1):
        if s > s1:
            excess += s - s1
    for t in order:
        if excess - (t is not None and whole[r - t] > gaps1[r - t]) <= g - 1:
            alpha_y = base if t is None else base[:t] + (base[t] + 1,) + base[t + 1:]
            return alpha_y, complement_entries(alpha_y, d - r)
    raise ConstructionFailed(f"no valid split for g={g}, r={r}, d={d}, alpha1={alpha1}, alpha2={alpha2}")


def _component(genus: int, r: int, d: int, left: tuple, right: tuple) -> tuple:
    """A chain component as a (genus, left, right, rho) tuple, its sequences as entry tuples."""
    return genus, left, right, rho_from_totals(genus, r, d, sum(left), sum(right))


def _chain_entries(g: int, r: int, d: int, alpha1: tuple, alpha2: tuple) -> tuple:
    """The chain of a problem of entry tuples satisfying the criterion, as ``_component`` tuples."""
    chain, left = [], alpha1
    for k in range(g, 1, -1):
        alpha_y, alpha_z = split_once(k, r, d, left, alpha2)
        chain.append(_component(1, r, d, left, alpha_y))
        left = alpha_z
    chain.append(_component(min(g, 1), r, d, left, alpha2))
    return tuple(chain)


def build_chain(p: BNProblem) -> ChainWitness | None:
    """Construct a verified witness chain, or None when the criterion fails.

    Genus 0 and 1 problems become a single component; larger genus peels off
    genus-1 components by induction via split_once.
    """
    if not nonempty_criterion(p):
        return None
    chain = _chain_entries(p.g, p.r, p.d, p.alpha1.entries, p.alpha2.entries)
    components = tuple(ChainComponent(k, RamSeq(x, p.d), RamSeq(y, p.d), h) for k, x, y, h in chain)
    return ChainWitness(p.r, p.d, components, rho(p))


def chain_violations(w: ChainWitness, p: BNProblem) -> list[str]:
    """All invariant violations of a witness against a problem; empty means valid.

    Checks are independent of how the witness was built: stored rho values,
    base-case criteria, node complements, endpoints, genus bookkeeping, and
    total rho.
    """
    out = []
    if (w.r, w.d) != (p.r, p.d):
        out.append(f"chain context (r={w.r}, d={w.d}) != problem (r={p.r}, d={p.d})")
        return out
    n = len(w.components)
    for i, c in enumerate(w.components):
        cp = BNProblem(c.genus, w.r, w.d, c.left_ram, c.right_ram)
        expected = rho(cp)
        if c.component_rho != expected:
            out.append(f"component {i}: stored rho {c.component_rho} != {expected}")
        if not nonempty_criterion(cp):
            out.append(f"component {i}: genus-{c.genus} base-case criterion fails")
    for i in range(n - 1):  # the witness's components all have the context (w.r, w.d)
        right = w.components[i].right_ram.entries
        if w.components[i + 1].left_ram.entries != complement_entries(right, w.d - w.r):
            out.append(f"node {i}: sequences are not exact complements")
    if w.components[0].left_ram != p.alpha1:
        out.append("left endpoint does not carry alpha1")
    if w.components[-1].right_ram != p.alpha2:
        out.append("right endpoint does not carry alpha2")
    genera = [c.genus for c in w.components]
    if p.g == 0:
        if genera != [0]:
            out.append(f"genus-0 problem needs a single genus-0 component, got {genera}")
    else:
        if genera != [1] * p.g:
            out.append(f"expected {p.g} genus-1 components, got {genera}")
    total = sum(c.component_rho for c in w.components)
    if w.total_rho != total:
        out.append(f"stored total rho {w.total_rho} != component sum {total}")
    if total != rho(p):
        out.append(f"component rho sum {total} != problem rho {rho(p)}")
    return out


def _chain_dict(r: int, d: int, chain, total_rho: int) -> dict:
    """The serialized witness of a chain of (genus, left, right, rho) tuples, in lists and dicts of its own."""
    components = []  # a loop: a comprehension costs about a fifth more on chains this short
    for k, x, y, h in chain:
        components.append({"genus": k, "left": [*x], "rho": h, "right": [*y]})
    return {"components": components, "d": d, "r": r, "total_rho": total_rho}


def witness_to_dict(w: ChainWitness) -> dict:
    chain = [(c.genus, c.left_ram.entries, c.right_ram.entries, c.component_rho) for c in w.components]
    return _chain_dict(w.r, w.d, chain, w.total_rho)


def _witness_int(value, what: str) -> int:
    """value when it is a JSON integer; any other value is a malformed witness."""
    number = int(value)  # first, so a non-numeric string keeps int()'s own message
    if type(value) is not int:  # bool, float and integer strings
        raise ValueError(
            f"malformed chain witness: {what} must be an integer, got {json.dumps(value, default=repr)}"
        )
    return number


def witness_from_dict(data: dict) -> ChainWitness:
    """Parse a serialized witness; raises ValueError on malformed input."""
    try:
        r, d = _witness_int(data["r"], "r"), _witness_int(data["d"], "d")
        components = tuple(
            ChainComponent(
                _witness_int(c["genus"], "genus"),
                RamSeq(tuple(_witness_int(a, "left") for a in c["left"]), d),
                RamSeq(tuple(_witness_int(a, "right") for a in c["right"]), d),
                _witness_int(c["rho"], "rho"),
            )
            for c in data["components"]
        )
        return ChainWitness(r, d, components, _witness_int(data["total_rho"], "total_rho"))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed chain witness: {exc}") from exc
