"""Witness chains of elliptic components for the two-point nonemptiness criterion.

A problem of genus g >= 1 satisfying the criterion is realized by a chain of
g genus-1 components (a single genus-0 component when g = 0).  Each component
carries a left and right ramification sequence; consecutive components meet in
a node where the sequences are exact complements, the outer ends carry the
imposed alpha1 and alpha2, and every component passes the genus-0/1 base-case
criterion.  Component rho values then add up to rho of the original problem.

``split_once`` peels one genus-1 component off a genus >= 2 problem in one
O(r) pass: its node is the lowered alpha1 complement, with one slot raised
exactly when the criterion is tight.

A chain has one form: a tuple of ``(genus, left, right, rho)`` components,
their sequences as entry tuples.  A witness is ``(r, d, chain, total_rho)``:
``build_chain`` and ``witness_from_dict`` return one, ``chain_violations``
checks one, and ``witness_to_dict`` serializes one.  A genus-g chain is one
genus-1 component and then the chain of the residual genus-(g-1) problem.
``_chain_entries`` builds every chain that way.  Given chains of genus
g - 1 (the CLI's ``sweep`` passes its previous genus layer), it takes the
first residual's chain from them when it is there, instead of splitting on.
"""

import json

from .core import BNProblem, RamSeq, criterion_excess, gaps, nonempty_criterion, rho, rho_from_totals
from .strata import complement_entries


def split_once(g: int, r: int, d: int, alpha1: tuple, alpha2: tuple) -> tuple[tuple, tuple]:
    """Split one genus-1 component off the genus >= 2 problem (g, r, d, alpha1, alpha2) of entry tuples.

    The tuples must be entries of valid sequences in the (r, d) context; they
    are not checked here.  Returns the node (alpha_y, alpha_z), alpha_z =
    complement_entries(alpha_y, d - r), first in lexicographic order where
    (alpha1, alpha_y) at genus 1 and (alpha_z, alpha2) at genus g - 1 pass the
    criterion, among y[k] = max(0, d - r - 1 - alpha1[r - k]) and its sorted
    one-slot raises to d - r - alpha1[r - k].  That is y, raised at r - j for
    the first j of positive gap w[j] = alpha1[j] + alpha2[r - j] - (d - r - g)
    when the sum is g and alpha1[-1] < d - r.  Proof:
    - y's genus-1 gaps are 1 where alpha1[j] = d - r, else 0: their sum is the
      count c of such j, and a raise adds 1.  There w[j] = alpha2[r - j] + g,
      so c >= 2 is refused; c = 0 exactly when alpha1[-1] < d - r.
    - At a refined node the problem's gaps are the genus-1 gaps plus the
      residual gaps, so y is valid unless c = 0 and the sum is exactly g.
    - Then raising slot t is valid exactly when w[r - t] > 0.  It stays sorted
      when j = r - t starts a run of alpha1, and a later t sorts first.  Gaps
      do not increase along a run, so the first positive j starts its run.
    """
    if g < 2:
        raise ValueError("split_once needs genus >= 2")
    whole = gaps(alpha1, alpha2, d - r - g)
    total = 0  # a loop: a generator's sum costs twice as much on these short sequences
    for s in whole:
        if s > 0:
            total += s
    if total > g:
        raise ValueError("split_once needs a problem satisfying the criterion")
    low = d - r - 1
    y = [low - a if a <= low else 0 for a in reversed(alpha1)]
    if total == g and alpha1[-1] <= low:
        for j, s in enumerate(whole):
            if s > 0:
                y[r - j] += 1
                break
    alpha_y = tuple(y)
    return alpha_y, complement_entries(alpha_y, d - r)


def _component(genus: int, r: int, d: int, left: tuple, right: tuple) -> tuple:
    """A chain component as a (genus, left, right, rho) tuple, its sequences as entry tuples."""
    return genus, left, right, rho_from_totals(genus, r, d, sum(left), sum(right))


def _chain_entries(g: int, r: int, d: int, alpha1: tuple, alpha2: tuple, tails=None) -> tuple:
    """The chain of a problem of entry tuples satisfying the criterion, as ``_component`` tuples.

    ``tails`` may map (d, alpha1, alpha2) entry tuples to chains of genus
    g - 1: the first residual's chain is read there when it is present, and
    split further like any other residual when it is not.
    """
    chain, left = [], alpha1
    for k in range(g, 1, -1):
        alpha_y, alpha_z = split_once(k, r, d, left, alpha2)
        chain.append(_component(1, r, d, left, alpha_y))
        tail = tails.get((d, alpha_z, alpha2)) if tails and k == g else None
        if tail:
            return (*chain, *tail)
        left = alpha_z
    chain.append(_component(min(g, 1), r, d, left, alpha2))
    return tuple(chain)


def build_chain(p: BNProblem) -> tuple | None:
    """The witness (r, d, chain, total_rho) of p, or None when the criterion fails.

    Genus 0 and 1 problems become a single component; larger genus peels off
    genus-1 components by induction via split_once.
    """
    if not nonempty_criterion(p):
        return None
    return p.r, p.d, _chain_entries(p.g, p.r, p.d, p.alpha1.entries, p.alpha2.entries), rho(p)


def chain_violations(w: tuple, p: BNProblem) -> list[str]:
    """All invariant violations of a witness (r, d, chain, total_rho) against a problem; empty means valid.

    Checks are independent of how the witness was built: stored rho values,
    base-case criteria, node complements, endpoints, genus bookkeeping, and
    total rho.  The components' sequences must be entry tuples of the
    witness's (r, d) context, as ``witness_from_dict`` guarantees.
    """
    r, d, chain, total_rho = w
    out = []
    if (r, d) != (p.r, p.d):
        out.append(f"chain context (r={r}, d={d}) != problem (r={p.r}, d={p.d})")
        return out
    for i, (genus, left, right, h) in enumerate(chain):
        expected = rho_from_totals(genus, r, d, sum(left), sum(right))
        if h != expected:
            out.append(f"component {i}: stored rho {h} != {expected}")
        if criterion_excess(genus, r, d, left, right) > genus:
            out.append(f"component {i}: genus-{genus} base-case criterion fails")
    for i in range(len(chain) - 1):
        if chain[i + 1][1] != complement_entries(chain[i][2], d - r):
            out.append(f"node {i}: sequences are not exact complements")
    if chain[0][1] != p.alpha1.entries:
        out.append("left endpoint does not carry alpha1")
    if chain[-1][2] != p.alpha2.entries:
        out.append("right endpoint does not carry alpha2")
    genera = [c[0] for c in chain]
    if p.g == 0:
        if genera != [0]:
            out.append(f"genus-0 problem needs a single genus-0 component, got {genera}")
    else:
        if genera != [1] * p.g:
            out.append(f"expected {p.g} genus-1 components, got {genera}")
    total = sum(c[3] for c in chain)
    if total_rho != total:
        out.append(f"stored total rho {total_rho} != component sum {total}")
    if total != rho(p):
        out.append(f"component rho sum {total} != problem rho {rho(p)}")
    return out


def witness_to_dict(w: tuple) -> dict:
    """The serialized witness (r, d, chain, total_rho), in lists and dicts of its own."""
    r, d, chain, total_rho = w
    components = []  # a loop: a comprehension costs about a fifth more on chains this short
    for k, x, y, h in chain:
        components.append({"genus": k, "left": [*x], "rho": h, "right": [*y]})
    return {"components": components, "d": d, "r": r, "total_rho": total_rho}


def _witness_int(value, what: str) -> int:
    """value when it is a JSON integer; any other value is a malformed witness."""
    number = int(value)  # first, so a non-numeric string keeps int()'s own message
    if type(value) is not int:  # bool, float and integer strings
        raise ValueError(
            f"malformed chain witness: {what} must be an integer, got {json.dumps(value, default=repr)}"
        )
    return number


def witness_from_dict(data: dict) -> tuple:
    """Parse a serialized witness into (r, d, chain, total_rho); raises ValueError on malformed input.

    Each sequence must be a valid RamSeq of the witness's d, each component
    of genus 0 or 1 with sides of one length, and every component's length
    r + 1.
    """
    try:
        r, d = _witness_int(data["r"], "r"), _witness_int(data["d"], "d")
        chain = []
        for c in data["components"]:
            genus = _witness_int(c["genus"], "genus")
            left = RamSeq(tuple(_witness_int(a, "left") for a in c["left"]), d).entries
            right = RamSeq(tuple(_witness_int(a, "right") for a in c["right"]), d).entries
            chain.append((genus, left, right, _witness_int(c["rho"], "rho")))
            if genus not in (0, 1):
                raise ValueError("chain components have genus 0 or 1")
            if len(left) != len(right):
                raise ValueError("left/right sequences must share the (r, d) context")
        total_rho = _witness_int(data["total_rho"], "total_rho")
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed chain witness: {exc}") from exc
    if not chain:
        raise ValueError("a chain needs at least one component")
    if any(len(left) != r + 1 for _, left, _, _ in chain):
        raise ValueError("component context does not match the chain")
    return r, d, tuple(chain), total_rho
