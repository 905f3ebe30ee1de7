from fractions import Fraction

import pytest

from bnseries.chains import (
    ChainComponent,
    ChainWitness,
    _component,
    build_chain,
    chain_violations,
    split_once,
    witness_from_dict,
    witness_to_dict,
)
from bnseries.core import (
    BNProblem,
    RamSeq,
    all_ram_seqs,
    criterion_sum,
    nonempty_criterion,
    problem,
    rho,
)
from bnseries.strata import refined_complement
from reference import all_problems


def _entries(p):
    """split_once's arguments for the problem p."""
    return p.g, p.r, p.d, p.alpha1.entries, p.alpha2.entries

def test_split_once_strict_case():
    ay, az = split_once(*_entries(problem(3, 1, 3)))
    assert ay == (1, 1)
    assert az == (1, 1)


def test_split_once_equality_case_needs_sorting():
    # the closed-form candidate (1, 0) is not nondecreasing; the search finds (0, 1)
    ay, az = split_once(*_entries(problem(2, 1, 3, (1, 1), (0, 0))))
    assert ay == (0, 1)
    assert az == (1, 2)


def test_split_once_rank_zero():
    # alpha_y = (0) fails the residual side: the genus-1 problem ((2), (1))
    # has criterion sum 2 > 1, so the raised candidate (1) is the split
    ay, az = split_once(*_entries(problem(2, 0, 2, (1,), (1,))))
    assert ay == (1,)
    assert az == (1,)
    assert nonempty_criterion(problem(1, 0, 2, (1,), ay))
    assert nonempty_criterion(problem(1, 0, 2, az, (1,)))


def test_split_once_preconditions():
    with pytest.raises(ValueError):
        split_once(*_entries(problem(1, 1, 3)))
    with pytest.raises(ValueError):
        split_once(*_entries(problem(2, 1, 2, (0, 1), (0, 1))))


def test_split_once_postconditions_on_grid():
    for g in range(2, 5):
        for d in range(5):
            for r in range(0, min(2, d) + 1):
                for p in all_problems(g, r, d):
                    if not nonempty_criterion(p):
                        continue
                    ay, az = split_once(*_entries(p))
                    assert RamSeq(az, d) == refined_complement(RamSeq(ay, d))
                    assert nonempty_criterion(BNProblem(1, r, d, p.alpha1, RamSeq(ay, d)))
                    assert nonempty_criterion(BNProblem(g - 1, r, d, RamSeq(az, d), p.alpha2))


def test_build_chain_known_witness():
    p = problem(3, 1, 3)
    w = build_chain(p)
    assert [c.genus for c in w.components] == [1, 1, 1]
    assert [(c.left_ram.entries, c.right_ram.entries) for c in w.components] == [
        ((0, 0), (1, 1)),
        ((1, 1), (0, 1)),
        ((1, 2), (0, 0)),
    ]
    assert [c.component_rho for c in w.components] == [1, 0, 0]
    assert w.total_rho == 1 == rho(p)
    assert not chain_violations(w, p)


def test_build_chain_empty():
    assert build_chain(problem(1, 1, 2, (0, 1), (0, 1))) is None


def test_build_chain_base_cases():
    w0 = build_chain(problem(0, 1, 3, (0, 1), (0, 0)))
    assert [c.genus for c in w0.components] == [0]
    assert not chain_violations(w0, problem(0, 1, 3, (0, 1), (0, 0)))
    w1 = build_chain(problem(1, 1, 3, (1, 2), (0, 0)))
    assert [c.genus for c in w1.components] == [1]
    assert not chain_violations(w1, problem(1, 1, 3, (1, 2), (0, 0)))


def test_verify_rejects_perturbed_node():
    p = problem(3, 1, 3)
    w = build_chain(p)
    c0 = w.components[0]
    bumped = ChainComponent(c0.genus, c0.left_ram, RamSeq((1, 2), 3), c0.component_rho)
    tampered = ChainWitness(w.r, w.d, (bumped,) + w.components[1:], w.total_rho)
    violations = chain_violations(tampered, p)
    assert violations
    assert any("complement" in v for v in violations)
    assert chain_violations(tampered, p)


def test_verify_rejects_wrong_rho_and_endpoints():
    p = problem(3, 1, 3)
    w = build_chain(p)
    bad_rho = ChainWitness(w.r, w.d, w.components, w.total_rho + 1)
    assert any("total rho" in v for v in chain_violations(bad_rho, p))
    other = problem(3, 1, 3, (0, 1), (0, 0))
    assert any("alpha1" in v for v in chain_violations(w, other))


def test_verify_rejects_wrong_genus_layout():
    p = problem(2, 1, 3)
    w = build_chain(p)
    squashed = ChainWitness(w.r, w.d, w.components[:1], w.components[0].component_rho)
    assert any("genus-1 components" in v for v in chain_violations(squashed, p))


def test_verify_rejects_a_component_that_fails_its_base_case():
    # rho and the endpoints are consistent, but (1, 1) against (1, 1) at d = 2
    # asks a1_1 + a2_0 = 2 + 1 > d: no genus-1 series exists
    p = problem(1, 1, 2, (1, 1), (1, 1))
    seq = RamSeq((1, 1), 2)
    tampered = ChainWitness(1, 2, (ChainComponent(1, seq, seq, -3),), -3)
    assert rho(p) == -3
    assert chain_violations(tampered, p) == ["component 0: genus-1 base-case criterion fails"]
    assert chain_violations(tampered, p)


def test_verify_single_genus1_component():
    p = problem(1, 1, 3, (1, 2), (0, 0))
    w = build_chain(p)
    assert not chain_violations(w, p)
    # only j = 1 contributes to the criterion sum, with value exactly 1
    assert criterion_sum(p) == 1


def test_rho_additivity():
    for g in range(5):
        for d in range(5):
            for r in range(0, min(2, d) + 1):
                for p in all_problems(g, r, d):
                    w = build_chain(p)
                    if w is not None:
                        assert sum(c.component_rho for c in w.components) == rho(p)


def test_soundness_and_completeness_small_grid():
    for g in range(5):
        for d in range(5):
            for r in range(0, min(2, d) + 1):
                for p in all_problems(g, r, d):
                    w = build_chain(p)
                    if nonempty_criterion(p):
                        assert w is not None and not chain_violations(w, p), p
                    else:
                        assert w is None, p


def test_deficiency_drops_by_at_most_one_per_split():
    # for any first-node choice whose genus-1 side validates, the residual
    # criterion sum at genus g-1 is at least the original sum minus one
    for g in range(2, 5):
        for d in range(5):
            for r in range(0, min(2, d) + 1):
                for p in all_problems(g, r, d):
                    base = criterion_sum(p)
                    for ay in all_ram_seqs(r, d):
                        left = BNProblem(1, r, d, p.alpha1, ay)
                        if not nonempty_criterion(left):
                            continue
                        rest = BNProblem(g - 1, r, d, refined_complement(ay), p.alpha2)
                        assert criterion_sum(rest) >= base - 1, (p, ay)


def test_emptiness_has_no_first_node_witness():
    for g in range(2, 5):
        for d in range(5):
            for r in range(0, min(2, d) + 1):
                for p in all_problems(g, r, d):
                    if nonempty_criterion(p):
                        continue
                    for ay in all_ram_seqs(r, d):
                        left = BNProblem(1, r, d, p.alpha1, ay)
                        rest = BNProblem(g - 1, r, d, refined_complement(ay), p.alpha2)
                        assert not (nonempty_criterion(left) and nonempty_criterion(rest))


def test_witness_serialization_roundtrip():
    p = problem(4, 1, 4, (0, 1), (0, 1))
    w = build_chain(p)
    assert w is not None
    data = witness_to_dict(w)
    assert witness_from_dict(data) == w
    with pytest.raises(ValueError):
        witness_from_dict({"r": 1, "d": 4})


@pytest.mark.parametrize("field", ["r", "d", "total_rho"])
@pytest.mark.parametrize("bad", [1.5, 2.0, True])
def test_witness_from_dict_rejects_bool_and_float(field, bad):
    data = witness_to_dict(build_chain(problem(2, 1, 3)))
    data[field] = bad
    with pytest.raises(ValueError, match="malformed chain witness"):
        witness_from_dict(data)


@pytest.mark.parametrize("key", ["genus", "rho", "left", "right"])
def test_witness_from_dict_rejects_float_in_components(key):
    data = witness_to_dict(build_chain(problem(2, 1, 3)))
    component = data["components"][-1]
    if key in ("left", "right"):
        component[key] = [float(a) for a in component[key]]
    else:
        component[key] = float(component[key])
    with pytest.raises(ValueError, match=f"malformed chain witness: {key} must be an integer"):
        witness_from_dict(data)


def test_witness_from_dict_names_a_non_json_entry():
    data = witness_to_dict(build_chain(problem(2, 1, 3)))
    data["components"][0]["rho"] = Fraction(0)
    message = 'malformed chain witness: rho must be an integer, got "Fraction(0, 1)"'
    with pytest.raises(ValueError) as exc:
        witness_from_dict(data)
    assert str(exc.value) == message


def test_component_computes_rho():
    assert _component(1, 1, 3, (0, 0), (1, 1)) == (1, (0, 0), (1, 1), 1)
