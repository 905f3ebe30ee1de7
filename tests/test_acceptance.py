"""Acceptance suite: every criterion is exact (zero tolerance) and prints one
pass/fail line; run with ``pytest tests/test_acceptance.py -v -s`` to see them.
"""

import math
from contextlib import contextmanager
from itertools import combinations, product

from bnseries.chains import build_chain, chain_violations
from bnseries.core import (
    BNProblem,
    RamSeq,
    VanishingSeq,
    all_ram_seqs,
    nonempty_criterion,
    problem,
    rho,
    to_vanishing,
)
from bnseries.gf import gaussian_binomial
from bnseries.oracle import (
    count_series,
    dim_fit,
    ec_order_diff,
    load_fixture,
    profile_complementary,
    profile_g1,
    series_counts,
)
from bnseries.realize import (
    LineBundleDescriptor,
    g0_vanishing_check,
    realize_g0,
    realize_g1,
    richardson_dim,
)
from bnseries.strata import (
    Stratum,
    TwoComponentProblem,
    enumerate_refined_strata,
    fiber_dim_bound,
    glued_problem,
    stratum_expected_dim,
)
from reference import all_problems, ec_descriptor_scan, ec_g1_nonempty, eh_compatible, eh_nonempty_two_component


@contextmanager
def report(number, label):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {label}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {label}: PASS")


def all_vanishing(r, d):
    return [VanishingSeq(c, d) for c in combinations(range(d + 1), r + 1)]


def test_criterion_1_rho_consistency():
    with report(1, "criterion-rho consistency (g<=6, r<=3, d<=8, all alpha)"):
        for g in range(7):
            for d in range(9):
                for r in range(0, min(3, d) + 1):
                    for p in all_problems(g, r, d):
                        if nonempty_criterion(p):
                            assert rho(p) >= 0, p
                    zero = problem(g, r, d)
                    assert nonempty_criterion(zero) == (rho(zero) >= 0), zero


def test_criterion_2_chain_soundness_completeness():
    with report(2, "chain soundness/completeness (g<=5, r<=2, d<=6)"):
        for g in range(6):
            for d in range(7):
                for r in range(0, min(2, d) + 1):
                    for p in all_problems(g, r, d):
                        w = build_chain(p)
                        if nonempty_criterion(p):
                            assert w is not None, p
                            assert not chain_violations(w, p), p
                            assert sum(c.component_rho for c in w.components) == rho(p), p
                        else:
                            assert w is None, p


def test_criterion_3_stratum_bookkeeping():
    # all compatible node pairs; marked ramification zero plus a nonzero
    # sample per context (the identity is linear in the marked sums)
    with report(3, "stratum bookkeeping (gY,gZ<=3, r<=2, d<=6)"):
        for d in range(7):
            for r in range(0, min(2, d) + 1):
                seqs = list(all_ram_seqs(r, d))
                assert len(list(enumerate_refined_strata(r, d))) == math.comb(d + 1, r + 1)
                strata = [
                    Stratum(ay, az)
                    for ay, az in product(seqs, repeat=2)
                    if eh_compatible(ay, az)
                ]
                marked = [(seqs[0], seqs[0]), (seqs[-1], seqs[len(seqs) // 2])]
                for a1, a2 in marked:
                    for gy, gz in product(range(4), repeat=2):
                        p = TwoComponentProblem(gy, gz, r, d, a1, a2)
                        target = rho(glued_problem(p))
                        for s in strata:
                            assert (
                                stratum_expected_dim(p, s) + fiber_dim_bound(s) == target
                            ), (p, s)
        for alpha_y, alpha_z in enumerate_refined_strata(2, 6):
            s = Stratum(RamSeq(alpha_y, 6), RamSeq(alpha_z, 6))
            assert fiber_dim_bound(s) == 0 and s.refined


def test_criterion_4_genus0_oracle_equivalence():
    with report(4, "genus-0 oracle equivalence (d<=5, r<=1, q in {2,3,4})"):
        for d in range(1, 6):
            prof = profile_complementary(d + 1)
            for r in range(0, min(1, d) + 1):
                for a1 in all_vanishing(r, d):
                    for a2 in all_vanishing(r, d):
                        expected = richardson_dim(d, a1, a2)
                        counts = [
                            (q, count_series(q, prof, r, a1.entries, a2.entries))
                            for q in (2, 3, 4)
                        ]
                        if expected is None:
                            assert all(n == 0 for _, n in counts), (d, r, a1, a2)
                            continue
                        series, coeffs = series_counts(prof, r, a1.entries, a2.entries)
                        assert series == counts, (d, r, a1, a2)
                        assert dim_fit(coeffs) == expected, (d, r, a1, a2, coeffs)
                        if expected == 0:
                            assert len({n for _, n in counts}) == 1, (d, r, a1, a2)


def test_criterion_4b_genus0_rank2_oracle():
    with report("4b", "genus-0 oracle at r=2 (exact degree, d<=5)"):
        for d in range(2, 6):
            prof = profile_complementary(d + 1)
            for a1 in all_vanishing(2, d):
                for a2 in all_vanishing(2, d):
                    expected = richardson_dim(d, a1, a2)
                    counts, coeffs = series_counts(prof, 2, a1.entries, a2.entries)
                    assert (expected is None) == all(n == 0 for _, n in counts), (d, a1, a2)
                    if expected is None:
                        continue
                    assert dim_fit(coeffs) == expected, (d, a1, a2, coeffs)


def test_criterion_4c_genus0_counting_polynomials(monkeypatch):
    # 24,208,613 subspaces at q = 4 for (n, k) = (7, 3) and (7, 4): over the default budget
    monkeypatch.setenv("BN_ENUM_BUDGET", str(gaussian_binomial(7, 3, 4)))
    with report("4c", "genus-0 counting polynomials at d=6, r in {2,3} (degree, leading 1, counts)"):
        d, nonempty = 6, 0
        prof = profile_complementary(d + 1)
        for r in (2, 3):
            for a1 in all_vanishing(r, d):
                for a2 in all_vanishing(r, d):
                    expected = richardson_dim(d, a1, a2)
                    counts, coeffs = series_counts(prof, r, a1.entries, a2.entries)
                    if expected is None:
                        assert coeffs == () and all(n == 0 for _, n in counts), (r, a1, a2)
                        continue
                    nonempty += 1
                    # an irreducible Richardson variety of dimension richardson_dim
                    assert dim_fit(coeffs) == expected and coeffs[-1] == 1, (r, a1, a2, coeffs)
                    values = [(q, sum(c * q**i for i, c in enumerate(coeffs))) for q in (2, 3, 4)]
                    assert counts == values, (r, a1, a2)
        assert nonempty == 980


def test_criterion_5_genus1_oracle_equivalence():
    with report(5, "genus-1 oracle equivalence and torsion degeneration (d<=4, r<=1)"):
        general = load_fixture("general")
        for d in range(1, 5):
            assert ec_order_diff(general) > d
            for r in range(0, min(1, d) + 1):
                for p in all_problems(1, r, d):
                    assert ec_g1_nonempty(general, p) == nonempty_criterion(p), p
        # torsion fixture: ord(P1 - P2) = 2 <= d merges special(0) and
        # special(2), and the merged bundle carries the degenerate series
        # excluded by the generality hypothesis
        torsion = load_fixture("torsion2")
        assert ec_order_diff(torsion) == 2
        assert profile_g1(LineBundleDescriptor(2, 0), diff_order=2) == profile_g1(
            LineBundleDescriptor(2, 2), diff_order=2
        )
        degenerate = problem(1, 1, 2, (0, 1), (0, 1))
        assert not nonempty_criterion(degenerate)
        scan = ec_descriptor_scan(torsion, degenerate)
        assert scan["nonempty"]
        assert {e["bundle"] for e in scan["descriptors"] if e["nonempty"]} == {
            "special(0)",
            "special(2)",
        }


def test_criterion_5b_genus1_oracle_degree5():
    with report("5b", "genus-1 oracle equivalence at d=5 (r<=1)"):
        general = load_fixture("general")
        assert ec_order_diff(general) > 5
        for r in range(0, 2):
            for p in all_problems(1, r, 5):
                assert ec_g1_nonempty(general, p) == nonempty_criterion(p), p


def test_criterion_5c_genus1_oracle_degrees_6_and_7():
    with report("5c", "genus-1 oracle equivalence at (r, d) = (1, 6), (2, 6), (1, 7)"):
        general27 = load_fixture("general27")
        assert ec_order_diff(general27) > 7
        problems = 0
        for r, d in ((1, 6), (2, 6), (1, 7)):
            for p in all_problems(1, r, d):
                assert ec_g1_nonempty(general27, p) == nonempty_criterion(p), p
                problems += 1
        assert problems == 2450


def test_criterion_6_realization_validity():
    with report(6, "realization validity (g=0 exact vanishing; g=1 descriptor match)"):
        for d in range(1, 7):
            for r in range(0, min(2, d) + 1):
                for a1 in all_vanishing(r, d):
                    for a2 in all_vanishing(r, d):
                        s = realize_g0(r, d, a1, a2)
                        if s is None:
                            assert any(a1[j] + a2[r - j] > d for j in range(r + 1))
                            continue
                        at0, at_inf = g0_vanishing_check(s)
                        assert at0 == a1 and at_inf == a2, (d, r, a1, a2)
        general = load_fixture("general")
        for d in range(1, 5):
            for r in range(0, min(1, d) + 1):
                for p in all_problems(1, r, d):
                    scan = ec_descriptor_scan(general, p)
                    witnesses = {e["a"] for e in scan["descriptors"] if e["nonempty"]}
                    choice = realize_g1(p.r, p.d, to_vanishing(p.alpha1), to_vanishing(p.alpha2))
                    if choice is None:
                        assert not witnesses, p
                    else:
                        assert choice.a in witnesses, (p, choice, witnesses)


def test_criterion_7_known_value_spot_checks():
    with report(7, "known-value spot checks"):
        p = problem(3, 1, 3)
        assert rho(p) == 1
        w = build_chain(p)
        assert len(w.components) == 3
        assert not chain_violations(w, p)

        empty = problem(1, 1, 2, (0, 1), (0, 1))
        assert not nonempty_criterion(empty)
        assert build_chain(empty) is None
        assert realize_g1(1, 2, to_vanishing(empty.alpha1), to_vanishing(empty.alpha2)) is None
        assert not ec_g1_nonempty(load_fixture("general"), empty)

        for d in range(9):
            for r in range(0, min(3, d) + 1):
                for p in all_problems(0, r, d):
                    a1, a2 = to_vanishing(p.alpha1), to_vanishing(p.alpha2)
                    expected = richardson_dim(p.d, a1, a2)
                    direct = sum(p.d - a1[j] - a2[r - j] for j in range(r + 1))
                    if expected is not None:
                        assert expected == direct == rho(p)


def test_criterion_8_chain_components_pass_the_genus1_oracle():
    # the formula certifies each chain component; here the brute-force oracle does
    with report(8, "genus-1 chain components nonempty by the oracle (g=2..8, r<=2, d<=5)"):
        general = load_fixture("general")
        assert ec_order_diff(general) > 5
        chains = 0
        components = set()
        for g in range(2, 9):
            for d in range(6):
                for r in range(0, min(2, d) + 1):
                    for p in all_problems(g, r, d):
                        if nonempty_criterion(p):
                            chains += 1
                            for c in build_chain(p).components:
                                components.add(BNProblem(c.genus, r, d, c.left_ram, c.right_ram))
        assert chains == 721
        assert {c.g for c in components} == {1}
        for c in components:
            assert ec_g1_nonempty(general, c), c


def test_criterion_9_two_component_scan_with_oracle_base_cases():
    # the g = 2 criterion decided through the degeneration, with brute-force base cases
    with report(9, "two-component scan on oracle base cases (gy,gz<=1, r<=2, d<=5)"):
        general = load_fixture("general")
        decided = {}

        def base_oracle(p):
            if p not in decided:
                if p.g == 0:
                    a1, a2 = to_vanishing(p.alpha1).entries, to_vanishing(p.alpha2).entries
                    counts, _ = series_counts(profile_complementary(p.d + 1), p.r, a1, a2)
                    decided[p] = any(n > 0 for _, n in counts)
                else:
                    decided[p] = ec_g1_nonempty(general, p)
            return decided[p]

        problems = 0
        for d in range(6):
            for r in range(0, min(2, d) + 1):
                seqs = list(all_ram_seqs(r, d))
                for gy, gz in product(range(2), repeat=2):
                    for a1, a2 in product(seqs, repeat=2):
                        p = TwoComponentProblem(gy, gz, r, d, a1, a2)
                        problems += 1
                        expected = nonempty_criterion(glued_problem(p))
                        assert eh_nonempty_two_component(p, base_oracle) == expected, p
        assert problems == 3916
