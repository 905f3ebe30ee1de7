from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from bnseries import (
    EllipticModel,
    FlagProfile,
    InfeasibleSize,
    NoFit,
    count_series,
    dim_fit,
    ec_g1_nonempty,
    ec_order_diff,
    load_fixture,
    nonempty_criterion,
    problem,
    profile_complementary,
    profile_g1,
)
from bnseries import oracle
from bnseries.gf import gaussian_binomial, gf, lead_positions, rref_matrices
from bnseries.oracle import all_descriptors, basis_orders, ec_descriptor_scan, series_counts
from bnseries.realize import generic_bundle, special_bundle


def test_profile_complementary_values():
    prof = profile_complementary(4)
    assert prof(0, 0) == 4
    assert prof(1, 2) == 1
    assert prof(2, 2) == 0


def test_profile_validation():
    with pytest.raises(ValueError):
        FlagProfile(2, ((2, 1, 0), (1, 1, 1), (0, 0, 0)))  # k2 step jumps back up
    with pytest.raises(ValueError):
        FlagProfile(2, ((2, 0, 0), (1, 0, 0), (0, 0, 0)))  # step of size 2


def test_profile_g1_values():
    assert profile_g1(generic_bundle(3))(1, 2) == 0
    assert profile_g1(special_bundle(3, 1))(1, 2) == 1
    for bundle in all_descriptors(3):
        assert profile_g1(bundle)(0, 0) == 3
    # a generic bundle sees transverse flags: the complementary profile
    assert profile_g1(generic_bundle(4)) == profile_complementary(4)


def test_emitted_profiles_are_realizable():
    for n in range(1, 8):
        orders = basis_orders(profile_complementary(n))
        assert sorted(o1 + o2 for o1, o2 in orders) == [n - 1] * n
    for d in range(1, 7):
        for bundle in all_descriptors(d):
            for t in (None, 2, 3):
                orders = basis_orders(profile_g1(bundle, diff_order=t))
                assert len(orders) == d
                # both flags see strictly increasing vanishing orders
                assert len({o1 for o1, _ in orders}) == d
                assert len({o2 for _, o2 in orders}) == d


def test_profile_g1_input_validation():
    with pytest.raises(ValueError):
        profile_g1(generic_bundle(0))
    with pytest.raises(ValueError):
        profile_g1(generic_bundle(3), diff_order=0)


def test_basis_orders_rejects_unrealizable_table():
    # a valid-looking monotone table whose second difference goes negative
    prof = FlagProfile(2, ((2, 1, 1), (1, 1, 0), (1, 0, 0)))
    with pytest.raises(ValueError):
        basis_orders(prof)


def test_profile_g1_concentrated_bundle_keeps_tail():
    prof = profile_g1(special_bundle(3, 3))
    assert prof(3, 0) == 1  # O(dP1) has a section vanishing to order d at P1
    assert prof(2, 0) == 1
    orders = basis_orders(prof)
    assert sorted(o1 for o1, _ in orders) == [0, 1, 3]


def test_count_series_examples():
    assert count_series(2, profile_complementary(2), 0, (1,), (1,)) == 0
    for q in (2, 3, 4):
        assert count_series(q, profile_complementary(2), 0, (0,), (0,)) == q + 1
        assert count_series(q, profile_complementary(3), 0, (1,), (1,)) == 1


def test_count_series_no_subspaces_when_rank_too_big():
    assert count_series(2, profile_complementary(2), 2, (0, 1, 2), (0, 1, 2)) == 0


def test_count_series_budget(monkeypatch):
    monkeypatch.setenv("BN_ENUM_BUDGET", "10")
    with pytest.raises(InfeasibleSize):
        count_series(4, profile_complementary(7), 2, (0, 1, 2), (0, 1, 2))


def test_count_series_rejects_bad_input():
    with pytest.raises(ValueError):
        count_series(5, profile_complementary(3), 0, (0,), (0,))
    with pytest.raises(ValueError):
        count_series(2, profile_complementary(3), 0, (4,), (0,))
    with pytest.raises(ValueError):
        count_series(2, profile_complementary(3), 1, (1, 1), (0, 1))


def _count_lines_directly(q, profile, a1, a2):
    """Independent line count: scan nonzero vectors, no echelon machinery."""
    field = gf(q)
    orders = basis_orders(profile)
    n = profile.n
    total = 0
    for vec in product(range(q), repeat=n):
        if not any(vec):
            continue
        o1 = min(orders[i][0] for i in range(n) if vec[i])
        o2 = min(orders[i][1] for i in range(n) if vec[i])
        if o1 >= a1[0] and o2 >= a2[0]:
            total += 1
    assert total % (q - 1) == 0
    return total // (q - 1)


def test_count_series_matches_direct_line_count():
    profiles = [profile_complementary(3), profile_complementary(4)]
    profiles += [profile_g1(b) for b in all_descriptors(3)]
    profiles += [profile_g1(b, diff_order=2) for b in all_descriptors(3)]
    for prof in profiles:
        n = prof.n
        for q in (2, 3):
            for a1 in range(n + 1):
                for a2 in range(n + 1):
                    assert count_series(q, prof, 0, (a1,), (a2,)) == _count_lines_directly(
                        q, prof, (a1,), (a2,)
                    ), (q, prof.h, a1, a2)


def _enumerated_histogram(q, profile, k):
    """Reference tally: every canonical basis, eliminated in flag-2 order."""
    n = profile.n
    orders = basis_orders(profile)
    by1 = sorted(range(n), key=lambda i: orders[i][0])
    o1_of_col = [orders[i][0] for i in by1]
    o2_of_col = [orders[i][1] for i in by1]
    cols_by_o2 = sorted(range(n), key=lambda pos: o2_of_col[pos])
    hist = {}
    for pivots, rows in rref_matrices(q, n, k):
        b1 = tuple(o1_of_col[c] for c in pivots)
        leads = lead_positions(gf(q), rows, cols_by_o2)
        pair = (b1, tuple(o2_of_col[cols_by_o2[pos]] for pos in leads))
        hist[pair] = hist.get(pair, 0) + 1
    return hist


def _reference_profiles():
    profiles = [profile_complementary(n) for n in range(1, 6)]
    for d in range(1, 5):
        for bundle in all_descriptors(d):
            for t in (None, 2, 6):
                profiles.append(profile_g1(bundle, diff_order=t))
    return profiles


@pytest.mark.parametrize("q", (2, 3, 4))
def test_histogram_matches_enumeration(q):
    for prof in _reference_profiles():
        n = prof.n
        o1_sorted = sorted(o1 for o1, _ in basis_orders(prof))
        for k in range(1, n + 1):
            hist = oracle._rank_count_histogram(q, prof, k)
            assert hist == _enumerated_histogram(q, prof, k), (q, prof.h, k)
            assert sum(hist.values()) == gaussian_binomial(n, k, q)
            # flag-1 marginal: the Schubert cell of pivots p has q^free points
            marginal = {}
            for (b1, _), mult in hist.items():
                marginal[b1] = marginal.get(b1, 0) + mult
            for b1, mult in marginal.items():
                pivots = [o1_sorted.index(o) for o in b1]
                free = sum(n - 1 - p - (k - 1 - i) for i, p in enumerate(pivots))
                assert mult == q**free, (q, prof.h, k, b1)


def test_budget_refuses_before_counting_any_field(monkeypatch):
    monkeypatch.setattr(oracle, "_HIST_CACHE", {})
    size = gaussian_binomial(5, 2, 4)
    budget = gaussian_binomial(5, 2, 3) + 1  # q = 2 and 3 fit, q = 4 does not
    assert budget < size
    monkeypatch.setenv("BN_ENUM_BUDGET", str(budget))
    message = f"enumeration of {size} subspaces exceeds the budget of {budget}"
    with pytest.raises(InfeasibleSize, match=message):
        series_counts(profile_complementary(5), 1, (0, 1), (0, 1))
    with pytest.raises(InfeasibleSize, match=message):
        ec_descriptor_scan(load_fixture("general"), problem(1, 1, 5))
    assert oracle._HIST_CACHE == {}


def test_series_counts_match_count_series():
    prof = profile_complementary(4)
    counts = series_counts(prof, 1, (0, 2), (1, 2))
    assert counts == [(q, count_series(q, prof, 1, (0, 2), (1, 2))) for q in (2, 3, 4)]


def test_dim_fit_examples():
    assert dim_fit([(2, 3), (3, 4), (4, 5)]) == 1
    assert dim_fit([(2, 1), (3, 1), (4, 1)]) == 0
    assert dim_fit([(2, 0), (3, 0), (4, 0)]) is None
    assert dim_fit([(2, 7), (3, 13), (4, 21)]) == 2  # q^2 + q + 1
    # big coefficients still fit through the interpolation route
    assert dim_fit([(2, 8), (3, 12), (4, 16)]) == 1  # 4q
    # degree above the sample size via the digit route
    assert dim_fit([(2, 8), (3, 27), (4, 64)]) == 3  # q^3


def test_dim_fit_accepts_extra_sample_points():
    counts = [(q, q**2 + 1) for q in (2, 3, 4, 5)]
    assert dim_fit(counts) == 2


def test_dim_fit_rejects_garbage():
    with pytest.raises(NoFit):
        dim_fit([(2, 1), (3, 2), (4, 4)])
    with pytest.raises(ValueError):
        dim_fit([(2, 1), (3, 1)])
    with pytest.raises(ValueError):
        dim_fit([(2, 1), (2, 2), (3, 1)])
    with pytest.raises(ValueError):
        dim_fit([(2, -1), (3, 0), (4, 0)])


@settings(max_examples=300)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=9).filter(lambda c: c[-1] > 0))
def test_dim_fit_recovers_counting_polynomials(coeffs):
    degree = len(coeffs) - 1
    counts = [(q, sum(c * q**i for i, c in enumerate(coeffs))) for q in (2, 3, 4)]
    try:
        assert dim_fit(counts) == degree
    except NoFit:
        # ambiguity can only arise beyond the sample size
        assert degree > 2


def test_elliptic_model_validation():
    with pytest.raises(ValueError):
        EllipticModel(53, 0, 0, (0, 1), (2, 3), 1)  # singular
    with pytest.raises(ValueError):
        EllipticModel(53, 0, 1, (0, 2), (2, 50), 1)  # point off the curve
    with pytest.raises(ValueError):
        EllipticModel(51, 0, 1, (0, 1), (0, 1), 1)  # 51 is not prime


def test_fixtures_are_consistent():
    general = load_fixture("general")
    torsion = load_fixture("torsion2")
    assert general.p >= 50 and torsion.p >= 50
    assert ec_order_diff(general) == general.order_diff == 6
    assert ec_order_diff(torsion) == torsion.order_diff == 2


def test_elliptic_model_rejects_a_stored_order_that_the_group_law_contradicts():
    m = load_fixture("general")
    with pytest.raises(ValueError, match=r"stored order_diff 5 != ord\(P1 - P2\) = 6"):
        EllipticModel(m.p, m.a, m.b, m.p1, m.p2, 5)


def test_scan_on_a_loaded_fixture_walks_no_group_law(monkeypatch):
    general, torsion = load_fixture("general"), load_fixture("torsion2")
    walks = []
    monkeypatch.setattr(oracle, "point_order", lambda *args: walks.append(args))
    assert ec_descriptor_scan(general, problem(1, 1, 3))["order_diff"] == 6
    assert ec_descriptor_scan(torsion, problem(1, 0, 2))["order_diff"] == 2
    assert ec_g1_nonempty(general, problem(1, 1, 3, (1, 2), (0, 0)))
    with pytest.raises(ValueError):
        ec_g1_nonempty(torsion, problem(1, 0, 2))
    assert walks == []


def test_cached_histogram_does_not_bypass_a_lowered_budget(monkeypatch):
    prof = profile_complementary(5)
    assert count_series(4, prof, 1, (0, 1), (0, 1)) > 0  # cached under the default budget
    budget = gaussian_binomial(5, 2, 4) - 1
    monkeypatch.setenv("BN_ENUM_BUDGET", str(budget))
    message = f"enumeration of {budget + 1} subspaces exceeds the budget of {budget}"
    with pytest.raises(InfeasibleSize, match=message):
        count_series(4, prof, 1, (0, 1), (0, 1))
    with pytest.raises(InfeasibleSize, match=message):
        series_counts(prof, 1, (0, 1), (0, 1))


def test_load_fixture_is_cached_by_name():
    assert load_fixture("general") is load_fixture("general")
    for _ in range(2):
        with pytest.raises(KeyError):
            load_fixture("no-such-model")


def test_ec_order_diff_identical_points():
    m = load_fixture("general")
    same = EllipticModel(m.p, m.a, m.b, m.p1, m.p1, 1)
    assert ec_order_diff(same) == 1


def test_ec_g1_nonempty_examples():
    m = load_fixture("general")
    assert not ec_g1_nonempty(m, problem(1, 1, 2, (0, 1), (0, 1)))
    assert ec_g1_nonempty(m, problem(1, 1, 3, (1, 2), (0, 0)))
    assert ec_g1_nonempty(m, problem(1, 0, 1))


def test_ec_g1_nonempty_requires_generality():
    torsion = load_fixture("torsion2")
    with pytest.raises(ValueError):
        ec_g1_nonempty(torsion, problem(1, 1, 2, (0, 1), (0, 1)))


def test_ec_scan_rejects_coincident_marked_points():
    m = load_fixture("general")
    same = EllipticModel(m.p, m.a, m.b, m.p1, m.p1, 1)
    with pytest.raises(ValueError):
        ec_descriptor_scan(same, problem(1, 0, 1))


def test_ec_scan_identifies_witness_bundle():
    m = load_fixture("general")
    p = problem(1, 1, 3, (1, 2), (0, 0))
    scan = ec_descriptor_scan(m, p)
    nonempty = {e["bundle"] for e in scan["descriptors"] if e["nonempty"]}
    # a1_1 + a2_0 = 3 + 0 = d forces the bundle concentrated at P1
    assert "special(3)" in nonempty
    # rho = 0: the witness locus is rigid, so its counts are constant in q
    entry = next(e for e in scan["descriptors"] if e["bundle"] == "special(3)")
    assert [n for _, n in entry["counts"]] == [1, 1, 1]
    assert entry["dim"] == 0


def test_torsion_pair_merges_special_bundles():
    # with ord(P1 - P2) = 2, the bundles special(0) and special(2) coincide,
    # so their profiles agree and the excluded degenerate locus shows up
    assert profile_g1(special_bundle(2, 0), diff_order=2) == profile_g1(
        special_bundle(2, 2), diff_order=2
    )
    torsion = load_fixture("torsion2")
    p = problem(1, 1, 2, (0, 1), (0, 1))
    assert not nonempty_criterion(p)
    scan = ec_descriptor_scan(torsion, p)
    assert scan["nonempty"]
    witnesses = {e["bundle"] for e in scan["descriptors"] if e["nonempty"]}
    assert witnesses == {"special(0)", "special(2)"}


def test_general_pair_profile_ignores_large_order():
    # an order above d is indistinguishable from general position
    for bundle in all_descriptors(4):
        assert profile_g1(bundle, diff_order=6) == profile_g1(bundle, diff_order=None)
