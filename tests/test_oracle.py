import json
from itertools import combinations, product
from math import comb
from pathlib import Path
from time import perf_counter

import pytest

from bnseries import core, oracle
from bnseries.cli import _dump, run
from bnseries.core import (
    InfeasibleSize,
    VanishingSeq,
    all_problems,
    nonempty_criterion,
    problem,
    to_vanishing,
)
from bnseries.gf import FIELDS, gaussian_binomial
from bnseries.oracle import (
    EllipticModel,
    FlagProfile,
    all_descriptors,
    count_series,
    dim_fit,
    ec_descriptor_scan,
    ec_g1_nonempty,
    ec_order_diff,
    g0_series_counts,
    load_fixture,
    profile_complementary,
    profile_g1,
    series_counts,
)
from bnseries.realize import LineBundleDescriptor, lead_positions
from gf_reference import field_rows, rank, rref_matrices


# The table path, kept as the reference for the closed-form profiles: a pair
# of flags recorded by its (n+1) x (n+1) table h(k1, k2), checked for unit
# steps, with the vanishing-order pairs read off by second differences.


def _table_orders(n, h):
    """Vanishing-order pairs of a coordinate model realizing the table h.

    h must have h[0][0] = n and unit steps in each argument.  The multiplicity
    of the pair (k1, k2) is the second difference of the table; it must be
    nonnegative with total n for the table to come from an actual pair of
    flags.
    """
    h = tuple(tuple(row) for row in h)
    if n < 0:
        raise ValueError("profile dimension must be >= 0")
    if len(h) != n + 1 or any(len(row) != n + 1 for row in h):
        raise ValueError(f"profile table must be {n + 1} x {n + 1}")
    if h[0][0] != n:
        raise ValueError("h(0, 0) must equal the ambient dimension")
    for k1 in range(n + 1):
        for k2 in range(n + 1):
            if h[k1][k2] < 0:
                raise ValueError("profile entries must be nonnegative")
            if k1 < n and h[k1][k2] - h[k1 + 1][k2] not in (0, 1):
                raise ValueError(f"non-unit step in k1 at ({k1}, {k2})")
            if k2 < n and h[k1][k2] - h[k1][k2 + 1] not in (0, 1):
                raise ValueError(f"non-unit step in k2 at ({k1}, {k2})")
    rows = [row + (0,) for row in h] + [(0,) * (n + 2)]  # h = 0 beyond n
    orders = []
    for k1, (row, below) in enumerate(zip(rows, rows[1:])):
        for k2 in range(n + 1):
            mult = row[k2] - below[k2] - row[k2 + 1] + below[k2 + 1]
            if mult < 0:
                raise ValueError(f"profile not realizable: negative mass at ({k1}, {k2})")
            orders.extend([(k1, k2)] * mult)
    if len(orders) != n:
        raise ValueError("profile not realizable: total mass != n")
    return tuple(orders)


def _table_profile(n, h):
    return FlagProfile(n, _table_orders(n, h))


def basis_orders(profile):
    """The profile's orders, read back from its derived table h."""
    return _table_orders(profile.n, profile.h)


def _h0_table(bundle, diff_order=None):
    """The Riemann-Roch table h^0(L - k1 P1 - k2 P2) of a genus-1 bundle, entry by entry."""
    d, a = bundle.d, bundle.a

    def h0(k1, k2):
        e = d - k1 - k2
        if e or a is None:
            return e if e > 0 else 0
        return int(a == k1 if diff_order is None else (a - k1) % diff_order == 0)

    n = h0(0, 0)
    return n, [[h0(k1, k2) for k2 in range(n + 1)] for k1 in range(n + 1)]


def test_profile_complementary_values():
    prof = profile_complementary(4)
    assert prof.h[0][0] == 4
    assert prof.h[1][2] == 1
    assert prof.h[2][2] == 0


def test_profile_validation():
    with pytest.raises(ValueError):
        _table_profile(2, ((2, 1, 0), (1, 1, 1), (0, 0, 0)))  # k2 step jumps back up
    with pytest.raises(ValueError):
        _table_profile(2, ((2, 0, 0), (1, 0, 0), (0, 0, 0)))  # step of size 2
    for n, orders in [
        (-1, ()),
        (2, ((0, 1),)),  # one pair short
        (2, ((0, 1), (1, 1))),  # repeated flag-2 order
        (2, ((1, 0), (1, 1))),  # repeated flag-1 order
        (2, ((0, 3), (1, 0))),  # order beyond n
        (2, ((0, 1), (1, 0), (2, 2))),  # one pair too many
        (1, ((0, 0, 0),)),  # not a pair
    ]:
        with pytest.raises(ValueError):
            FlagProfile(n, orders)
    # pairs are stored sorted by o1, so their input order does not matter
    assert FlagProfile(2, ((1, 0), (0, 2))) == FlagProfile(2, [[0, 2], [1, 0]])
    assert FlagProfile(2, ((1, 0), (0, 2))).orders == ((0, 2), (1, 0))


def test_profile_g1_values():
    assert profile_g1(LineBundleDescriptor(3, None)).h[1][2] == 0
    assert profile_g1(LineBundleDescriptor(3, 1)).h[1][2] == 1
    for bundle in all_descriptors(3):
        assert profile_g1(bundle).h[0][0] == 3
    # a generic bundle sees transverse flags: the complementary profile
    assert profile_g1(LineBundleDescriptor(4, None)) == profile_complementary(4)


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
    # at d = 0 only O has a section: n = h^0(L) is 1 for O and 0 otherwise
    assert profile_g1(LineBundleDescriptor(0, None)) == _table_profile(0, ((0,),)) == FlagProfile(0, ())
    assert profile_g1(LineBundleDescriptor(0, 0)) == _table_profile(1, ((1, 0), (0, 0)))
    assert profile_g1(LineBundleDescriptor(0, 0)).orders == ((0, 0),)
    with pytest.raises(ValueError):
        profile_g1(LineBundleDescriptor(3, None), diff_order=0)


def test_basis_orders_rejects_unrealizable_table():
    # a valid-looking monotone table whose second difference goes negative
    with pytest.raises(ValueError, match="not realizable"):
        _table_orders(2, ((2, 1, 1), (1, 1, 0), (1, 0, 0)))


def test_closed_form_profiles_match_the_table_path():
    # every descriptor at d <= 12 with diff_order None or 2..d+2
    cases = [(b, t) for d in range(13) for t in [None, *range(2, d + 3)] for b in all_descriptors(d)]
    assert len(cases) == 1014
    for bundle, t in cases:
        n, table = _h0_table(bundle, t)
        prof = profile_g1(bundle, diff_order=t)
        assert prof == _table_profile(n, table), (bundle, t)
        assert prof.h == tuple(map(tuple, table)), (bundle, t)
    for n in range(14):
        table = [[max(0, n - k1 - k2) for k2 in range(n + 1)] for k1 in range(n + 1)]
        prof = profile_complementary(n)
        assert prof == _table_profile(n, table)
        assert prof.h == tuple(map(tuple, table))


def test_special_profile_with_coinciding_points_is_refused():
    # diff_order 1 puts P1 = P2: the Riemann-Roch table is not a pair of flags
    n, table = _h0_table(LineBundleDescriptor(3, 1), 1)
    with pytest.raises(ValueError, match="not realizable"):
        _table_orders(n, table)
    for d, a in [(3, 1), (0, 0), (4, 4)]:
        with pytest.raises(ValueError, match="P1 = P2"):
            profile_g1(LineBundleDescriptor(d, a), diff_order=1)
    # a generic bundle has no trivial twist to hit
    assert profile_g1(LineBundleDescriptor(3, None), diff_order=1) == profile_complementary(3)


def test_profile_g1_concentrated_bundle_keeps_tail():
    prof = profile_g1(LineBundleDescriptor(3, 3))
    assert prof.h[3][0] == 1  # O(dP1) has a section vanishing to order d at P1
    assert prof.h[2][0] == 1
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


def test_count_series_is_refused_by_the_shared_gate(monkeypatch):
    # an unprintable count is refused from its top Schubert cell, with no exact
    # subspace count, and in the words series_counts uses
    monkeypatch.delenv("BN_ENUM_BUDGET", raising=False)
    prof, seq = profile_complementary(3001), tuple(range(1001))
    start = perf_counter()
    with pytest.raises(InfeasibleSize) as refused:
        count_series(2, prof, 1000, seq, seq)
    assert perf_counter() - start < 0.2
    with pytest.raises(InfeasibleSize) as shared:
        series_counts(prof, 1000, seq, seq)
    assert str(refused.value) == str(shared.value) == (
        "enumeration of at least 2^2002000 subspaces exceeds the budget of 10000000"
    )
    # one gate for every field size: q = 2 fits the budget, q = 4 does not
    size = gaussian_binomial(5, 2, 4)
    monkeypatch.setenv("BN_ENUM_BUDGET", str(size - 1))
    with pytest.raises(InfeasibleSize, match=f"enumeration of {size} subspaces"):
        count_series(2, profile_complementary(5), 1, (0, 1), (0, 1))


def test_count_series_rejects_bad_input():
    with pytest.raises(ValueError):
        count_series(5, profile_complementary(3), 0, (0,), (0,))
    with pytest.raises(ValueError):
        count_series(2, profile_complementary(3), 0, (4,), (0,))
    with pytest.raises(ValueError):
        count_series(2, profile_complementary(3), 1, (1, 1), (0, 1))


def _count_lines_directly(q, profile, a1, a2):
    """Independent line count: scan nonzero vectors, no echelon machinery."""
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
    """Reference tally: every canonical basis W, with its flag-2 sequence read off ranks.

    The subspace F_t spanned by the coordinates with o2 >= t meets W in
    dimension k - rank(W's coordinates with o2 < t), and t is in the flag-2
    sequence exactly when that dimension drops from t to t + 1.  The
    tally uses no elimination of the library's; realize.lead_positions,
    eliminating over F_q in flag-2 order, is checked against it on every W.
    """
    n = profile.n
    orders = basis_orders(profile)
    by1 = sorted(range(n), key=lambda i: orders[i][0])
    o1_of_col = [orders[i][0] for i in by1]
    o2_of_col = [orders[i][1] for i in by1]
    cols_by_o2 = sorted(range(n), key=lambda pos: o2_of_col[pos])
    hist = {}
    for pivots, rows in rref_matrices(q, n, k):
        b1 = tuple(o1_of_col[c] for c in pivots)
        elements = field_rows(q, rows)
        meet = [k] + [  # F_0 is everything, F_(n+1) is 0
            k - rank([[x for x, o2 in zip(row, o2_of_col) if o2 < t] for row in elements])
            for t in range(1, n + 1)
        ] + [0]
        b2 = tuple(t for t in range(n + 1) if meet[t] > meet[t + 1])
        leads = lead_positions(elements, cols_by_o2)
        assert tuple(o2_of_col[cols_by_o2[pos]] for pos in leads) == b2, (q, rows)
        hist[b1, b2] = hist.get((b1, b2), 0) + 1
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


def _marginal(hist, side):
    tally = {}
    for pair, mult in hist.items():
        tally[pair[side]] = tally.get(pair[side], 0) + mult
    return tally


def _schubert_cell_size(q, n, orders_sorted, seq):
    """q^free for the echelon cell whose pivots carry the vanishing orders seq."""
    k = len(seq)
    pivots = [orders_sorted.index(o) for o in seq]
    return q ** sum(n - 1 - p - (k - 1 - i) for i, p in enumerate(pivots))


@pytest.mark.parametrize("q", FIELDS)
def test_histogram_invariants_beyond_enumeration(q):
    profiles = [profile_complementary(n) for n in range(6, 9)]
    profiles += [profile_g1(b, diff_order=t) for b in all_descriptors(6) for t in (None, 2)]
    for prof in profiles:
        n = prof.n
        orders = basis_orders(prof)
        for k in range(1, 4):
            hist = oracle._rank_count_histogram(q, prof, k)
            assert sum(hist.values()) == gaussian_binomial(n, k, q), (q, prof.h, k)
            for side in (0, 1):
                sorted_orders = sorted(pair[side] for pair in orders)
                for seq, mult in _marginal(hist, side).items():
                    assert mult == _schubert_cell_size(q, n, sorted_orders, seq), (q, prof.h, k, side)


def _slice_test_profiles():
    """Complementary profiles with n <= 6 and genus-1 profiles with d <= 5, once each."""
    profiles = [profile_complementary(n) for n in range(1, 7)]
    profiles += [
        profile_g1(b, diff_order=t) for d in range(1, 6) for b in all_descriptors(d) for t in (None, 2)
    ]
    return list({prof.h: prof for prof in profiles}.values())


@pytest.mark.parametrize("q", FIELDS)
def test_count_series_slices_match_a_full_histogram_scan(monkeypatch, q):
    monkeypatch.setattr(oracle, "_HIST_CACHE", {})
    for prof in _slice_test_profiles():
        n = prof.n
        for k in range(1, n + 1):
            hist = oracle._rank_count_histogram(q, prof, k)
            seqs = list(combinations(range(n + 1), k))
            below = {b: [a for a in seqs if all(x >= y for x, y in zip(b, a))] for b in seqs}
            expected = dict.fromkeys(product(seqs, repeat=2), 0)
            for (b1, b2), mult in hist.items():  # each entry counts towards every pair it dominates
                for pair in product(below[b1], below[b2]):
                    expected[pair] += mult
            # the same a1 with every a2 builds one slice and reuses it; the
            # second round answers every pair from slices already built
            for _ in range(2):
                for a1, a2 in expected:
                    assert count_series(q, prof, k - 1, a1, a2) == expected[a1, a2], (prof.h, a1, a2)
            _, _, slices = oracle._HIST_CACHE[prof.orders, k]
            assert set(slices) == set(seqs)


def test_oracle_verify_builds_no_profile_table(monkeypatch):
    def no_table(self):
        raise AssertionError("a profile table was built on the request path")

    golden = json.loads((Path(__file__).parent / "golden_cli.json").read_text())["run"]
    entries = [
        entry
        for entry in golden
        if isinstance(entry["request"], dict) and entry["request"].get("command") == "oracle-verify"
    ]
    params = [entry["request"].get("params") for entry in entries]
    assert {0, 1} <= {p.get("genus") for p in params if isinstance(p, dict)}
    monkeypatch.setattr(FlagProfile, "h", property(no_table))
    monkeypatch.setattr(oracle, "_HIST_CACHE", {})
    monkeypatch.delenv("BN_ENUM_BUDGET", raising=False)
    for entry in entries:
        for key, value in entry.get("env", {}).items():
            monkeypatch.setenv(key, value)
        response, code = run(entry["request"])
        assert (_dump(response), code) == (entry["output"], entry["code"]), entry["request"]


@pytest.mark.parametrize(
    "params, size",
    [
        ({"genus": 0, "r": 1, "d": 3, "a1": [0, 1], "a2": [0, 2]}, gaussian_binomial(4, 2, 2)),
        # n = 3, k = 2: 7 subspaces at q = 2 fit, 13 at q = 3 do not
        ({"genus": 1, "r": 1, "d": 3, "alpha1": [0, 1], "alpha2": [0, 0]}, gaussian_binomial(3, 2, 3)),
    ],
)
def test_cached_counts_do_not_bypass_a_lowered_budget(params, size, monkeypatch):
    monkeypatch.setattr(oracle, "_HIST_CACHE", {})
    monkeypatch.delenv("BN_ENUM_BUDGET", raising=False)
    request = {"command": "oracle-verify", "params": params}
    assert run(request)[1] == 0
    assert oracle._HIST_CACHE  # the counts are memoised ...
    monkeypatch.setenv("BN_ENUM_BUDGET", "10")
    response, code = run(request)  # ... but the decision is taken afresh
    assert (response["diagnostics"], code) == (
        [f"InfeasibleSize: enumeration of {size} subspaces exceeds the budget of 10"],
        2,
    )


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
    counts, coeffs = series_counts(prof, 1, (0, 2), (1, 2))
    assert counts == [(q, count_series(q, prof, 1, (0, 2), (1, 2))) for q in (2, 3, 4)]
    assert coeffs == (1, 1)  # the lines of P^3 through a point and in a plane


def test_histogram_at_x_decodes_to_the_numeric_histograms(monkeypatch):
    # Every entry of the histogram counted at q = X, read as balanced base-X
    # digits, must be the polynomial whose values at 2, 3, 4 the numeric
    # histograms hold.  X is read from the cache, as the counting path chose it.
    monkeypatch.setattr(oracle, "_HIST_CACHE", {})
    profiles = [profile_complementary(n) for n in range(1, 9)]
    profiles += [
        profile_g1(b, diff_order=t) for d in range(7) for b in all_descriptors(d) for t in (None, 2, 3, 4, 7)
    ]
    checks = negative = 0
    for prof in {prof.orders: prof for prof in profiles}.values():
        for k in range(1, min(4, prof.n) + 1):
            bottom = tuple(range(k))
            oracle._series_counts(prof, k, bottom, bottom)
            x, at_x, _ = oracle._HIST_CACHE[prof.orders, k]
            assert x > 2 * gaussian_binomial(prof.n, k, 3), (prof.orders, k)
            numeric = {q: oracle._rank_count_histogram(q, prof, k) for q in FIELDS}
            assert all(hist.keys() == at_x.keys() for hist in numeric.values())
            for key, value in at_x.items():
                coeffs = oracle._balanced_digits(value, x)
                negative += min(coeffs) < 0
                # the bound that x rests on: |coefficients| sum to at most the value at 3
                assert sum(map(abs, coeffs)) <= numeric[3][key], (prof.orders, k, key)
                for q, hist in numeric.items():
                    assert oracle._poly_eval(coeffs, q) == hist[key], (prof.orders, k, key, q)
                    checks += 1
    assert checks == 37839  # each distinct profile once
    assert negative > 0  # the balanced digits matter


def test_dim_fit_is_the_degree():
    assert dim_fit(()) is None
    assert dim_fit((1,)) == 0


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
    general27 = load_fixture("general27")
    assert general27.p >= 50
    assert ec_order_diff(general27) == general27.order_diff == 27


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
    assert profile_g1(LineBundleDescriptor(2, 0), diff_order=2) == profile_g1(
        LineBundleDescriptor(2, 2), diff_order=2
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


@pytest.mark.parametrize("fixture", ["general", "general27", "torsion2"])
def test_descriptor_scan_matches_the_validated_public_path(fixture, monkeypatch):
    # The scan reads memoised profiles and checks each sequence once; the
    # public path rebuilds and re-checks everything.  The first problem at
    # each d builds the memo entry and the others read it.  torsion2 makes
    # special bundles coincide from d = 2 on.  The CLI payload, built from
    # the scan's rows, must be the one the public path gives too.
    monkeypatch.delenv("BN_ENUM_BUDGET", raising=False)
    monkeypatch.setattr(oracle, "_PROFILES", {})
    model = load_fixture(fixture)
    order = model.order_diff
    scans = 0
    for d in range(7):
        for r in range(min(2, d) + 1):
            for p in all_problems(1, r, d):
                a1, a2 = (tuple(a + j for j, a in enumerate(alpha)) for alpha in (p.alpha1, p.alpha2))
                scan = ec_descriptor_scan(model, p)
                bundles = all_descriptors(d)
                assert [e["a"] for e in scan["descriptors"]] == [b.a for b in bundles]
                descriptors = []
                for entry, bundle in zip(scan["descriptors"], bundles):
                    counts, coeffs = series_counts(profile_g1(bundle, order), r, a1, a2)
                    assert (entry["counts"], entry["dim"]) == (counts, dim_fit(coeffs)), (p, bundle)
                    descriptors.append(
                        {
                            "bundle": "generic" if bundle.a is None else f"special({bundle.a})",
                            "counts": [list(c) for c in counts],
                            "dim": dim_fit(coeffs),
                            "nonempty": any(n > 0 for _, n in counts),
                        }
                    )
                nonempty = any(e["nonempty"] for e in descriptors)
                payload = {
                    "genus": 1,
                    "fixture": fixture,
                    "order_diff": order,
                    "generality_ok": order > d,
                    "criterion": nonempty_criterion(p),
                    "oracle_nonempty": nonempty,
                    "descriptors": descriptors,
                }
                if order > d:
                    payload["agree"] = payload["criterion"] == nonempty
                params = {"genus": 1, "r": r, "d": d, "alpha1": list(p.alpha1), "alpha2": list(p.alpha2)}
                response, code = run({"command": "oracle-verify", "params": {**params, "fixture": fixture}})
                status = "ok" if nonempty else "empty"
                assert (_dump(response), code) == (
                    _dump({"status": status, "payload": payload, "diagnostics": []}),
                    0,
                ), p
                scans += 1
    assert set(oracle._PROFILES) == {(d, model.order_diff) for d in range(7)}
    assert scans == sum(comb(d + 1, r + 1) ** 2 for d in range(7) for r in range(min(2, d) + 1))


def test_a_genus_1_request_builds_no_vanishing_seq(monkeypatch):
    # the scan reads a_j = alpha_j + j off the problem's checked RamSeqs
    built = []
    init = VanishingSeq.__init__

    def counted(self, entries, d):
        built.append(entries)
        init(self, entries, d)

    monkeypatch.setattr(VanishingSeq, "__init__", counted)
    params = {"genus": 1, "r": 1, "d": 4, "alpha1": [0, 1], "alpha2": [0, 0]}
    for fixture in ("general", "torsion2"):
        response, code = run({"command": "oracle-verify", "params": {**params, "fixture": fixture}})
        assert code == 0, response
    assert built == []


def test_the_answer_memo_is_bounded():
    # keyed on (value at X, X), so its size would otherwise grow with the histograms
    assert isinstance(oracle._answer.cache_info().maxsize, int)
    oracle._answer.cache_clear()
    series_counts(profile_complementary(4), 1, (0, 1), (0, 1))
    series_counts(profile_complementary(4), 1, (0, 1), (0, 1))
    info = oracle._answer.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def _outcome(call):
    try:
        return call()
    except InfeasibleSize as exc:
        return str(exc)


def test_g0_series_counts_matches_the_validated_public_path(monkeypatch):
    monkeypatch.delenv("BN_ENUM_BUDGET", raising=False)
    monkeypatch.setattr(oracle, "_PROFILES", {})
    refused = 0
    for d in range(7):
        for r in range(min(2, d) + 1):
            for p in all_problems(0, r, d):
                a1, a2 = to_vanishing(p.alpha1), to_vanishing(p.alpha2)
                expected = _outcome(lambda: series_counts(profile_complementary(d + 1), r, a1.entries, a2.entries))
                refused += isinstance(expected, str)
                # checked VanishingSeqs, as the CLI passes them, and raw tuples
                assert _outcome(lambda: g0_series_counts(d, r, a1, a2)) == expected, p
                assert _outcome(lambda: g0_series_counts(d, r, a1.entries, a2.entries)) == expected, p
    assert refused == comb(7, 3) ** 2  # (r, d) = (2, 6) is over the default budget at q = 4


def _count_profile_builds(monkeypatch):
    builds = []
    init = FlagProfile.__init__

    def counted(self, n, orders):
        builds.append(n)
        init(self, n, orders)

    monkeypatch.setattr(FlagProfile, "__init__", counted)
    return builds


@pytest.mark.parametrize(
    "params, first",
    [
        ({"genus": 1, "r": 1, "d": 4, "alpha1": [0, 1], "alpha2": [0, 0]}, 4 + 2),
        ({"genus": 1, "r": 1, "d": 4, "alpha1": [0, 1], "alpha2": [0, 0], "fixture": "torsion2"}, 4 + 2),
        ({"genus": 1, "r": 0, "d": 0, "alpha1": [0], "alpha2": [0]}, 0 + 2),
        ({"genus": 0, "r": 1, "d": 4, "a1": [0, 1], "a2": [0, 2]}, 1),
    ],
)
def test_a_repeated_request_builds_no_profile(params, first, monkeypatch):
    monkeypatch.setattr(oracle, "_PROFILES", {})
    builds = _count_profile_builds(monkeypatch)
    request = {"command": "oracle-verify", "params": params}
    response, code = run(request)
    assert code == 0, response
    assert len(builds) == first
    other = {**params, "alpha1": [0] * (params["r"] + 1)} if params["genus"] else {**params, "a2": [0, 1]}
    assert run({"command": "oracle-verify", "params": other})[1] == 0  # same (d, fixture), other sequences
    assert run(request) == (response, code)
    assert len(builds) == first


def test_a_request_that_counts_nothing_keeps_no_profile(monkeypatch):
    # at r = d every genus-1 descriptor has n = d < k: no histogram is built, so no profile is kept
    monkeypatch.setattr(oracle, "_PROFILES", {})
    monkeypatch.setattr(oracle, "_HIST_CACHE", {})
    builds = _count_profile_builds(monkeypatch)
    request = {"command": "oracle-verify", "params": {"genus": 1, "r": 3, "d": 3}}
    for _ in range(2):
        response, code = run(request)
        assert (response["status"], code) == ("empty", 0)
        # genus 0 with k = n + 1, which only the library API can ask for
        assert g0_series_counts(1, 2, (0, 1, 2), (0, 1, 2)) == ([(2, 0), (3, 0), (4, 0)], ())
    assert len(builds) == 2 * (3 + 2 + 1)
    assert oracle._PROFILES == oracle._HIST_CACHE == {}


def test_a_vanishing_seq_of_a_larger_context_is_checked_again():
    # A VanishingSeq skips the entry checks only when its context d is at most n.
    wide = VanishingSeq((0, 5), 5)
    for a1 in (wide, wide.entries):
        with pytest.raises(ValueError, match=r"entry a_1=5 outside \[0, 3\]"):
            series_counts(profile_complementary(3), 1, a1, (0, 1))
        with pytest.raises(ValueError, match=r"entry a_1=5 outside \[0, 4\]"):
            g0_series_counts(3, 1, a1, (0, 1))
    with pytest.raises(ValueError, match="expected 3 vanishing orders, got 2"):
        g0_series_counts(3, 2, VanishingSeq((0, 1), 3), (0, 1, 2))


@pytest.mark.parametrize(
    "params",
    [
        {"genus": 0, "r": 1, "d": 4, "a1": [0, 1], "a2": [0, 2]},
        {"genus": 1, "r": 1, "d": 4, "alpha1": [0, 1], "alpha2": [0, 0]},
        {"genus": 1, "r": 4, "d": 4},
    ],
)
def test_a_request_reads_the_budget_once(params, monkeypatch):
    monkeypatch.delenv("BN_ENUM_BUDGET", raising=False)
    reads = []
    original = core._enum_budget

    def counted():
        reads.append(1)
        return original()

    for module in (core, oracle):
        monkeypatch.setattr(module, "_enum_budget", counted)
    response, code = run({"command": "oracle-verify", "params": params})
    assert code in (0, 1), response
    assert len(reads) == 1


@pytest.mark.parametrize(
    "params",
    [
        {"genus": 0, "r": 1, "d": 4, "a1": [0, 1], "a2": [0, 2]},
        {"genus": 1, "r": 1, "d": 4, "alpha1": [0, 1], "alpha2": [0, 0]},
        {"genus": 1, "r": 4, "d": 4},  # refused by the profile charge alone
    ],
)
def test_a_refused_request_fills_no_memo(params, monkeypatch):
    monkeypatch.setattr(oracle, "_PROFILES", {})
    monkeypatch.setattr(oracle, "_HIST_CACHE", {})
    builds = _count_profile_builds(monkeypatch)
    monkeypatch.setenv("BN_ENUM_BUDGET", "10")
    response, code = run({"command": "oracle-verify", "params": params})
    assert code == 2 and response["diagnostics"][0].startswith("InfeasibleSize"), response
    assert oracle._PROFILES == oracle._HIST_CACHE == {}
    assert builds == []


def test_a_non_integer_budget_fails_where_a_budget_is_read(monkeypatch):
    monkeypatch.setenv("BN_ENUM_BUDGET", "lots")
    message = "BN_ENUM_BUDGET must be an integer, got 'lots'"
    # nothing to count and no profile charge: the budget is not read
    assert series_counts(profile_complementary(2), 2, (0, 1, 2), (0, 1, 2)) == ([(2, 0), (3, 0), (4, 0)], ())
    assert count_series(2, profile_complementary(2), 2, (0, 1, 2), (0, 1, 2)) == 0
    assert oracle.refuse_subspaces_over_budget(2, 3) is None
    general = load_fixture("general")
    for call in (
        lambda: series_counts(profile_complementary(3), 1, (0, 1), (0, 1)),
        lambda: count_series(2, profile_complementary(3), 0, (0,), (0,)),
        lambda: g0_series_counts(3, 1, (0, 1), (0, 1)),
        lambda: g0_series_counts(1, 2, (0, 1, 2), (0, 1, 2)),  # k > n, but one profile is charged
        lambda: ec_descriptor_scan(general, problem(1, 1, 3)),
        lambda: ec_descriptor_scan(general, problem(1, 3, 3)),
    ):
        with pytest.raises(RuntimeError, match=message):
            call()
