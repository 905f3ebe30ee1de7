"""The value classes: equality within a class, field-tuple hashes, reprs, immutability,
copying and pickling, and the exact text of every constructor's ValueError."""

import copy
import pickle

import pytest

from bnseries.chains import ChainComponent, ChainWitness
from bnseries.core import BNProblem, RamSeq, VanishingSeq, zero_ram
from bnseries.oracle import EllipticModel, FlagProfile, load_fixture
from bnseries.realize import G0Series, LineBundleDescriptor
from bnseries.strata import Stratum, TwoComponentProblem

A, B = RamSeq((0, 1), 3), RamSeq((1, 2), 3)
COMPONENT = ChainComponent(1, A, B, 0)

# (object, its field tuple, its exact repr)
CASES = [
    (A, ((0, 1), 3), "RamSeq(entries=(0, 1), d=3)"),
    (VanishingSeq((0, 2), 3), ((0, 2), 3), "VanishingSeq(entries=(0, 2), d=3)"),
    (
        BNProblem(2, 1, 3, A, B),
        (2, 1, 3, A, B),
        "BNProblem(g=2, r=1, d=3, alpha1=RamSeq(entries=(0, 1), d=3), "
        "alpha2=RamSeq(entries=(1, 2), d=3))",
    ),
    (
        Stratum(A, B),
        (A, B),
        "Stratum(alpha_y=RamSeq(entries=(0, 1), d=3), alpha_z=RamSeq(entries=(1, 2), d=3))",
    ),
    (
        TwoComponentProblem(1, 0, 1, 3, A, B),
        (1, 0, 1, 3, A, B),
        "TwoComponentProblem(g_y=1, g_z=0, r=1, d=3, alpha1=RamSeq(entries=(0, 1), d=3), "
        "alpha2=RamSeq(entries=(1, 2), d=3))",
    ),
    (
        COMPONENT,
        (1, A, B, 0),
        "ChainComponent(genus=1, left_ram=RamSeq(entries=(0, 1), d=3), "
        "right_ram=RamSeq(entries=(1, 2), d=3), component_rho=0)",
    ),
    (
        ChainWitness(1, 3, (COMPONENT,), 0),
        (1, 3, (COMPONENT,), 0),
        "ChainWitness(r=1, d=3, components=(ChainComponent(genus=1, "
        "left_ram=RamSeq(entries=(0, 1), d=3), right_ram=RamSeq(entries=(1, 2), d=3), "
        "component_rho=0),), total_rho=0)",
    ),
    (
        G0Series(2, [[1, 0, 0], [0, 1, 1]]),
        (2, ((1, 0, 0), (0, 1, 1))),
        "G0Series(d=2, basis=((1, 0, 0), (0, 1, 1)))",
    ),
    (LineBundleDescriptor(3, 1), (3, 1), "LineBundleDescriptor(d=3, a=1)"),
    (LineBundleDescriptor(3, None), (3, None), "LineBundleDescriptor(d=3, a=None)"),
    (FlagProfile(2, [(1, 0), (0, 1)]), (2, ((0, 1), (1, 0))), "FlagProfile(n=2, orders=((0, 1), (1, 0)))"),
    (
        load_fixture("general"),
        (53, 0, 1, (52, 0), (0, 1), 6),
        "EllipticModel(p=53, a=0, b=1, p1=(52, 0), p2=(0, 1), order_diff=6)",
    ),
]
IDS = [repr(case[0]).partition("(")[0] for case in CASES]


@pytest.mark.parametrize("obj,fields,text", CASES, ids=IDS)
def test_value_semantics(obj, fields, text):
    cls = type(obj)
    twin = cls(*fields)
    assert twin == obj and not twin != obj and twin is not obj
    assert hash(obj) == hash(twin) == hash(fields)
    assert repr(obj) == text
    assert obj != fields  # a field tuple is not the value
    first = text.partition("(")[2].partition("=")[0]  # the first field's name
    with pytest.raises(AttributeError):
        setattr(obj, first, getattr(obj, first))
    with pytest.raises(AttributeError):
        delattr(obj, first)
    assert repr(obj) == text  # nothing above changed it
    for clone in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(clone) is cls
        assert clone == obj and hash(clone) == hash(obj)
        assert repr(clone) == text


def test_equality_only_within_a_class():
    assert RamSeq((0, 1), 3) != VanishingSeq((0, 1), 3)
    assert VanishingSeq((0, 1), 3) != RamSeq((0, 1), 3)
    assert len({RamSeq((0, 1), 3), VanishingSeq((0, 1), 3)}) == 2
    p = BNProblem(1, 1, 3, A, B)
    assert p != TwoComponentProblem(1, 0, 1, 3, A, B)
    assert RamSeq((0, 1), 3) != RamSeq((0, 1), 4)
    assert LineBundleDescriptor(3, None) != LineBundleDescriptor(3, 0)


def test_every_field_is_immutable():
    p = BNProblem(1, 1, 3, A, B)
    for name in ("g", "r", "d", "alpha1", "alpha2"):
        with pytest.raises(AttributeError):
            setattr(p, name, 0)
    s = Stratum(A, B)
    for name in ("alpha_y", "alpha_z", "_excess"):
        with pytest.raises(AttributeError):
            setattr(s, name, 0)
    for value in (A, VanishingSeq((0, 1), 3), p, s):
        with pytest.raises(AttributeError):
            value.extra = 1  # no new attributes either
    assert s.refined and A.entries == (0, 1)


def test_stratum_excess_is_not_compared_or_shown():
    s = Stratum(RamSeq((0, 1), 3), RamSeq((2, 2), 3))
    assert not s.refined
    assert "_excess" not in repr(s)
    assert copy.deepcopy(s).refined is False
    assert pickle.loads(pickle.dumps(s)).refined is False


def _message(build):
    with pytest.raises(ValueError) as info:
        build()
    return str(info.value)


SEQ_ERRORS = [
    (lambda: RamSeq((), 3), "ramification sequence must be nonempty"),
    (lambda: VanishingSeq([], 3), "vanishing sequence must be nonempty"),
    (lambda: RamSeq((0, 0, 0), 1), "need 0 <= r <= d, got r=2, d=1"),
    (lambda: RamSeq((0, 3), 3), "entry alpha_1=3 outside [0, 2] for r=1, d=3"),
    (lambda: RamSeq((1, 0), 3), "entries not nondecreasing at index 1"),
    (lambda: VanishingSeq((0, 4), 3), "entry a_1=4 outside [0, 3]"),
    (lambda: VanishingSeq((1, 1), 3), "entries not strictly increasing at index 1"),
    (lambda: RamSeq(("x",), 3), "invalid literal for int() with base 10: 'x'"),
    (lambda: RamSeq(None, 3), "ramification entries must be a sequence of ints"),
    (lambda: VanishingSeq(5, 3), "vanishing entries must be a sequence of ints"),
]
PROBLEM_ERRORS = [
    (lambda: BNProblem(-1, 1, 3, A, B), "genus must be nonnegative, got -1"),
    (lambda: BNProblem(1, 4, 3, A, B), "need 0 <= r <= d, got r=4, d=3"),
    (lambda: BNProblem(1, 1, 3, (0, 1), B), "alpha1 must be a RamSeq"),
    (
        lambda: BNProblem(1, 1, 3, A, RamSeq((0, 1), 4)),
        "alpha2 has context (r=1, d=4), expected (r=1, d=3)",
    ),
    (lambda: Stratum(A, RamSeq((0, 1), 4)), "node sequences must share the same (r, d) context"),
    (
        lambda: Stratum(RamSeq((0, 0), 3), RamSeq((0, 1), 3)),
        "incompatible node pair (0, 0) / (0, 1) for (r=1, d=3)",
    ),
    (lambda: TwoComponentProblem(-1, 0, 1, 3, A, B), "component genera must be nonnegative"),
    (lambda: TwoComponentProblem(0, -2, 1, 3, A, B), "component genera must be nonnegative"),
    (lambda: TwoComponentProblem(0, 0, 1, 3, A, A.entries), "alpha2 must be a RamSeq"),
    (lambda: Stratum((0, 1), (1, 1)), "alpha_y must be a RamSeq"),
    (lambda: Stratum(A, [1, 2]), "alpha_z must be a RamSeq"),
]
CHAIN_ERRORS = [
    (lambda: ChainComponent(2, A, B, 0), "chain components have genus 0 or 1"),
    (
        lambda: ChainComponent(1, A, zero_ram(1, 4), 0),
        "left/right sequences must share the (r, d) context",
    ),
    (lambda: ChainWitness(1, 3, (), 0), "a chain needs at least one component"),
    (lambda: ChainWitness(1, 4, (COMPONENT,), 0), "component context does not match the chain"),
    (lambda: ChainComponent(1, (0, 1), B, 0), "left_ram must be a RamSeq"),
    (lambda: ChainComponent(1, A, VanishingSeq((1, 2), 3), 0), "right_ram must be a RamSeq"),
    (lambda: ChainWitness(1, 3, (1, 2), 0), "components[0] must be a ChainComponent"),
    (lambda: ChainWitness(1, 3, (COMPONENT, A), 0), "components[1] must be a ChainComponent"),
    (lambda: ChainWitness(1, 3, [COMPONENT], 0), "components must be a tuple of ChainComponents"),
]
REALIZE_ERRORS = [
    (lambda: G0Series(2, ((1, 0),)), "coefficient vectors must have length d+1=3"),
    (lambda: LineBundleDescriptor(-1, None), "degree must be nonnegative"),
    (lambda: LineBundleDescriptor(3, 4), "special descriptor needs 0 <= a <= d, got a=4"),
    (lambda: LineBundleDescriptor(3, -1), "special descriptor needs 0 <= a <= d, got a=-1"),
    (lambda: G0Series(2, None), "basis must be a sequence of coefficient vectors"),
    (lambda: G0Series(2, (1, 0, 0)), "basis must be a sequence of coefficient vectors"),
]
ORACLE_ERRORS = [
    (lambda: FlagProfile(-1, ()), "profile dimension must be >= 0"),
    (lambda: FlagProfile(2, ((0, 1),)), "profile needs 2 vanishing-order pairs, got 1"),
    (lambda: FlagProfile(2, ((0, 1), (0, 0))), "flag-1 orders must be distinct integers in [0, 2]"),
    (lambda: FlagProfile(2, ((0, 1), (1, 3))), "flag-2 orders must be distinct integers in [0, 2]"),
    (lambda: EllipticModel(4, 0, 1, (0, 1), (0, 1), 1), "4 is not an odd prime >= 5"),
    (lambda: EllipticModel(7, 0, 0, (0, 0), (0, 0), 1), "curve is singular"),
    (lambda: EllipticModel(53, 0, 1, (1, 1), (0, 1), 6), "point (1, 1) is not on the curve"),
    (
        lambda: EllipticModel(53, 0, 1, (52, 0), (0, 1), 5),
        "stored order_diff 5 != ord(P1 - P2) = 6",
    ),
    (lambda: FlagProfile(2, None), "orders must be a sequence of (o1, o2) pairs"),
    (lambda: FlagProfile(2, ((0, 1), (1, 0, 2))), "orders must be a sequence of (o1, o2) pairs"),
    (lambda: EllipticModel(53, 0, 1, None, (0, 1), 6), "p1 must be an (x, y) pair"),
    (lambda: EllipticModel(53, 0, 1, (52, 0), (0, 1, 0), 6), "p2 must be an (x, y) pair"),
]


@pytest.mark.parametrize(
    "build,message",
    SEQ_ERRORS + PROBLEM_ERRORS + CHAIN_ERRORS + REALIZE_ERRORS + ORACLE_ERRORS,
    ids=lambda value: value if isinstance(value, str) else None,
)
def test_constructor_messages(build, message):
    assert _message(build) == message


# integer fields take exactly int: no bool, float or integer string, each named in the text
NON_INT_ERRORS = [
    (lambda: ChainComponent(1.0, A, B, 0), "genus must be an int, got 1.0"),
    (lambda: ChainComponent(True, A, B, 0), "genus must be an int, got True"),
    (lambda: ChainComponent(1, A, B, 0.5), "component_rho must be an int, got 0.5"),
    (lambda: LineBundleDescriptor(3.5, 1.5), "d must be an int, got 3.5"),
    (lambda: LineBundleDescriptor(True, None), "d must be an int, got True"),
    (lambda: LineBundleDescriptor(3, 1.5), "a must be an int, got 1.5"),
    (lambda: TwoComponentProblem(True, 0, 1, 3, A, B), "g_y must be an int, got True"),
    (lambda: TwoComponentProblem(0.5, 0.5, 1, 3, A, B), "g_y must be an int, got 0.5"),
    (lambda: TwoComponentProblem(0, "1", 1, 3, A, B), "g_z must be an int, got '1'"),
    (lambda: TwoComponentProblem(0, "x", 1, 3, A, B), "invalid literal for int() with base 10: 'x'"),
    (lambda: FlagProfile(2.0, ((1, 0), (0, 1))), "n must be an int, got 2.0"),
    (lambda: FlagProfile(2, ((1.0, 0), (0, 1))), "o1 of orders[0] must be an int, got 1.0"),
    (lambda: FlagProfile(2, ((1, 0), (0, True))), "o2 of orders[1] must be an int, got True"),
    (lambda: FlagProfile(2, ((1, 0), (None, 1))), "o1 of orders[1] must be an int, got None"),
    (lambda: EllipticModel(53.0, 0, 1, (52, 0), (0, 1), 6), "p must be an int, got 53.0"),
    (lambda: EllipticModel(53, 0, True, (52, 0), (0, 1), 6), "b must be an int, got True"),
    (lambda: EllipticModel(53, 0, 1, (52.0, 0), (0, 1), 6), "p1[0] must be an int, got 52.0"),
    (lambda: EllipticModel(53, 0, 1, (52, 0), (0, 1), 6.0), "order_diff must be an int, got 6.0"),
    (lambda: ChainWitness(1.0, 3, (COMPONENT,), 1), "r must be an int, got 1.0"),
    (lambda: ChainWitness(1, True, (COMPONENT,), 1), "d must be an int, got True"),
    (lambda: ChainWitness(1, 3, (COMPONENT,), 1.5), "total_rho must be an int, got 1.5"),
    (lambda: G0Series(2.0, ((1, 0, 0),)), "d must be an int, got 2.0"),
    (lambda: G0Series("2", ((1, 0, 0),)), "d must be an int, got '2'"),
]


@pytest.mark.parametrize("build,message", NON_INT_ERRORS, ids=lambda value: value if isinstance(value, str) else None)
def test_integer_fields_refuse_other_types(build, message):
    assert _message(build) == message
