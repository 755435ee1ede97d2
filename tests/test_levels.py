"""Level domain order, successor, and literal syntax."""

from __future__ import annotations

import copy
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gen import level_values, finite_levels
from ulevels.levels import (
    NAT,
    NAT_OMEGA,
    Finite,
    LevelDomain,
    LevelSyntaxError,
    OmegaPlus,
    _key,
    domain_named,
    randbelow,
)
from ulevels.terms import Lvl, Var


def test_lt_frozen_values():
    assert NAT.lt(Finite(0), Finite(1))
    assert not NAT.lt(Finite(2), Finite(2))
    assert NAT_OMEGA.lt(Finite(1_000_000), OmegaPlus(0))
    assert not NAT_OMEGA.lt(OmegaPlus(0), Finite(1_000_000))


def test_next_above_frozen_values():
    assert NAT.next_above(Finite(3)) == Finite(4)
    assert NAT_OMEGA.next_above(Finite(7)) == Finite(8)
    assert NAT_OMEGA.next_above(OmegaPlus(0)) == OmegaPlus(1)


@given(level_values, st.integers(0, 5))
def test_nth_above_is_repeated_next_above(a, n):
    b = a
    for _ in range(n):
        b = NAT_OMEGA.next_above(b)
    assert NAT_OMEGA.nth_above(a, n) == b


def _table_lt(a, b) -> bool:
    # Independent small-value table: rank both tiers lexicographically.
    def rank(v):
        return (0, v.n) if isinstance(v, Finite) else (1, v.n)

    return rank(a) < rank(b)


SMALL = [Finite(n) for n in range(13)] + [OmegaPlus(n) for n in range(13)]


def test_lt_matches_exhaustive_small_table():
    for a in SMALL:
        for b in SMALL:
            assert NAT_OMEGA.lt(a, b) == _table_lt(a, b), (a, b)


def test_lt_agrees_with_the_key_order_within_and_across_tiers():
    # Two values of one tier compare their offsets directly; every other
    # pair goes through ``_key``, which the order is defined by.
    grid = [Finite(n) for n in (0, 1, 2, 7, 10**6)] + [OmegaPlus(n) for n in (0, 1, 5)]
    for a in grid:
        for b in grid:
            assert NAT_OMEGA.lt(a, b) == (_key(a) < _key(b)), (a, b)


@pytest.mark.parametrize("a, b", [
    (Lvl(Finite(0)), Lvl(Finite(1))),  # one class, but not a level value
    (3, 4),
    (Finite(0), 3),
    (OmegaPlus(0), Var(0)),
])
def test_lt_rejects_a_non_level(a, b):
    with pytest.raises(TypeError, match="Unexpected level value"):
        NAT_OMEGA.lt(a, b)
    with pytest.raises(TypeError, match="Unexpected level value"):
        NAT_OMEGA.format_literal(b)


@given(level_values)
def test_successor_is_strictly_above_and_same_tier(a):
    b = NAT_OMEGA.next_above(a)
    assert NAT_OMEGA.lt(a, b)
    assert type(a) is type(b)


@given(level_values, level_values)
def test_trichotomy(a, b):
    verdicts = [
        NAT_OMEGA.lt(a, b),
        a == b,
        NAT_OMEGA.lt(b, a),
    ]
    assert verdicts.count(True) == 1


@given(level_values, level_values, level_values)
def test_transitivity(a, b, c):
    if NAT_OMEGA.lt(a, b) and NAT_OMEGA.lt(b, c):
        assert NAT_OMEGA.lt(a, c)


@given(level_values)
def test_wellfoundedness_via_rank(a):
    # Any strict descent lowers the lexicographic (tier, offset) rank,
    # which lives in nat^2, so descending chains are finite.
    def rank(v):
        return (0, v.n) if isinstance(v, Finite) else (1, v.n)

    for b in SMALL:
        if NAT_OMEGA.lt(b, a):
            assert rank(b) < rank(a)


@pytest.mark.parametrize(
    "text,value",
    [
        ("0", Finite(0)),
        ("7", Finite(7)),
        ("120", Finite(120)),
        ("omega", OmegaPlus(0)),
        ("omega+1", OmegaPlus(1)),
        ("omega+42", OmegaPlus(42)),
    ],
)
def test_parse_literal(text, value):
    assert NAT_OMEGA.parse_literal(text) == value


@pytest.mark.parametrize("text", ["", "007", "-1", "omega+0", "omega+", "w", "omega +1"])
def test_parse_literal_rejects(text):
    with pytest.raises(LevelSyntaxError) as e:
        NAT_OMEGA.parse_literal(text)
    assert str(e.value) == f"not a nat-omega level literal: {text!r}"


def test_nat_domain_rejects_omega_literals():
    with pytest.raises(LevelSyntaxError) as e:
        NAT.parse_literal("omega")
    assert str(e.value) == "not a nat level literal: 'omega'"
    assert NAT.parse_literal("3") == Finite(3)


@given(level_values)
def test_format_parse_roundtrip(a):
    assert NAT_OMEGA.parse_literal(NAT_OMEGA.format_literal(a)) == a


@given(finite_levels)
def test_nat_format_parse_roundtrip(a):
    assert NAT.parse_literal(NAT.format_literal(a)) == a


def test_domain_registry():
    assert domain_named("nat") is NAT
    assert domain_named("nat-omega") is NAT_OMEGA
    with pytest.raises(LevelSyntaxError):
        domain_named("ordinal")


def test_membership():
    assert NAT.contains(Finite(5))
    assert not NAT.contains(OmegaPlus(0))
    assert NAT_OMEGA.contains(OmegaPlus(3))
    with pytest.raises(NotImplementedError):
        LevelDomain().contains(Finite(5))


def test_zero_and_sampling_stay_in_domain():
    rng = random.Random(7)
    assert NAT.zero() == Finite(0)
    for _ in range(200):
        assert NAT.contains(NAT.sample(rng))
        assert NAT_OMEGA.contains(NAT_OMEGA.sample(rng))
        below = NAT_OMEGA.sample_below(rng, OmegaPlus(2))
        assert below is not None and NAT_OMEGA.lt(below, OmegaPlus(2))
    assert NAT.sample_below(rng, Finite(0)) is None
    with pytest.raises(NotImplementedError):
        LevelDomain().sample(rng)
    assert NAT_OMEGA.sample_below(rng, Finite(0)) is None
    with pytest.raises(TypeError, match="^value outside nat domain: OmegaPlus"):
        NAT.sample_below(rng, OmegaPlus(0))


def _nat_sample_below(rng, bound):
    # NatDomain.sample_below before the domains shared one.
    match bound:
        case Finite(0):
            return None
        case Finite(n):
            return Finite(rng.randrange(n))
    raise TypeError(f"value outside nat domain: {bound!r}")


def _nat_omega_sample_below(rng, bound):
    # NatOmegaDomain.sample_below before the domains shared one.
    match bound:
        case Finite(0):
            return None
        case Finite(n):
            return Finite(rng.randrange(n))
        case OmegaPlus(0):
            return Finite(rng.randrange(6))
        case OmegaPlus(n):
            if rng.random() < 0.5:
                return OmegaPlus(rng.randrange(n))
            return Finite(rng.randrange(6))
    raise TypeError(f"Unexpected level value: {bound!r}")


@pytest.mark.parametrize(
    "domain, oracle",
    [(NAT, _nat_sample_below), (NAT_OMEGA, _nat_omega_sample_below)],
    ids=["nat", "nat-omega"],
)
def test_sample_below_draws_as_each_domain_did(domain, oracle):
    # Same values and the same random draws, so generated cases and the
    # fuzz digests do not move.
    pick = random.Random(5)
    tiers = [Finite] if domain is NAT else [Finite, OmegaPlus]
    bounds = [tier(k) for tier in tiers for k in (0, 1, 3)]
    bounds += [pick.choice(tiers)(pick.randrange(8)) for _ in range(2000 - len(bounds))]
    got, want = random.Random(9), random.Random(9)
    for bound in bounds:
        assert domain.sample_below(got, bound) == oracle(want, bound), bound
        assert got.getstate() == want.getstate(), bound


# 1..130, then each power of two up to 2**20 and its neighbours.
_BOUNDS = list(range(1, 131)) + [2**k + d for k in range(8, 21) for d in (-1, 0, 1)]


@pytest.mark.parametrize(
    "oracle",
    [
        lambda rng, n: rng.randrange(n),
        lambda rng, n: rng.choice(range(n)),
        lambda rng, n: rng.randint(0, n - 1),
    ],
    ids=["randrange", "choice", "randint"],
)
@pytest.mark.parametrize("seed", [0, 7, "draws"])
def test_randbelow_draws_the_random_module_stream(oracle, seed):
    got, want = random.Random(seed), random.Random(seed)
    for n in _BOUNDS:
        for _ in range(3):
            assert randbelow(got, n) == oracle(want, n), n
            assert got.getstate() == want.getstate(), n


@pytest.mark.parametrize("n", [0, -1, -(2**20)])
def test_randbelow_rejects_an_empty_range_without_drawing(n):
    rng = random.Random(3)
    before = rng.getstate()
    with pytest.raises(ValueError, match="empty range"):
        randbelow(rng, n)
    assert rng.getstate() == before


# ---------------------------------------------------------------------------
# Level values follow the node contract of terms.


@pytest.mark.parametrize(
    "value, text", [(Finite(0), "Finite(n=0)"), (OmegaPlus(3), "OmegaPlus(n=3)")]
)
def test_level_value_node_contract(value, text):
    assert repr(value) == text
    assert hash(value) == hash((value.n,))
    with pytest.raises(AttributeError):
        value.n = 1
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(TypeError):
        value < value
    for clone in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value
    match value:
        case Finite(n) | OmegaPlus(n):
            assert n == value.n
        case _:
            pytest.fail("no pattern matched")


@pytest.mark.parametrize("n", [0, 1, 5])
def test_tiers_with_equal_offsets_are_unequal(n):
    a, b = Finite(n), OmegaPlus(n)
    assert hash(a) == hash(b)
    assert not a == b and a != b
    assert not b == a and b != a
    assert len({a, b}) == 2
