"""Level domains: well-ordered universe indices with a strict successor.

Two instances are provided. ``NAT`` is the naturals. ``NAT_OMEGA`` extends
them with a second tier ``omega, omega+1, ...`` sitting above every
natural; order is lexicographic on (tier, offset). Both are cofinal:
``next_above`` always yields a strictly larger element in the same tier.
"""

from __future__ import annotations

import re

from .node import Node

__all__ = [
    "Finite",
    "OmegaPlus",
    "LevelValue",
    "LevelSyntaxError",
    "LevelDomain",
    "NatDomain",
    "NatOmegaDomain",
    "NAT",
    "NAT_OMEGA",
    "domain_named",
    "DOMAINS",
]


class Finite(Node):
    """A natural number level."""

    __slots__ = ()
    __match_args__ = ("n",)

    def __new__(cls, n: int) -> Finite:
        return tuple.__new__(cls, (n,))


class OmegaPlus(Node):
    """The level omega + n, above every finite level."""

    __slots__ = ()
    __match_args__ = ("n",)

    def __new__(cls, n: int) -> OmegaPlus:
        return tuple.__new__(cls, (n,))


LevelValue = Finite | OmegaPlus


class LevelSyntaxError(ValueError):
    """Raised for text that is not a level literal of the domain."""


_FINITE_RE = re.compile(r"0|[1-9][0-9]*")
_OMEGA_RE = re.compile(r"omega(\+(?P<off>[1-9][0-9]*))?")


_TIERS = {Finite: 0, OmegaPlus: 1}


def _key(value: LevelValue) -> tuple[int, int]:
    # (tier, offset); lexicographic order on this pair is the level order.
    tier = _TIERS.get(type(value))
    if tier is None:
        raise TypeError(f"Unexpected level value: {value!r}")
    return (tier, value[0])


class LevelDomain:
    """A well-ordered collection of levels with strict successor.

    Subclasses pin down which values belong to the domain and how
    literals read and print; the order itself is shared.
    """

    name: str = "abstract"

    def contains(self, value: LevelValue) -> bool:
        raise NotImplementedError

    def lt(self, a: LevelValue, b: LevelValue) -> bool:
        """Strict order. Pre: both values belong to this domain."""
        return _key(a) < _key(b)

    def next_above(self, a: LevelValue) -> LevelValue:
        """A strictly larger level in the same tier."""
        return self.nth_above(a, 1)

    def nth_above(self, a: LevelValue, n: int) -> LevelValue:
        """``next_above`` applied ``n`` times, in one step."""
        _, k = _key(a)
        return type(a)(k + n)

    def zero(self) -> LevelValue:
        return Finite(0)

    def parse_literal(self, text: str) -> LevelValue:
        raise NotImplementedError

    def format_literal(self, value: LevelValue) -> str:
        match value:
            case Finite(n):
                return str(n)
            case OmegaPlus(0):
                return "omega"
            case OmegaPlus(n):
                return f"omega+{n}"
        raise TypeError(f"Unexpected level value: {value!r}")

    # Sampling hooks for the property harness. Values are kept small so
    # generated judgments stay readable and shrinkable.

    def sample(self, rng, ceiling: int = 6) -> LevelValue:
        raise NotImplementedError

    def sample_below(self, rng, bound: LevelValue) -> LevelValue | None:
        """Some value strictly below ``bound``, or None if none exists."""
        raise NotImplementedError


class NatDomain(LevelDomain):
    """Finite levels only."""

    name = "nat"

    def contains(self, value: LevelValue) -> bool:
        return isinstance(value, Finite)

    def parse_literal(self, text: str) -> LevelValue:
        if _FINITE_RE.fullmatch(text):
            return Finite(int(text))
        raise LevelSyntaxError(f"not a nat level literal: {text!r}")

    def sample(self, rng, ceiling: int = 6) -> LevelValue:
        return Finite(rng.randrange(ceiling))

    def sample_below(self, rng, bound: LevelValue) -> LevelValue | None:
        match bound:
            case Finite(0):
                return None
            case Finite(n):
                return Finite(rng.randrange(n))
        raise TypeError(f"value outside nat domain: {bound!r}")


class NatOmegaDomain(LevelDomain):
    """Finite levels plus the tier omega, omega+1, ..."""

    name = "nat-omega"

    def contains(self, value: LevelValue) -> bool:
        return isinstance(value, (Finite, OmegaPlus))

    def parse_literal(self, text: str) -> LevelValue:
        if _FINITE_RE.fullmatch(text):
            return Finite(int(text))
        m = _OMEGA_RE.fullmatch(text)
        if m:
            off = m.group("off")
            return OmegaPlus(int(off) if off else 0)
        raise LevelSyntaxError(f"not a nat-omega level literal: {text!r}")

    def sample(self, rng, ceiling: int = 6) -> LevelValue:
        if rng.random() < 0.25:
            return OmegaPlus(rng.randrange(max(ceiling // 2, 1)))
        return Finite(rng.randrange(ceiling))

    def sample_below(self, rng, bound: LevelValue) -> LevelValue | None:
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


NAT = NatDomain()
NAT_OMEGA = NatOmegaDomain()

DOMAINS = {NAT.name: NAT, NAT_OMEGA.name: NAT_OMEGA}


def domain_named(name: str) -> LevelDomain:
    try:
        return DOMAINS[name]
    except KeyError:
        raise LevelSyntaxError(f"unknown level domain: {name!r}") from None
