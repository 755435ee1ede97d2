"""Level domains: well-founded universe indices with a strict successor.

Every domain draws its levels from one value space, ``Finite(n)`` and
``OmegaPlus(n)``. ``LevelDomain`` owns everything about that space: the
order (lexicographic on (tier, offset), so every ``omega+n`` sits above
every natural), the successor ``next_above`` (the next offset in the
same tier, so every level has one), the literal syntax (``0``, ``7``,
``omega``, ``omega+1``) and sampling below a bound. A domain adds a
``name``, ``contains`` (which values of the space it admits) and
``sample``. Two are provided: ``NAT``, the naturals, and ``NAT_OMEGA``,
which adds the tier ``omega, omega+1, ...``.
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
    "randbelow",
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


_LITERAL_RE = re.compile(r"(?P<n>0|[1-9][0-9]*)|omega(\+(?P<off>[1-9][0-9]*))?")


_TIERS = {Finite: 0, OmegaPlus: 1}


def _key(value: LevelValue) -> tuple[int, int]:
    # (tier, offset); lexicographic order on this pair is the level order.
    tier = _TIERS.get(type(value))
    if tier is None:
        raise TypeError(f"Unexpected level value: {value!r}")
    return (tier, value[0])


def randbelow(rng, n: int) -> int:
    """A uniform integer in ``range(n)`` from ``rng``, a ``random.Random``.

    It reads ``rng.getrandbits(n.bit_length())`` until the value is below
    ``n``: exactly what ``Random._randbelow`` does under ``randrange(n)``,
    ``choice`` and ``randint``, so the values drawn and the state left
    behind are theirs, without their Python-level argument handling.
    Raises ValueError for ``n <= 0``, which has nothing to draw.
    """
    if n <= 0:
        raise ValueError(f"empty range for randbelow: {n}")
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


class LevelDomain:
    """A set of levels drawn from the ``Finite``/``OmegaPlus`` value
    space, well-founded under its order and with a strict successor.

    The order, the successor, the literal syntax and sampling below a
    bound are those of the whole value space and are shared; a domain
    adds a ``name``, ``contains`` and ``sample``. Literals and bounds
    outside ``contains`` are rejected.
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
        m = _LITERAL_RE.fullmatch(text)
        if m:
            n, off = m.group("n", "off")
            value = Finite(int(n)) if n else OmegaPlus(int(off or 0))
            if self.contains(value):
                return value
        raise LevelSyntaxError(f"not a {self.name} level literal: {text!r}")

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
    # generated judgments stay readable and shrinkable. Every bounded draw
    # goes through ``randbelow``, so the stream is the one ``random``'s
    # ``randrange``, ``choice`` and ``randint`` draw; the harness's suite
    # digests pin it.

    def sample(self, rng, ceiling: int = 6) -> LevelValue:
        raise NotImplementedError

    def sample_below(self, rng, bound: LevelValue) -> LevelValue | None:
        """Some value strictly below ``bound``, or None if none exists."""
        if not self.contains(bound):
            raise TypeError(f"value outside {self.name} domain: {bound!r}")
        match bound:
            case Finite(0):
                return None
            case Finite(n):
                return Finite(randbelow(rng, n))
            case OmegaPlus(n) if n and rng.random() < 0.5:
                return OmegaPlus(randbelow(rng, n))
        return Finite(randbelow(rng, 6))


class NatDomain(LevelDomain):
    """Finite levels only."""

    name = "nat"

    def contains(self, value: LevelValue) -> bool:
        return isinstance(value, Finite)

    def sample(self, rng, ceiling: int = 6) -> LevelValue:
        return Finite(randbelow(rng, ceiling))


class NatOmegaDomain(LevelDomain):
    """Finite levels plus the tier omega, omega+1, ..."""

    name = "nat-omega"

    def contains(self, value: LevelValue) -> bool:
        return isinstance(value, (Finite, OmegaPlus))

    def sample(self, rng, ceiling: int = 6) -> LevelValue:
        if rng.random() < 0.25:
            return OmegaPlus(randbelow(rng, max(ceiling // 2, 1)))
        return Finite(randbelow(rng, ceiling))


NAT = NatDomain()
NAT_OMEGA = NatOmegaDomain()

DOMAINS = {NAT.name: NAT, NAT_OMEGA.name: NAT_OMEGA}


def domain_named(name: str) -> LevelDomain:
    try:
        return DOMAINS[name]
    except KeyError:
        raise LevelSyntaxError(f"unknown level domain: {name!r}") from None
