"""Immutable records stored as tuples of their fields.

Terms, level values, derivation nodes, check results, substitutions,
generated cases and tokens are built, hashed and compared in very large
numbers, so they subclass ``tuple``: building one, hashing it and
keeping it run in C. A node class declares ``__slots__ = ()``, lists
its fields in ``__match_args__`` and defines ``__new__`` with one
parameter per field (defaults included); each field becomes a
read-only tuple getter, the C descriptor ``collections.namedtuple``
gives its own fields. A getter read is still slower than a dataclass's
instance-dict read, so hot loops unpack a node's fields at once
(``rule, ctx, term, ty, premises = node``).

The contract is that of a frozen dataclass:

- two nodes are equal when they have the same class and equal fields;
- the hash is the hash of the tuple of fields;
- ``repr`` prints ``Name(field=value, ...)``;
- fields cannot be assigned, and nodes cannot be ordered, concatenated
  or repeated; every node is truthy, including one without fields,
  unless its class defines ``__bool__`` (``CheckResult`` is true only
  when accepted);
- ``pickle`` and ``copy.deepcopy`` rebuild a node through ``__new__``.

Hashing recurses in C, outside Python's recursion limit; equality and
``repr`` recurse through Python frames and stay under it.
"""

from __future__ import annotations

from collections import namedtuple

__all__ = ["Node"]


class Node(tuple):
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # The field descriptors of a namedtuple read a tuple slot in C and
        # refuse assignment; they apply to any tuple, so each field
        # borrows one.
        getters = vars(namedtuple(cls.__name__, cls.__match_args__))
        for name in cls.__match_args__:
            setattr(cls, name, getters[name])
        shown = ", ".join(f"{name}=%r" for name in cls.__match_args__)
        # ``%`` takes a tuple, so a node formats its own fields.
        cls._repr_format = f"{cls.__qualname__}({shown})"

    def __repr__(self) -> str:
        return self._repr_format % self

    __hash__ = tuple.__hash__

    def __eq__(self, other: object) -> bool:
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return type(self) is not type(other) or tuple.__ne__(self, other)

    def __bool__(self) -> bool:
        return True

    def _unsupported(self, other: object):
        return NotImplemented

    __lt__ = __le__ = __gt__ = __ge__ = _unsupported
    __add__ = __mul__ = __rmul__ = _unsupported

    def __getnewargs__(self) -> tuple:
        # Pickling and copying call ``cls.__new__(cls, *fields)``.
        return tuple(self)
