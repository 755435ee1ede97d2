"""Immutable records stored as tuples of their fields.

Every record of the package is a node: terms, level values, derivation
nodes, check results, substitutions, generated cases and tokens, which
are built, hashed and compared in very large numbers, and the records
built a few times per run (the generator's configuration, suite and
validation reports, the rule table's shapes, parsed modules and their
reports). A node subclasses ``tuple``, so building one, hashing it and
keeping it run in C, and a node class costs a small fraction of what a
dataclass costs to create at import. A node class declares
``__slots__ = ()``, lists its fields in ``__match_args__`` and defines
``__new__`` with one parameter per field (defaults included); each
field becomes a read-only tuple getter, the C descriptor
``collections.namedtuple`` gives its own fields, shared by every class
with that many fields. A getter read is still slower than a dataclass's
instance-dict read, so hot loops unpack a node's fields at once
(``rule, ctx, term, ty, premises = node``).

The contract is that of a frozen dataclass:

- two nodes are equal when they have the same class and equal fields;
  equality tests identity first, so a node compared with itself
  returns at once without comparing its fields;
- the hash is the hash of the tuple of fields; a ``checker.Derivation``
  is the exception, hashing and comparing by identity;
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
from functools import cache

__all__ = ["Node"]


@cache
def _getters(count: int) -> tuple:
    """The getters of fields 0 to ``count - 1``. The field descriptors of
    a namedtuple read a tuple slot in C and refuse assignment; they apply
    to any tuple, so classes with ``count`` fields share one set."""
    fields = namedtuple("Fields", [f"f{i}" for i in range(count)])
    return tuple(vars(fields)[name] for name in fields._fields)


class Node(tuple):
    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names = cls.__match_args__
        for name, getter in zip(names, _getters(len(names))):
            setattr(cls, name, getter)
        shown = ", ".join(f"{name}=%r" for name in names)
        # ``%`` takes a tuple, so a node formats its own fields.
        cls._repr_format = f"{cls.__qualname__}({shown})"

    def __repr__(self) -> str:
        return self._repr_format % self

    __hash__ = tuple.__hash__

    def __eq__(self, other: object) -> bool:
        return self is other or (type(self) is type(other) and tuple.__eq__(self, other))

    def __ne__(self, other: object) -> bool:
        return self is not other and (
            type(self) is not type(other) or tuple.__ne__(self, other)
        )

    def __bool__(self) -> bool:
        return True

    def _unsupported(self, other: object):
        return NotImplemented

    __lt__ = __le__ = __gt__ = __ge__ = _unsupported
    __add__ = __mul__ = __rmul__ = _unsupported

    def __getnewargs__(self) -> tuple:
        # Pickling and copying call ``cls.__new__(cls, *fields)``.
        return tuple(self)
