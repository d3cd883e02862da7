"""Immutable records: the value type of heislab's AST nodes, ring and matrix
elements, lattices, verdicts, witnesses and certificates.

A subclass of ``Record`` declares its fields as class annotations, in order,
and writes its own ``__init__``, which checks its arguments and stores each
field with ``setfield``; a subclass that declares none keeps its base's
fields and ``__init__``.  ``Record`` supplies the rest: equality (same class
and equal fields), a hash of the fields not named in ``_unhashed``, a repr
``Name(field=value, ...)`` without the fields named in ``_hidden``, and
assignment and deletion that raise ``AttributeError``.  Two records of
different classes never compare equal, even with equal fields (``TMul(x, y)``
and ``TComm(x, y)``), and no record equals a plain tuple.  A
``functools.cached_property`` on a record still works, since it writes the
instance dictionary directly.
"""

from __future__ import annotations

from operator import attrgetter

setfield = object.__setattr__


def _getter(names: tuple[str, ...]):
    """The named attributes' values as one tuple (``attrgetter`` returns a
    bare value for a single name)."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return lambda obj: (get(obj),)
    return lambda obj: ()


class Record:
    _fields: tuple[str, ...] = ()
    _unhashed: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ())) or cls._fields
        cls._fields = fields
        cls._values = staticmethod(_getter(fields))
        cls._hashed = staticmethod(_getter(tuple(f for f in fields if f not in cls._unhashed)))
        cls._shown = tuple(f for f in fields if f not in cls._hidden)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return other is self or self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._hashed(self))

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
