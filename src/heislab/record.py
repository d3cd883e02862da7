"""Immutable records: the value type of heislab's AST nodes, ring and matrix
elements, lattices, verdicts, witnesses and certificates.

A subclass of ``Record`` declares its fields once, as class annotations in
order, each default on its annotation line (``witness: object = None``).
Unless it writes its own ``__init__`` (to check its arguments), it gets
``__init__(self, f1, ..., fk=default)``, compiled once per class as
``collections.namedtuple`` compiles its methods, storing each field with
``setfield``; a subclass that declares no fields keeps its base's.
``Record`` supplies the rest: equality (same class and equal fields), a
hash of the fields not named in ``_unhashed``, a repr
``Name(field=value, ...)`` without the fields named in ``_hidden``, and
assignment and deletion that raise ``AttributeError``.  Records of
different classes never compare equal, even with equal fields (``TMul(x, y)``
and ``TComm(x, y)``), and no record equals a plain tuple.  A
``functools.cached_property`` still works: it writes the instance dict.
"""

from __future__ import annotations

from operator import attrgetter

setfield = object.__setattr__


def _getter(names: tuple[str, ...]):
    """The named attributes' values as one tuple, also for one name or none."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(*names)
        return lambda obj: (get(obj),)
    return lambda obj: ()


def _make_init(cls, fields: tuple[str, ...]):
    """``__init__(self, *fields)`` for ``cls``, with its class-body defaults."""
    defaults = [cls.__dict__[f] for f in fields if f in cls.__dict__]
    if any(f in cls.__dict__ for f in fields[: len(fields) - len(defaults)]):
        raise TypeError(f"{cls.__qualname__}: a field without a default follows a defaulted one")
    body = "".join(f"\n    setfield(self, {f!r}, {f})" for f in fields)
    namespace = {"setfield": setfield}
    exec(f"def __init__(self, {', '.join(fields)}):{body}", namespace)
    init = namespace["__init__"]
    init.__defaults__ = tuple(defaults) or None
    init.__module__ = cls.__module__
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class Record:
    _fields: tuple[str, ...] = ()
    _unhashed: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = tuple(cls.__dict__.get("__annotations__", ()))
        if fields and "__init__" not in cls.__dict__:
            cls.__init__ = _make_init(cls, fields)
        cls._fields = fields = fields or cls._fields
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
