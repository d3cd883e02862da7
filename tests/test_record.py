"""The immutable records (``heislab.record.Record``) and what importing the
package costs."""

import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

import heislab
from heislab import formula as F
from heislab import nilform, reprs, rings, ut3, zlattice
from heislab.record import Record
from heislab.rings import Z, RingDesc, RingElem, RingMismatchError


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # a fresh interpreter, compared before and after, so the modules that
    # site's .pth files import do not count
    src = str(pathlib.Path(heislab.__file__).resolve().parents[1])
    code = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        "import heislab.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60, check=True)
    loaded = json.loads(proc.stdout)
    assert "heislab.cli" in loaded
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded


X, Y = F.Var("x"), F.Var("y")
E1 = RingElem.integer(Z, 3)
Z2 = rings.parse_ring("Z^2")
LAW = ut3.Class2Law.free(2)


def _samples():
    """Constructor arguments for one instance of every record class."""
    h = reprs.heisenberg()
    t_a1, t_a2 = h.terms  # the entry terms of a1 and a2
    return {
        F.One: (),
        F.Var: ("x",),
        F.Const: ("a1",),
        F.TMul: (X, Y),
        F.TPow: (X, -1),
        F.TComm: (X, Y),
        F.Eq: (X, Y),
        F.Ne: (X, Y),
        F.Not: (F.Eq(X, Y),),
        F.And: ((F.Eq(X, Y), F.Ne(X, F.ONE)),),
        F.Or: ((F.Eq(X, Y), F.Ne(X, F.ONE)),),
        F.Implies: (F.Eq(X, Y), F.Eq(Y, X)),
        F.Quant: ("forall", ("x", "y"), F.Eq(X, Y)),
        F.Verdict: ("violated", "bounded_search", None, 2),
        F.SearchWitness: ({"x": (1, 0, 0)}, {"x": "a1"}),
        RingDesc: (((), ("t",)),),
        RingElem: (Z, E1.parts),
        rings.Retraction: (0, (("t", 2),)),
        rings.DomainFailure: ((E1, E1),),
        ut3.UT3Elem: (Z, E1, E1, E1),
        ut3.Class2Law: (LAW.dim, LAW.central, LAW.table),
        zlattice.Lattice: (2, ((1, 0),), ((1,),)),
        reprs.LameWitness: (Z, 1, t_a1, 0),
        reprs.TauWitness: (Z, t_a2, t_a1),
        reprs.NzctWitness: (Z, t_a1, t_a2, t_a1, t_a2),
        reprs.SigmaWitness: (Z, {(0, ()): 3}, "S"),
        reprs.Solution: (Z, t_a1, (1, 0)),
        reprs.Representation: (Z, h.names, h.terms, False),
        reprs.BigPowersCertificate: (Z, 2, "theta", (({}, {(0, ()): 2}, {}),)),
        reprs.Appropriateness: (Z, "refuted", {(0, ()): 3}, 3),
        nilform.NilForm: (2, (1, 0), (5,)),
        nilform.DiscriminationCertificate: (((1, 0, 0),), ((1, 0, 0),)),
    }


def _record_classes():
    """Every concrete record class in heislab (the private shapes aside)."""
    out, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("heislab.") and not cls.__name__.startswith("_"):
                out.add(cls)
    return out


def _copy(value):
    """An equal value that shares no container with ``value``."""
    if isinstance(value, tuple):
        return tuple(_copy(v) for v in value)
    if isinstance(value, dict):
        return {k: _copy(v) for k, v in value.items()}
    return value


def test_every_record_class_has_a_sample():
    assert set(_samples()) == _record_classes()
    assert len(_samples()) == 32


@pytest.mark.parametrize("cls", list(_samples()), ids=lambda c: c.__qualname__)
def test_record_value_semantics(cls):
    args = _samples()[cls]
    r, s = cls(*args), cls(*_copy(args))
    # the fields are the __init__ parameters, in order
    assert cls._fields == tuple(inspect.signature(cls).parameters)
    assert tuple(getattr(r, f) for f in cls._fields) == args
    assert r is not s and r == s and not r != s and hash(r) == hash(s)
    # as a frozen dataclass hashed: the tuple of the hashed fields, so sets
    # of records iterate in the same order
    unhashed = {
        F.SearchWitness: ("assignment", "words"),
        reprs.Representation: ("terms",),
        reprs.BigPowersCertificate: ("retracted_targets",),
        reprs.LameWitness: ("element",),
        reprs.TauWitness: ("y", "x"),
        reprs.NzctWitness: ("q", "p", "w", "y"),
        reprs.SigmaWitness: ("value",),
        reprs.Solution: ("element",),
        reprs.Appropriateness: ("witness",),
    }.get(cls, ())
    assert hash(r) == hash(tuple(getattr(r, f) for f in cls._fields if f not in unhashed))
    # keyword construction
    assert cls(**dict(zip(cls._fields, _copy(args)))) == r
    # no record equals a plain tuple or list of its fields
    assert r != args and r != list(args) and args != r
    for f in cls._fields:
        with pytest.raises(AttributeError):
            setattr(r, f, None)
        with pytest.raises(AttributeError):
            delattr(r, f)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert tuple(getattr(r, f) for f in cls._fields) == args
    assert repr(r).startswith(cls.__qualname__ + "(")


def test_same_fields_in_two_classes_compare_unequal():
    for a, b in ((F.TMul, F.TComm), (F.Eq, F.Ne), (F.And, F.Or), (F.Var, F.Const), (F.TMul, F.Implies)):
        args = _samples()[a]
        assert a(*args) != b(*args) and b(*args) != a(*args)
        assert not a(*args) == b(*args)
    assert len({F.TMul(X, Y), F.TComm(X, Y), F.Eq(X, Y), F.Ne(X, Y)}) == 4


def test_one_field_changed_compares_unequal():
    assert F.TMul(X, Y) != F.TMul(Y, X)
    assert F.TPow(X, 2) != F.TPow(X, -2)
    assert F.Verdict("holds", "exact_lattice") != F.Verdict("holds", "exact_lattice", bound=1)
    assert RingElem.integer(Z, 1) != RingElem.integer(Z, 2)
    assert ut3.a1(Z) != ut3.a2(Z)
    assert ut3.Class2Law.free(2) != ut3.Class2Law.free(3)


def test_search_witness_hash_ignores_its_dicts():
    a = F.SearchWitness({"x": (1, 0, 0)}, {"x": "a1"})
    b = F.SearchWitness({"y": (0, 1, 0)}, {"y": "a2"})
    assert hash(a) == hash(b) == hash(())
    assert a != b and a == F.SearchWitness({"x": (1, 0, 0)}, {"x": "a1"})


def test_repr_names_the_fields_and_hides_the_law_table():
    assert repr(F.TMul(X, F.ONE)) == "TMul(left=Var(name='x'), right=One())"
    assert repr(ut3.Class2Law.free(2)) == "Class2Law(dim=3, central=2)"
    assert repr(F.Verdict("holds", "exact_lattice")) == (
        "Verdict(status='holds', method='exact_lattice', witness=None, bound=None)"
    )


def test_defaults_and_positional_construction():
    v = F.Verdict("holds", "exact_lattice")
    assert (v.witness, v.bound) == (None, None)
    assert F.Verdict(status="holds", method="exact_lattice", bound=3).bound == 3
    h = reprs.heisenberg()
    rep = reprs.Representation(Z, h.names, h.terms)
    assert rep.full_center is False and rep == h
    centered = reprs.adjoin_center(rep)
    assert centered.full_center is True and centered.terms is h.terms and centered != rep
    assert reprs.Appropriateness(Z, "confirmed") == reprs.Appropriateness(Z, "confirmed", None, 0)
    # positionally from rebuilt parts, as bench/check.py builds ring elements
    x = rings.parse_elem(rings.parse_ring("Z[t] x Z"), "(2*t^2 - 1, 3)")
    assert RingElem(x.ring, tuple(tuple(p) for p in x.parts)) == x


def test_config_read_representation_equals_its_matrix_built_twin():
    from heislab import cli

    rep = reprs.parse_config(cli.FIXTURES["tau-fails-zxz"])
    ring = rep.ring
    zero = RingElem.zero(ring)
    Y = ut3.UT3Elem(ring, rings.parse_elem(ring, "(1,0)"), zero, zero)
    X = ut3.UT3Elem(ring, zero, zero, rings.parse_elem(ring, "(0,1)"))
    twin = reprs.representation(ring, {"Y": Y, "X": X})
    assert rep == twin and hash(rep) == hash(twin) and len({rep, twin}) == 1
    assert rep.generators == twin.generators
    assert rep != reprs.representation(ring, {"X": X, "Y": Y})


def test_cached_properties_still_cache():
    rep = reprs.heisenberg()
    assert rep.f12 is rep.f12
    assert "f12" in vars(rep) and rep == reprs.heisenberg()
    law = ut3.Class2Law.free(3)
    assert law.identity is law.identity == (0,) * 6


def test_constructor_checks_raise_as_before():
    with pytest.raises(ValueError, match="component count mismatch"):
        RingElem(Z2, E1.parts)
    with pytest.raises(ValueError, match="at least one component"):
        RingDesc(())
    with pytest.raises(ValueError, match="duplicate indeterminate"):
        RingDesc((("t", "t"),))
    with pytest.raises(RingMismatchError, match="entry over the wrong ring"):
        ut3.UT3Elem(Z, E1, RingElem.integer(Z2, 1), E1)
    with pytest.raises(ValueError, match="do not match rank"):
        nilform.NilForm(2, (1,), (0,))
    with pytest.raises(ValueError, match="do not match rank"):
        nilform.NilForm(3, (1, 0, 0), (0,))


class _Point(Record):
    a: int
    b: tuple = (0,)


def test_generated_init_signature_and_defaults():
    assert str(inspect.signature(_Point)) == "(a, b=(0,))"
    assert _Point.__init__.__qualname__ == "_Point.__init__"
    p = _Point(1)
    assert (p.a, p.b) == (1, (0,)) and vars(p) == {"a": 1, "b": (0,)}
    assert _Point(1, (2,)) == _Point(b=(2,), a=1) == _Point(a=1, b=(2,))
    assert _Point(1) != _Point(1, (2,))


@pytest.mark.parametrize(
    "cls, args, kwargs",
    [
        (_Point, (), {}),
        (_Point, (1, 2, 3), {}),
        (_Point, (1,), {"c": 3}),
        (_Point, (1,), {"a": 1}),
        (F.Verdict, ("holds",), {}),
        (F.Verdict, ("holds", "exact_lattice", None, 1, 2), {}),
        (F.TMul, (X,), {}),
        (F.Var, (), {"name": "x", "label": "y"}),
    ],
    ids=["missing", "extra", "unknown-keyword", "twice", "Verdict", "Verdict-extra", "TMul", "Var"],
)
def test_generated_init_rejects_bad_arguments(cls, args, kwargs):
    owner = "_Pair" if cls is F.TMul else cls.__qualname__
    with pytest.raises(TypeError, match=rf"^{owner}\.__init__\(\) "):
        cls(*args, **kwargs)


def test_a_field_without_default_after_a_defaulted_one_is_rejected():
    with pytest.raises(TypeError, match="follows a defaulted one"):

        class _Bad(Record):
            a: int = 0
            b: int


def test_only_the_checking_classes_write_their_own_init():
    def written(cls):
        init = vars(cls).get("__init__")
        return init is not None and init.__code__.co_filename == sys.modules[cls.__module__].__file__

    classes = _record_classes() | {F._Pair}
    assert {c for c in classes if written(c)} == {RingDesc, RingElem, ut3.UT3Elem, nilform.NilForm}
    # the others with fields of their own have one generated by Record; the
    # rest inherit theirs
    generated = {c for c in classes if "__init__" in vars(c) and not written(c)}
    assert generated == {c for c in classes if vars(c).get("__annotations__") and not written(c)}
    assert F.TMul.__init__ is F.Eq.__init__ is F._Pair.__init__
    assert F._Pair.__init__.__qualname__ == "_Pair.__init__"
    assert "__init__" not in vars(F.TMul) and "__init__" not in vars(F.One)
