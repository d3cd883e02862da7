"""Per-layer tracing of heislab from outside the program.

Wrappers are installed around the public functions of each module (the
layers ``cli``, ``reprs``, ``zlattice``, ``rings``, ``ut3``, ``formula`` and
``nilform``) and removed again afterwards; the program's source is not
touched.  Every wrapped call pushes a frame on one stack, so each call's
self time is its duration minus the time of the wrapped calls it made.

Three recording modes, chosen per function by how often it runs:

* ``span``  -- one span record (name, start, end, parent span, query id) is
  kept in memory and written out at the end of the run;
* ``timed`` -- calls, total and self time are accumulated, no span record
  (the ring and group operations run millions of times per run; a span per
  call would dominate memory);
* ``count`` -- calls only; the time stays in the caller's self time.

A function's ``ms`` counts only its outermost invocations, so recursion
(``eval_term``) and re-entry (``__sub__`` calling ``__add__``) are not
counted twice; a layer's ``ms`` likewise counts only calls with no enclosing
call of the same layer.
"""

from __future__ import annotations

import functools
import json
import time

_now = time.perf_counter_ns

LAYERS = ("cli", "reprs", "zlattice", "rings", "ut3", "formula", "nilform")


def _digits(rows) -> int:
    """Decimal digits of the largest absolute entry of a matrix."""
    biggest = max((abs(x) for row in rows for x in row), default=0)
    return len(str(biggest))


class Tracer:
    def __init__(self):
        self.stack: list[list] = []  # open frames: [child_ns, span_id]
        self.stats: dict[str, list[int]] = {}  # name -> [calls, ns, self_ns]
        self.name_depth: dict[str, int] = {}
        self.layer_depth = dict.fromkeys(LAYERS, 0)
        self.layer_ns = dict.fromkeys(LAYERS, 0)
        self.spans: list[tuple] = []  # (name, start, end, parent, query)
        self.extra: dict[str, int] = {}  # work counts and size maxima
        self.query = -1
        self._patches: list[tuple] = []
        self._origin = _now()

    # -- recording ---------------------------------------------------------

    def _stat(self, name: str) -> list[int]:
        if name not in self.stats:
            self.stats[name] = [0, 0, 0]
            self.name_depth[name] = 0
        return self.stats[name]

    def wrap(self, fn, name: str, mode: str, after=None):
        """A recording wrapper around fn.  ``after(result, args)`` may add
        work counts once the call has returned."""
        layer = name.split(".", 1)[0]
        st = self._stat(name)
        stack = self.stack
        name_depth = self.name_depth
        layer_depth = self.layer_depth
        layer_ns = self.layer_ns
        spans = self.spans

        if mode == "count":

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                st[0] += 1
                return fn(*args, **kwargs)

            return counted

        spanned = mode == "span"

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if spanned:
                parent = next((f[1] for f in reversed(stack) if f[1] >= 0), -1)
                span_id = len(spans)
                spans.append(None)
            else:
                span_id = -1
            frame = [0, span_id]
            stack.append(frame)
            name_depth[name] += 1
            layer_depth[layer] += 1
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][0] += dur
                st[0] += 1
                st[2] += dur - frame[0]
                name_depth[name] -= 1
                if not name_depth[name]:
                    st[1] += dur
                layer_depth[layer] -= 1
                if not layer_depth[layer]:
                    layer_ns[layer] += dur
                if spanned:
                    spans[span_id] = (name, t0, t1, parent, self.query)
            if after is not None:
                after(result, args)
            return result

        return timed

    def patch(self, owner, attr: str, name: str, mode: str, after=None):
        original = owner.__dict__[attr]
        if isinstance(original, functools.cached_property):
            wrapped = functools.cached_property(self.wrap(original.func, name, mode, after))
            wrapped.__set_name__(owner, attr)
        else:
            wrapped = self.wrap(original, name, mode, after)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def add(self, key: str, n: int):
        self.extra[key] = self.extra.get(key, 0) + n

    def note_max(self, key: str, n: int):
        self.extra[key] = max(self.extra.get(key, 0), n)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def ms(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[1] / 1e6

    def self_ms(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[2] / 1e6

    def layer_summary(self) -> dict[str, tuple[int, float, float]]:
        """layer -> (calls, ms, self ms)."""
        out = {}
        for layer in LAYERS:
            names = [n for n in self.stats if n.split(".", 1)[0] == layer]
            out[layer] = (
                sum(self.stats[n][0] for n in names),
                self.layer_ns[layer] / 1e6,
                sum(self.stats[n][2] for n in names) / 1e6,
            )
        return out

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for name, t0, t1, parent, query in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ns": t0 - self._origin,
                            "end_ns": t1 - self._origin,
                            "parent": parent,
                            "query": query,
                        }
                    )
                    + "\n"
                )


def install(tracer: Tracer, heislab) -> None:
    """Wrap the public functions of every heislab layer."""
    cli, reprs, zlattice = heislab.cli, heislab.reprs, heislab.zlattice
    rings, ut3, formula, nilform = heislab.rings, heislab.ut3, heislab.formula, heislab.nilform
    p = tracer.patch

    p(cli, "main", "cli.main", "span")

    def hnf_sizes(lat, args):
        tracer.note_max("zlattice.hnf.max_rows", len(args[0]))
        tracer.note_max("zlattice.hnf.max_cols", lat.ambient_dim)
        tracer.note_max("zlattice.hnf.basis_max_digits", _digits(lat.basis))
        tracer.note_max("zlattice.hnf.transform_max_digits", _digits(lat.transform or ()))

    p(zlattice, "hnf", "zlattice.hnf", "span", hnf_sizes)
    p(zlattice, "intersect_coordinate_zero", "zlattice.intersect_coordinate_zero", "span")
    p(zlattice, "solve", "zlattice.solve", "timed")
    p(zlattice, "in_source_coordinates", "zlattice.in_source_coordinates", "span")
    p(
        zlattice.Lattice,
        "vectors_up_to",
        "zlattice.vectors_up_to",
        "span",
        lambda out, _args: tracer.add("zlattice.vectors_up_to.vectors", len(out)),
    )

    p(reprs, "parse_config", "reprs.parse_config", "span")
    p(reprs, "serialize_config", "reprs.serialize_config", "span")
    p(reprs.Representation, "frame", "reprs.frame", "span")
    p(reprs, "entry_lattices", "reprs.entry_lattices", "span")
    p(reprs.Representation, "elem_from_coords", "reprs.elem_from_coords", "timed")
    p(reprs.Representation, "product_of_generators", "reprs.product_of_generators", "span")
    for fn, name in (
        ("lame_check", "reprs.lame_check"),
        ("tau_check", "reprs.tau_check"),
        ("sigma_check", "reprs.sigma_check"),
        ("nzct_check", "reprs.nzct_check"),
        ("solve_S", "reprs.solve"),
        ("solve_T", "reprs.solve"),
        ("c_rank", "reprs.c_rank"),
        ("appropriateness_check", "reprs.appropriateness_check"),
        ("big_powers_retraction", "reprs.big_powers_retraction"),
        ("extend_centralizer", "reprs.extend_centralizer"),
        ("adjoin_Y", "reprs.adjoin_Y"),
        ("adjoin_center", "reprs.adjoin_center"),
    ):
        p(reprs, fn, name, "span")

    p(rings.RingElem, "__add__", "rings.add", "timed")
    p(rings.RingElem, "__sub__", "rings.add", "timed")
    p(rings.RingElem, "__mul__", "rings.mul", "timed")
    p(rings.RingElem, "scale", "rings.scale", "timed")
    p(rings, "substitute", "rings.substitute", "timed")
    p(rings, "embed", "rings.embed", "timed")
    p(rings, "parse_elem", "rings.parse_elem", "span")
    p(cli, "parse_elem", "rings.parse_elem", "span")

    p(ut3.UT3Elem, "__mul__", "ut3.mul", "timed")
    p(ut3.UT3Elem, "comm", "ut3.comm", "timed")
    p(ut3.UT3Elem, "inv", "ut3.inv", "timed")
    p(ut3.UT3Elem, "pow_int", "ut3.pow_int", "timed")

    p(
        formula.GroupEnv,
        "ball",
        "formula.ball",
        "span",
        lambda out, _args: tracer.add("formula.ball.elements", len(out)),
    )
    p(formula, "eval_qf", "formula.eval_qf", "timed")
    p(formula, "eval_term", "formula.eval_term", "timed")
    p(formula, "parse", "formula.parse", "span")
    p(formula, "parse_term", "formula.parse_term", "span")
    p(cli, "parse_formula", "formula.parse", "span")
    p(cli, "parse_term", "formula.parse_term", "span")
    for owner in (formula, cli):
        p(owner, "refute_universal", "formula.search", "span")
        p(owner, "witness_existential", "formula.search", "span")

    p(
        nilform,
        "discriminate_to_H",
        "nilform.discriminate_to_H",
        "span",
        lambda _cert, _args: tracer.add("nilform.certificates", 1),
    )
    p(nilform.Hom, "apply", "nilform.hom_apply", "timed")
    p(nilform.Hom, "__call__", "nilform.hom_apply", "timed")
    p(nilform.Hom, "__init__", "nilform.hom_new", "count")
    p(nilform, "collect", "nilform.collect", "timed")
    p(nilform.NilForm, "__mul__", "nilform.mul", "timed")
    p(nilform.NilForm, "inv", "nilform.inv", "timed")
    p(nilform.NilForm, "pow_int", "nilform.pow_int", "timed")
    p(nilform.NilForm, "comm", "nilform.comm", "timed")
