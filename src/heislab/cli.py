"""The ``heislab`` command-line front end.

Exit codes: 0 = holds/success, 1 = violated/counterexample (witness printed),
2 = inconclusive/bound exhausted, 3 = usage or config error.

The environment variable HEISLAB_MAX_BOUND caps every ``--bound``
(default 6); ``discriminate`` and ``bigpowers`` take no bound and always
decide.  All output is deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import formula, nilform, reprs
from .formula import (
    CounterExample,
    FormulaError,
    NoneWithinBound,
    builtin,
    classify,
    parse as parse_formula,
    parse_term,
    print_formula,
    refute_universal,
    witness_existential,
)
from .reprs import ConfigError, Representation, Verdict
from .rings import RingParseError, parse_elem
from .ut3 import UT3Elem


class UsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# Fixtures

FIXTURES = {
    # the representation over Z x Z whose C(a1) contains a zero-divisor entry
    "zxz-lame": """\
ring: Z x Z
full_center: false
generators: {
  b: {e12: 0, e13: 0, e23: (1,0)}
}
""",
    # the same group presented over the domain Z[theta]
    "ztheta-lame": """\
ring: Z[theta]
full_center: false
generators: {
  b: {e12: 0, e13: 0, e23: theta}
}
""",
    # full slices of UT3(Z x Z): tau (and NZCT) fail here
    "tau-fails-zxz": """\
ring: Z x Z
full_center: false
generators: {
  Y: {e12: (1,0), e13: 0, e23: 0},
  X: {e12: 0, e13: 0, e23: (0,1)}
}
""",
    # the integer Heisenberg group itself
    "heisenberg": """\
ring: Z
full_center: false
generators: {}
""",
}


def fixture(name: str) -> Representation:
    if name not in FIXTURES:
        raise UsageError(f"unknown example {name!r} (have: {', '.join(sorted(FIXTURES))})")
    return reprs.parse_config(FIXTURES[name])


# ---------------------------------------------------------------------------
# Helpers


def _max_bound() -> int:
    raw = os.environ.get("HEISLAB_MAX_BOUND", "6")
    try:
        cap = int(raw)
    except ValueError:
        raise UsageError(f"HEISLAB_MAX_BOUND must be an integer, got {raw!r}")
    if cap < 1:
        raise UsageError("HEISLAB_MAX_BOUND must be >= 1")
    return cap


def _bound(args, default: int) -> int:
    cap = _max_bound()
    b = args.bound if getattr(args, "bound", None) is not None else default
    if b < 1:
        raise UsageError("--bound must be >= 1")
    return min(b, cap)


def _load_rep(args) -> Representation:
    if getattr(args, "rep", None):
        try:
            with open(args.rep) as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.rep}: {exc}")
        return reprs.parse_config(text)
    if getattr(args, "example", None):
        return fixture(args.example)
    return reprs.heisenberg()


def _parse_z(rep: Representation, literal: str) -> UT3Elem:
    """A central element given by its (1,3) entry literal."""
    from .rings import RingElem

    z13 = parse_elem(rep.ring, literal)
    zero = RingElem.zero(rep.ring)
    return UT3Elem(rep.ring, zero, z13, zero)


_STATUS_EXIT = {"holds": 0, "violated": 1, "inconclusive": 2}

# The exact checkers, by the name ``check`` and the JSON "check" field use:
# name -> (function in reprs, takes --bound).  The function is looked up on
# reprs at each call, so wrappers installed there see every call.
CHECKERS = {
    "lame": ("lame_check", False),
    "tau": ("tau_check", False),
    "sigma": ("sigma_check", False),
    "NZCT": ("nzct_check", True),
}


def _run_checker(name: str, rep: Representation, args) -> Verdict:
    fn_name, takes_bound = CHECKERS[name]
    fn = getattr(reprs, fn_name)
    return fn(rep, _bound(args, 2)) if takes_bound else fn(rep)


def _print_fields(fields: dict) -> None:
    for key, value in fields.items():
        print(f"  {key}: {value}")


def _emit_verdict(name: str, v: Verdict, json_mode: bool) -> int:
    if json_mode:
        print(json.dumps({"check": name, **v.to_dict()}, indent=2, sort_keys=True))
    else:
        bound = "none" if v.bound is None else str(v.bound)
        print(f"{v.status} method={v.method} bound={bound}")
        if v.witness is not None:
            print("witness:")
            _print_fields(v.witness.to_dict())
    return _STATUS_EXIT[v.status]


def _read_spec(spec: str) -> str:
    """The stripped contents of the file ``spec`` names, else ``spec``."""
    if os.path.exists(spec):
        try:
            with open(spec) as fh:
                return fh.read().strip()
        except OSError as exc:
            raise UsageError(f"cannot read {spec}: {exc}")
    return spec


def _resolve_formula(spec: str):
    """A builtin name, a file path, or inline formula text."""
    spec = _read_spec(spec)
    try:
        return builtin(spec)
    except FormulaError:
        pass
    return parse_formula(spec)


class _AssignmentWitness:
    def __init__(self, words: dict):
        self.words = dict(sorted(words.items()))

    def to_dict(self):
        return self.words


def _search_verdict(kind: str, result, json_mode: bool) -> int:
    """Report a bounded-search outcome (refutation or witness search)."""
    if isinstance(result, NoneWithinBound):
        v = Verdict("inconclusive", "bounded_search", bound=result.bound)
    else:
        status = "violated" if isinstance(result, CounterExample) else "holds"
        v = Verdict(status, "bounded_search", _AssignmentWitness(result.words), result.bound)
    return _emit_verdict(kind, v, json_mode)


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_check(args) -> int:
    rep = _load_rep(args)
    name = args.formula.strip()
    if name in CHECKERS:
        return _emit_verdict(name, _run_checker(name, rep, args), args.json)
    f = _resolve_formula(args.formula)
    cls = classify(f)
    env = rep.env()
    bound = _bound(args, 2)
    if cls in ("universal", "quasi_identity", "identity"):
        return _search_verdict(cls, refute_universal(f, env, bound), args.json)
    if cls in ("existential", "primitive"):
        return _search_verdict(cls, witness_existential(f, env, bound), args.json)
    raise UsageError(f"no checker for sentences of class {cls!r}")


def cmd_search(args) -> int:
    """``refute`` a universal or ``witness`` an existential sentence."""
    rep = _load_rep(args)
    f = _resolve_formula(args.formula)
    search = refute_universal if args.command == "refute" else witness_existential
    return _search_verdict(args.command, search(f, rep.env(), _bound(args, 2)), args.json)


def cmd_checker(args) -> int:
    return _emit_verdict(args.check, _run_checker(args.check, _load_rep(args), args), args.json)


def cmd_solve(args) -> int:
    """``solve-s`` or ``solve-t``."""
    rep = _load_rep(args)
    z = _parse_z(rep, args.z)
    system = args.command[-1].upper()
    sol = (reprs.solve_S if system == "S" else reprs.solve_T)(rep, z)
    if args.json:
        out = {"system": system, "z13": str(z.u13)}
        out["solvable"] = sol is not None
        if sol is not None:
            out["solution"] = sol.to_dict()
        print(json.dumps(out, indent=2, sort_keys=True))
    else:
        if sol is None:
            print(f"unsolvable system={system} z13={z.u13}")
        else:
            print(f"solvable system={system} z13={z.u13}")
            print(f"  element: {sol.element}")
            names = [n for n, _ in rep.generators]
            word = "*".join(
                f"{n}^{c}" for n, c in zip(names, sol.coefficients) if c
            )
            print(f"  word: {word or '1'}")
    return 0 if sol is not None else 1


def cmd_crank(args) -> int:
    rank = reprs.c_rank(_load_rep(args))
    if args.json:
        print(json.dumps({"c_rank": rank}))
    else:
        print(rank)
    return 0


def cmd_extend(args) -> int:
    i = 1 if args.at == "a1" else 2
    new = reprs.extend_centralizer(_load_rep(args), i, args.name)
    sys.stdout.write(reprs.serialize_config(new))
    return 0


def cmd_adjoin_y(args) -> int:
    rep = _load_rep(args)
    new = reprs.adjoin_Y(rep, _parse_z(rep, args.z))
    sys.stdout.write(reprs.serialize_config(new))
    return 0


def cmd_adjoin_center(args) -> int:
    sys.stdout.write(reprs.serialize_config(reprs.adjoin_center(_load_rep(args))))
    return 0


def cmd_appropriate(args) -> int:
    rep = _load_rep(args)
    if args.degree < 1:
        raise UsageError("--degree must be >= 1")
    result = reprs.appropriateness_check(rep, args.degree)
    if args.json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"{result.status} degree_bound={result.degree_bound}")
        if result.witness is not None:
            print(f"  unreached: {result.witness}")
    return {"confirmed": 0, "refuted": 1, "inconclusive": 2}[result.status]


_GEN_NAME_RE = re.compile(r"a([1-9]\d*)")


def _read_targets(path: str) -> list[str]:
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")
    out = [ln.split("#", 1)[0].strip() for ln in lines]
    out = [ln for ln in out if ln]
    if not out:
        raise UsageError("targets file is empty")
    return out


def _term_names(t) -> set[str]:
    """Names of the variables and constants in a term."""
    if isinstance(t, (formula.Var, formula.Const)):
        return {t.name}
    if isinstance(t, (formula.TMul, formula.TComm)):
        return _term_names(t.left) | _term_names(t.right)
    if isinstance(t, formula.TPow):
        return _term_names(t.base)
    return set()


def cmd_discriminate(args) -> int:
    lines = _read_targets(args.targets)
    terms = [parse_term(ln) for ln in lines]
    n = 2
    for t in terms:
        for v in _term_names(t):
            m = _GEN_NAME_RE.fullmatch(v)
            if not m:
                raise UsageError(f"unknown generator {v!r} (expect a1, a2, a3, ...)")
            n = max(n, int(m.group(1)))
    env = formula.GroupEnv(
        nilform.identity(n),
        {"a1": nilform.generator(n, 1), "a2": nilform.generator(n, 2)},
        [(f"a{k}", nilform.generator(n, k)) for k in range(1, n + 1)],
    )
    assignment = {f"a{k}": nilform.generator(n, k) for k in range(3, n + 1)}
    targets = [formula.eval_term(t, env, assignment) for t in terms]
    for ln, t in zip(lines, targets):
        if t.is_identity():
            raise UsageError(f"target {ln!r} is the identity")
    cert = nilform.discriminate_to_H(targets)
    if args.json:
        print(
            json.dumps(
                {
                    "status": "holds",
                    "extra_images": [list(e) for e in cert.extra_images],
                    "target_images": [str(g) for g in cert.target_images],
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print("holds method=bounded_search")
        c = "[a2,a1]"
        for k, (p, q, r) in enumerate(cert.extra_images, start=3):
            print(f"  a{k} -> a1^{p}*a2^{q}*{c}^{r}")
        for ln, img in zip(lines, cert.target_images):
            print(f"  {ln} -> {img}")
    return 0


def cmd_bigpowers(args) -> int:
    rep = _load_rep(args)
    lines = _read_targets(args.targets)
    env = rep.env()
    targets = [formula.eval_term(parse_term(ln), env, {}) for ln in lines]
    i = 1 if args.at == "a1" else 2
    try:
        cert = reprs.big_powers_retraction(rep, targets, i, args.name)
    except ValueError as exc:
        raise UsageError(str(exc))
    if args.json:
        print(json.dumps(cert.to_dict(), indent=2, sort_keys=True))
    else:
        print(f"n={cert.n} indeterminate={cert.indeterminate}")
        for ln, img in zip(lines, cert.retracted_targets):
            print(f"  {ln} -> {img}")
    return 0


_EXAMPLE_CHECKS = {
    "zxz-lame": ("lame",),
    "ztheta-lame": ("lame",),
    "tau-fails-zxz": ("tau",),
    "heisenberg": ("lame", "tau", "sigma", "NZCT"),
}


def cmd_example(args) -> int:
    name = args.name
    rep = fixture(name)
    if not args.json:
        sys.stdout.write(FIXTURES[name])
        print()
    results = [(check, _run_checker(check, rep, args)) for check in _EXAMPLE_CHECKS[name]]
    if args.json:
        print(
            json.dumps(
                {
                    "example": name,
                    "config": FIXTURES[name],
                    "checks": {c: v.to_dict() for c, v in results},
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for check, v in results:
            label = "Lame property" if check == "lame" else check
            print(f"{check}: {label} {v.status} (method={v.method})")
            if v.witness is not None:
                _print_fields(v.witness.to_dict())
    return max(_STATUS_EXIT[v.status] for _, v in results)


def cmd_parse(args) -> int:
    f = parse_formula(_read_spec(args.formula))
    canonical = print_formula(f)
    fv = sorted(formula.free_vars(f))
    cls = classify(f) if not fv else "open"
    if args.json:
        print(
            json.dumps(
                {"canonical": canonical, "class": cls, "free_variables": fv},
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(canonical)
        print(f"class: {cls}")
        if fv:
            print(f"free variables: {', '.join(fv)}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def _add_rep_opts(p, with_json=True):
    p.add_argument("--rep", metavar="FILE", help="representation config file")
    p.add_argument(
        "--example",
        choices=sorted(FIXTURES),
        help="use a named fixture instead of --rep (default: heisenberg)",
    )
    if with_json:
        p.add_argument("--json", action="store_true", help="emit JSON")


def _add_bound_opt(p):
    p.add_argument("--bound", type=int, help="search bound (capped by HEISLAB_MAX_BOUND)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``heislab`` parser, built once; every caller shares it."""
    top = _ArgumentParser(prog="heislab", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide a builtin or formula (exact when available)")
    p.add_argument("formula", help="builtin name, formula file, or inline formula")
    _add_rep_opts(p)
    _add_bound_opt(p)
    p.set_defaults(fn=cmd_check)

    for name, hlp in (
        ("refute", "bounded counterexample search for a universal sentence"),
        ("witness", "bounded witness search for an existential sentence"),
    ):
        p = sub.add_parser(name, help=hlp)
        p.add_argument("formula")
        _add_rep_opts(p)
        _add_bound_opt(p)
        p.set_defaults(fn=cmd_search)

    for name, hlp in (
        ("lame", "exact centralizer-entry (Lame property) check"),
        ("tau", "exact tau check"),
        ("sigma", "exact sigma check"),
        ("NZCT", "NZCT check (exact shortcut, else bounded)"),
    ):
        p = sub.add_parser(name.lower(), help=hlp)
        _add_rep_opts(p)
        if CHECKERS[name][1]:
            _add_bound_opt(p)
        p.set_defaults(fn=cmd_checker, check=name)

    for name in ("solve-s", "solve-t"):
        p = sub.add_parser(name, help=f"solve the centralizer system {name[-1].upper()}")
        p.add_argument("--z", required=True, metavar="ELT", help="(1,3) entry of the central target")
        _add_rep_opts(p)
        p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("crank", help="C-rank of the representation")
    _add_rep_opts(p)
    p.set_defaults(fn=cmd_crank)

    p = sub.add_parser("extend", help="free rank-1 centralizer extension")
    p.add_argument("--at", choices=("a1", "a2"), required=True)
    p.add_argument("--name", default="theta", help="fresh indeterminate name")
    _add_rep_opts(p, with_json=False)
    p.set_defaults(fn=cmd_extend)

    p = sub.add_parser("adjoin-y", help="adjoin Y with [a2,Y]=1 and [Y,a1]=z")
    p.add_argument("--z", required=True, metavar="ELT", help="(1,3) entry of the central target")
    _add_rep_opts(p, with_json=False)
    p.set_defaults(fn=cmd_adjoin_y)

    p = sub.add_parser("adjoin-center", help="mark the full center as adjoined")
    _add_rep_opts(p, with_json=False)
    p.set_defaults(fn=cmd_adjoin_center)

    p = sub.add_parser("appropriate", help="bounded ring-appropriateness check")
    p.add_argument("--degree", type=int, default=2)
    _add_rep_opts(p)
    p.set_defaults(fn=cmd_appropriate)

    p = sub.add_parser(
        "discriminate", help="discriminating retraction of a free 2-nilpotent group"
    )
    p.add_argument("--targets", required=True, metavar="FILE", help="one word per line over a1,a2,a3,...")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_discriminate)

    p = sub.add_parser("bigpowers", help="minimal big-powers retraction exponent")
    p.add_argument("--targets", required=True, metavar="FILE", help="one word per line over the generators")
    p.add_argument("--at", choices=("a1", "a2"), required=True)
    p.add_argument("--name", help="indeterminate to retract (default: last adjoined)")
    _add_rep_opts(p)
    p.set_defaults(fn=cmd_bigpowers)

    p = sub.add_parser("example", help="print a fixture and its verdicts")
    p.add_argument("name", choices=sorted(FIXTURES))
    p.add_argument("--json", action="store_true")
    _add_bound_opt(p)
    p.set_defaults(fn=cmd_example)

    p = sub.add_parser("parse", help="echo the canonical form and class of a formula")
    p.add_argument("formula", help="formula file or inline formula")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_parse)

    return top


def main(argv=None) -> int:
    """Run one ``heislab`` command; returns its exit code.

    The parser is built on the first call and reused for the rest of the
    process.  It holds no per-query state: each ``parse_args`` returns a new
    namespace, the handlers it dispatches to are fixed, HEISLAB_MAX_BOUND is
    read when a bound is checked and help text is formatted when printed."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, RingParseError, FormulaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry():  # console_scripts hook
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
