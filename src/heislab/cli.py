"""The ``heislab`` command-line front end.

Exit codes: 0 = holds/success, 1 = violated/counterexample (witness printed),
2 = inconclusive/bound exhausted, 3 = usage or config error, 4 = internal
error (a ``RingMismatchError``: arithmetic mixed elements of different
rings or groups, which no input should cause).  A closed standard output
(``heislab ... | head -1``) is also 3, whatever the verdict.

The environment variable HEISLAB_MAX_BOUND caps every ``--bound``
(default 6); ``discriminate`` and ``bigpowers`` take no bound and always
decide.  All output is deterministic for identical inputs.  A report is one
result document, which one emitter prints as indented, key-sorted JSON under
``--json`` or as text lines rendered from it; ``crank --json`` alone is compact.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import warnings
from typing import NamedTuple

from . import formula, nilform, reprs
from .formula import (
    FormulaError,
    UnresolvedNameError,
    Verdict,
    builtin,
    classify,
    parse as parse_formula,
    parse_term,
    print_formula,
    refute_universal,
    witness_existential,
)
from .reprs import ConfigError, Representation
from .rings import RingMismatchError, RingParseError, format_terms, parse_int, parse_terms
from .rings import parse_elem  # noqa: F401 -- no command reads it; bench/tracing.py wraps it by name
from .ut3 import Class2Law, format_entries


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


def _int(text: str, error: Exception) -> int:
    """int(text), else ``error``; a run of digits too long to convert is a
    UsageError that names its length."""
    try:
        return parse_int(text.strip(), UsageError) if text.strip().isdecimal() else int(text)
    except ValueError:
        raise error from None


def _max_bound() -> int:
    raw = os.environ.get("HEISLAB_MAX_BOUND", "6")
    cap = _int(raw, UsageError(f"HEISLAB_MAX_BOUND must be an integer, got {raw!r}"))
    if cap < 1:
        raise UsageError("HEISLAB_MAX_BOUND must be >= 1")
    return cap


def _bound(args, default: int) -> int:
    cap = _max_bound()
    b = args.bound if getattr(args, "bound", None) is not None else default
    if b < 1:
        raise UsageError("--bound must be >= 1")
    return min(b, cap)


def _read_file(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")


def _load_rep(args) -> Representation:
    if getattr(args, "rep", None):
        return reprs.parse_config(_read_file(args.rep))
    if getattr(args, "example", None):
        return fixture(args.example)
    return reprs.heisenberg()


_STATUS_EXIT = {"holds": 0, "confirmed": 0, "violated": 1, "refuted": 1, "inconclusive": 2}


def _emit(args, doc: dict, text, code: int) -> int:
    """Print a subcommand's result document and return ``code``.  --json
    prints the document itself; text mode prints the lines ``text(doc)``
    renders from it, so each string is formatted once, into the document,
    and text is built only when it is printed."""
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(*text(doc), sep="\n")
    return code


def _field_lines(fields: dict) -> list[str]:
    return [f"  {key}: {value}" for key, value in fields.items()]


def _verdict_text(doc: dict):
    bound = "none" if doc["bound"] is None else doc["bound"]
    yield f"{doc['status']} method={doc['method']} bound={bound}"
    if doc["witness"] is not None:
        yield "witness:"
        yield from _field_lines(doc["witness"])


class Checker(NamedTuple):
    function: str  # looked up on reprs at each call, so wrappers see every call
    takes_bound: bool
    label: str  # its name in ``example`` output
    help: str  # the help of its subcommand, ``name.lower()``


# The exact checkers, by the name ``check`` and the JSON "check" field use.
CHECKERS = {
    "lame": Checker("lame_check", False, "Lame property", "exact centralizer-entry (Lame property) check"),
    "tau": Checker("tau_check", False, "tau", "exact tau check"),
    "sigma": Checker("sigma_check", False, "sigma", "exact sigma check"),
    "NZCT": Checker("nzct_check", True, "NZCT", "NZCT check (exact shortcut, else bounded)"),
}


def _run_checker(name: str, rep: Representation, args) -> Verdict:
    checker = CHECKERS[name]
    fn = getattr(reprs, checker.function)
    return fn(rep, _bound(args, 2)) if checker.takes_bound else fn(rep)


def _emit_verdict(args, name: str, v: Verdict) -> int:
    return _emit(args, {"check": name, **v.to_dict()}, _verdict_text, _STATUS_EXIT[v.status])


def _read_spec(spec: str) -> str:
    """The stripped contents of the file ``spec`` names, else ``spec``."""
    return _read_file(spec).strip() if os.path.exists(spec) else spec


def _resolve_formula(spec: str):
    """A builtin name, a file path, or inline formula text."""
    spec = _read_spec(spec)
    try:
        return builtin(spec)
    except UnresolvedNameError:
        return parse_formula(spec)


# ---------------------------------------------------------------------------
# Subcommand handlers


def cmd_check(args) -> int:
    rep = _load_rep(args)
    name = args.formula.strip()
    if name in CHECKERS:
        return _emit_verdict(args, name, _run_checker(name, rep, args))
    f = _resolve_formula(args.formula)
    cls = classify(f)
    bound = _bound(args, 2)
    if cls in ("universal", "quasi_identity", "identity"):
        return _emit_verdict(args, cls, _refute(f, rep, bound))
    if cls in ("existential", "primitive"):
        return _emit_verdict(args, cls, witness_existential(f, rep.env(), bound))
    raise UsageError(f"no checker for sentences of class {cls!r}")


def _refute(f, rep: Representation, bound: int) -> Verdict:
    """``refute_universal`` of f on rep.  Where ``reprs.holds_exactly``
    proves f, no ball holds a counterexample, so this is the inconclusive
    answer that the search would give, without the search."""
    if reprs.holds_exactly(rep, f):
        return Verdict("inconclusive", "bounded_search", bound=bound)
    return refute_universal(f, rep.env(), bound)


def cmd_search(args) -> int:
    """``refute`` a universal or ``witness`` an existential sentence."""
    rep = _load_rep(args)
    f = _resolve_formula(args.formula)
    bound = _bound(args, 2)
    v = _refute(f, rep, bound) if args.command == "refute" else witness_existential(f, rep.env(), bound)
    return _emit_verdict(args, args.command, v)


def cmd_checker(args) -> int:
    return _emit_verdict(args, args.check, _run_checker(args.check, _load_rep(args), args))


def cmd_solve(args) -> int:
    """``solve-s`` or ``solve-t``."""
    rep = _load_rep(args)
    z13 = parse_terms(rep.ring, args.z)
    system = args.command[-1].upper()
    sol = (reprs.solve_S if system == "S" else reprs.solve_T)(rep, z13)
    doc = {"system": system, "z13": format_terms(rep.ring, z13), "solvable": sol is not None}
    if sol is not None:
        doc["solution"] = sol.to_dict()

    def text(doc):
        head = f"system={doc['system']} z13={doc['z13']}"
        if not doc["solvable"]:
            return [f"unsolvable {head}"]
        sol = doc["solution"]
        word = "*".join(f"{n}^{c}" for n, c in zip(rep.names, sol["exponents"]) if c)
        return [f"solvable {head}", f"  element: {sol['element']}", f"  word: {word or '1'}"]

    return _emit(args, doc, text, 0 if sol is not None else 1)


def cmd_crank(args) -> int:
    rank = reprs.c_rank(_load_rep(args))
    print(json.dumps({"c_rank": rank}) if args.json else rank)  # the one compact JSON output
    return 0


def cmd_extend(args) -> int:
    new = reprs.extend_centralizer(_load_rep(args), int(args.at[1]), args.name)
    sys.stdout.write(reprs.serialize_config(new))
    return 0


def cmd_adjoin_y(args) -> int:
    """adjoin_Y's warnings go to stderr as ``warning: <message>`` lines, the
    same on every call of the process."""
    rep = _load_rep(args)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        new = reprs.adjoin_Y(rep, parse_terms(rep.ring, args.z))
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    sys.stdout.write(reprs.serialize_config(new))
    return 0


def cmd_adjoin_center(args) -> int:
    sys.stdout.write(reprs.serialize_config(reprs.adjoin_center(_load_rep(args))))
    return 0


def cmd_appropriate(args) -> int:
    rep = _load_rep(args)
    if args.degree < 1:
        raise UsageError("--degree must be >= 1")
    doc = reprs.appropriateness_check(rep, args.degree).to_dict()

    def text(doc):
        yield f"{doc['status']} degree_bound={doc['degree_bound']}"
        if doc["witness"] is not None:
            yield f"  unreached: {doc['witness']}"

    return _emit(args, doc, text, _STATUS_EXIT[doc["status"]])


_GEN_NAME_RE = re.compile(r"a([1-9]\d*)")
# discriminate's top index; the rank-n free law has dimension n + n(n-1)/2
MAX_GENERATORS = 100


def _read_targets(path: str) -> list[str]:
    out = [ln.split("#", 1)[0].strip() for ln in _read_file(path).splitlines()]
    out = [ln for ln in out if ln]
    if not out:
        raise UsageError("targets file is empty")
    return out


def _arrow_lines(sources: list[str], images: list[str]) -> list[str]:
    return [f"  {s} -> {img}" for s, img in zip(sources, images)]


def cmd_discriminate(args) -> int:
    lines = _read_targets(args.targets)
    terms = [parse_term(ln) for ln in lines]
    n = 2
    for v in sorted(set().union(*map(formula.free_vars, terms))):
        m = _GEN_NAME_RE.fullmatch(v)
        if not m:
            raise UsageError(f"unknown generator {v!r} (expect a1, a2, a3, ...)")
        n = max(n, parse_int(m.group(1), UsageError))
    if n > MAX_GENERATORS:
        raise UsageError(f"generator index above {MAX_GENERATORS}")
    # the free class-2 group on Mal'cev coordinates; a_k is the k-th unit
    law = Class2Law.free(n)
    gens = [(f"a{k}", law.identity[: k - 1] + (1,) + law.identity[k:]) for k in range(1, n + 1)]
    env = formula.GroupEnv(law, gens[:2])
    targets = [formula.eval_term(t, env, dict(gens[2:])) for t in terms]
    for ln, t in zip(lines, targets):
        if t == law.identity:
            raise UsageError(f"target {ln!r} is the identity")
    cert = nilform.discriminate_to_H(law, targets)
    doc = {
        "status": "holds",
        "extra_images": [list(e) for e in cert.extra_images],
        "target_images": [format_entries(q, r, p) for p, q, r in cert.target_images],
    }

    def text(doc):
        yield f"{doc['status']} method=exact_certificate"
        for k, (p, q, r) in enumerate(doc["extra_images"], start=3):
            yield f"  a{k} -> a1^{p}*a2^{q}*[a2,a1]^{r}"
        yield from _arrow_lines(lines, doc["target_images"])

    return _emit(args, doc, text, 0)


def cmd_bigpowers(args) -> int:
    rep = _load_rep(args)
    lines = _read_targets(args.targets)
    env = rep.env()
    targets = [formula.eval_term(parse_term(ln), env, {}) for ln in lines]
    cert = reprs.big_powers_retraction(rep, targets, args.name)

    def text(doc):
        yield f"n={doc['n']} indeterminate={doc['indeterminate']}"
        yield from _arrow_lines(lines, doc["retracted_targets"])

    return _emit(args, cert.to_dict(), text, 0)


_EXAMPLE_CHECKS = {
    "zxz-lame": ("lame",),
    "ztheta-lame": ("lame",),
    "tau-fails-zxz": ("tau",),
    "heisenberg": ("lame", "tau", "sigma", "NZCT"),
}


def cmd_example(args) -> int:
    name = args.name
    rep = fixture(name)
    if not args.json:  # the fixture goes out before any checker can fail
        print(FIXTURES[name])
    checks = {c: _run_checker(c, rep, args).to_dict() for c in _EXAMPLE_CHECKS[name]}

    def text(doc):
        for check, v in doc["checks"].items():
            yield f"{check}: {CHECKERS[check].label} {v['status']} (method={v['method']})"
            yield from _field_lines(v["witness"] or {})

    doc = {"example": name, "config": FIXTURES[name], "checks": checks}
    return _emit(args, doc, text, max(_STATUS_EXIT[v["status"]] for v in checks.values()))


def cmd_parse(args) -> int:
    f = parse_formula(_read_spec(args.formula))
    canonical = print_formula(f)
    fv = sorted(formula.free_vars(f))
    cls = classify(f) if not fv else "open"

    def text(doc):
        yield doc["canonical"]
        yield f"class: {doc['class']}"
        if doc["free_variables"]:
            yield f"free variables: {', '.join(doc['free_variables'])}"

    return _emit(args, {"canonical": canonical, "class": cls, "free_variables": fv}, text, 0)


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


def _int_arg(text: str) -> int:
    """An integer option, with argparse's own message for a non-integer."""
    return _int(text, argparse.ArgumentTypeError(f"invalid int value: {text!r}"))


def _add_bound_opt(p):
    p.add_argument("--bound", type=_int_arg, help="search bound (capped by HEISLAB_MAX_BOUND)")


_Z_HELP = "(1,3) entry of the central target; write one starting with - as --z=-theta^2+3"


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

    for name, checker in CHECKERS.items():
        p = sub.add_parser(name.lower(), help=checker.help)
        _add_rep_opts(p)
        if checker.takes_bound:
            _add_bound_opt(p)
        p.set_defaults(fn=cmd_checker, check=name)

    for name in ("solve-s", "solve-t"):
        p = sub.add_parser(name, help=f"solve the centralizer system {name[-1].upper()}")
        p.add_argument("--z", required=True, metavar="ELT", help=_Z_HELP)
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
    p.add_argument("--z", required=True, metavar="ELT", help=_Z_HELP)
    _add_rep_opts(p, with_json=False)
    p.set_defaults(fn=cmd_adjoin_y)

    p = sub.add_parser("adjoin-center", help="mark the full center as adjoined")
    _add_rep_opts(p, with_json=False)
    p.set_defaults(fn=cmd_adjoin_center)

    p = sub.add_parser("appropriate", help="bounded ring-appropriateness check")
    p.add_argument("--degree", type=_int_arg, default=2)
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
    p.add_argument(
        "--at",
        choices=("a1", "a2"),
        help="the a_i whose centralizer was extended (optional: n does not depend on it)",
    )
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
    except RingMismatchError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except (UsageError, ConfigError, RingParseError, FormulaError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def entry():  # console_scripts hook, and python -m heislab.cli
    """Exit with main's code; a closed stdout (``heislab ... | head``) is
    exit 3, without a traceback, not the verdict that was being printed."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the flush at interpreter exit must not hit the closed pipe again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 3
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
