"""Seeded input generation for the four workloads.

Inputs are built from the benchmark's own data: polynomials are dicts
{exponent tuple: coefficient}, ring elements are tuples of them (one per
component), formulas are nested tuples.  The planted answers of seeded
sentences are evaluated with check.py's 3x3 matrices.  The program under test
only ever sees the files written from these (representation configs, target
files, formula files) and the command lines.

A workload is a list of rounds; a round is a short, fixed mix of queries
(the strata of the workload), so a run that stops at a round boundary sees
the same mix whatever the seed or the speed of the program.  Each query
records its input properties (ring shape, generator count, frame dimension,
entry-lattice rank, bound) for the per-query log.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field

from check import echelon, eval_term

# ---------------------------------------------------------------------------
# Polynomials and product-ring elements

SHAPES = {
    "Z x Z": ((), ()),
    "Z^3": ((), (), ()),
    "Z^4": ((), (), (), ()),
    "Z[t] x Z": (("t",), ()),
    "Z[t,s] x Z[u]": (("t", "s"), ("u",)),
    "Z[t] x Z[t] x Z": (("t",), ("t",), ()),
    "Z[t]": (("t",),),
    "Z": ((),),
    "Z[theta]": (("theta",),),
}


def pmul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def padd(p: dict, q: dict, sign: int = 1) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def emul(x, y):
    return tuple(pmul(p, q) for p, q in zip(x, y))


def esub(x, y):
    return tuple(padd(p, q, -1) for p, q in zip(x, y))


def const(comps, c: int):
    return tuple({(0,) * len(names): c} if c else {} for names in comps)


def format_poly(p: dict, names) -> str:
    if not p:
        return "0"
    out = ""
    for e, c in sorted(p.items(), reverse=True):
        mono = "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k)
        body = mono if mono and abs(c) == 1 else (f"{abs(c)}*{mono}" if mono else str(abs(c)))
        out += ("-" if c < 0 else ("+" if out else "")) + body
    return out


def canonical_ring(comps) -> str:
    """The ring as the program prints it: one factor per component."""
    return " x ".join("Z[" + ",".join(c) + "]" if c else "Z" for c in comps)


def literal(x, comps) -> str:
    parts = [format_poly(p, names) for p, names in zip(x, comps)]
    return parts[0] if len(parts) == 1 else "(" + ",".join(parts) + ")"


def random_poly(rng, names, deg: int, nterms: int, pzero: float) -> dict:
    if rng.random() < pzero:
        return {}
    p: dict = {}
    for _ in range(rng.randint(1, nterms)):
        e = tuple(rng.randint(0, deg) for _ in names)
        p[e] = p.get(e, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
    return {e: c for e, c in p.items() if c}


def random_elem(rng, comps, deg, nterms, pzero):
    return tuple(random_poly(rng, names, deg, nterms, pzero) for names in comps)


# ---------------------------------------------------------------------------
# Representations


@dataclass
class Rep:
    shape: str  # the ring as written in the config
    comps: tuple  # indeterminate names per component
    gens: dict  # name -> (e12, e13, e23), extra generators only
    full_center: bool = False

    def all_gens(self) -> dict:
        """a1 and a2 first, as the program orders them."""
        zero, one = const(self.comps, 0), const(self.comps, 1)
        return {"a1": (zero, zero, one), "a2": (one, zero, zero), **self.gens}

    def config(self) -> str:
        lines = [f"ring: {self.shape}", f"full_center: {str(self.full_center).lower()}"]
        if not self.gens:
            return "\n".join(lines + ["generators: {}"]) + "\n"
        lines.append("generators: {")
        for name, entries in self.gens.items():
            e12, e13, e23 = (literal(x, self.comps) for x in entries)
            lines.append(f"  {name}: {{e12: {e12}, e13: {e13}, e23: {e23}}},")
        lines[-1] = lines[-1].rstrip(",")
        return "\n".join(lines + ["}"]) + "\n"

    def literals(self) -> dict:
        """name -> (e12, e13, e23) literals, a1 and a2 included."""
        return {
            n: tuple(literal(x, self.comps) for x in g) for n, g in self.all_gens().items()
        }

    def properties(self) -> dict:
        gens = list(self.all_gens().values())
        monos = set()
        for g in gens:
            for x in g:
                monos.update((j, e) for j, p in enumerate(x) for e in p)
        for g, h in itertools.combinations(gens, 2):
            det = esub(emul(g[0], h[2]), emul(h[0], g[2]))
            monos.update((j, e) for j, p in enumerate(det) for e in p)
        return {
            "ring": self.shape,
            "generators": len(gens),
            "frame_dim": len(monos),
            "entry_rank": entry_rank(gens),
        }


def entry_rank(gens) -> int:
    """Rank of the entry-pair lattice: the Z-span of the (u12, u23)
    coordinate vectors of the generators."""
    keys = sorted({(b, j, e) for g in gens for b in (0, 2) for j, p in enumerate(g[b]) for e in p})
    index = {k: i for i, k in enumerate(keys)}
    rows = []
    for g in gens:
        v = [0] * len(keys)
        for b in (0, 2):
            for j, p in enumerate(g[b]):
                for e, c in p.items():
                    v[index[(b, j, e)]] = c
        rows.append(v)
    return len(echelon(rows))


def random_rep(rng, shape, ngens, deg=1, nterms=2, pzero=0.3) -> Rep:
    comps = SHAPES[shape]
    gens = {}
    for k in range(ngens - 2):
        gens[f"b{k + 1}"] = tuple(random_elem(rng, comps, deg, nterms, pzero) for _ in range(3))
    return Rep(shape, comps, gens)


# The paper's four standard examples, as configs the program reads from file.
FIXTURES = {
    "heisenberg": Rep("Z", SHAPES["Z"], {}),
    "zxz-lame": Rep("Z x Z", SHAPES["Z x Z"], {"b": (({}, {}), ({}, {}), ({(): 1}, {}))}),
    "ztheta-lame": Rep("Z[theta]", SHAPES["Z[theta]"], {"b": (({},), ({},), ({(1,): 1},))}),
    "tau-fails-zxz": Rep(
        "Z x Z",
        SHAPES["Z x Z"],
        {"Y": (({(): 1}, {}), ({}, {}), ({}, {})), "X": (({}, {}), ({}, {}), ({}, {(): 1}))},
    ),
}


# ---------------------------------------------------------------------------
# Formulas: nested tuples, printed in heislab's syntax

ONE = ("one",)


def V(name):
    return ("var", name)


def C(name):
    return ("const", name)


def comm(a, b):
    return ("comm", a, b)


def eq1(t):
    return ("eq", t, ONE)


def ne1(t):
    return ("ne", t, ONE)


def print_term(t) -> str:
    tag = t[0]
    if tag == "one":
        return "1"
    if tag == "var":
        return t[1]
    if tag == "const":
        return t[1] if t[1] in ("a1", "a2") else "@" + t[1]
    if tag == "comm":
        return f"[{print_term(t[1])},{print_term(t[2])}]"

    def operand(s):
        return f"({print_term(s)})" if s[0] in ("mul", "pow") else print_term(s)

    if tag == "mul":
        return f"{operand(t[1])}*{operand(t[2])}"
    if tag == "pow":
        return f"{operand(t[1])}^{t[2]}"
    raise ValueError(t)


def print_matrix(f) -> str:
    tag = f[0]
    if tag == "eq":
        return f"{print_term(f[1])}={print_term(f[2])}"
    if tag == "ne":
        return f"{print_term(f[1])}!={print_term(f[2])}"

    def operand(g):
        return f"({print_matrix(g)})" if g[0] in ("and", "or", "imp") else print_matrix(g)

    if tag == "and":
        return " & ".join(operand(g) for g in f[1])
    if tag == "or":
        return " | ".join(operand(g) for g in f[1])
    if tag == "imp":
        return f"{operand(f[1])} -> {operand(f[2])}"
    raise ValueError(f)


def print_sentence(s) -> str:
    kind, variables, matrix = s
    return f"{kind} {','.join(variables)} ( {print_matrix(matrix)} )"


def _ct(n):
    x1, x2, x3 = V("x1"), V("x2"), V("x3")
    chain = V("w1")
    for k in range(2, n + 1):
        chain = comm(chain, V(f"w{k}"))
    ws = tuple(f"w{k}" for k in range(1, n + 1))
    body = ("and", (ne1(comm(chain, x2)), eq1(comm(x1, x2)), eq1(comm(x2, x3))))
    return ("forall", ("x1", "x2", "x3") + ws, ("imp", body, eq1(comm(x1, x3))))


def _nzct():
    x1, x2, x3, y = V("x1"), V("x2"), V("x3"), V("y")
    body = ("and", (ne1(comm(x2, y)), eq1(comm(x1, x2)), eq1(comm(x2, x3))))
    return ("forall", ("x1", "x2", "x3", "y"), ("imp", body, eq1(comm(x1, x3))))


def _tau():
    x1, x2, a1, a2 = V("x1"), V("x2"), C("a1"), C("a2")
    body = ("and", (eq1(comm(x2, x1)), eq1(comm(a2, x2)), eq1(comm(x1, a1))))
    return ("forall", ("x1", "x2"), ("imp", body, ("or", (eq1(comm(x2, a1)), eq1(comm(a2, x1))))))


def _centralizer_qi():
    x, z = V("x"), V("z")
    body = ("and", (eq1(comm(z, C("a1"))), eq1(comm(C("a2"), z))))
    return ("forall", ("x", "z"), ("imp", body, eq1(comm(z, x))))


# The builtin sentences, as the paper defines them; the checker evaluates
# these trees, the program receives only the names.
BUILTINS = {
    "NZCT": _nzct(),
    "CT(1)": _ct(1),
    "CT(2)": _ct(2),
    "tau": _tau(),
    "centralizer_qi": _centralizer_qi(),
    "torsion_free_qi(2)": ("forall", ("x",), ("imp", eq1(("pow", V("x"), 2)), ("eq", V("x"), ONE))),
    "zero_sq_qi": ("forall", ("x",), ("imp", eq1(("mul", V("x"), V("x"))), ("eq", V("x"), ONE))),
}


def random_term(rng, variables, constants, depth: int):
    if depth == 0 or rng.random() < 0.35:
        pool = [V(v) for v in variables] + [C(c) for c in constants]
        return rng.choice(pool)
    kind = rng.choice(("mul", "comm", "pow"))
    if kind == "pow":
        return ("pow", random_term(rng, variables, constants, depth - 1), rng.choice((-1, 2, 3)))
    return (
        kind,
        random_term(rng, variables, constants, depth - 1),
        random_term(rng, variables, constants, depth - 1),
    )


def planted_sentence(rng, kind: str, nvars: int, rep: Rep, bound: int, generators):
    """A seeded sentence with a planted answer: random words of length at
    most ``bound`` are chosen for the variables, and every literal is made
    true there, except the conclusion of a universal sentence, which is made
    false.  So a witness (existential) or a counterexample (universal) lies
    in the searched ball, and the search decides.  The words are evaluated
    with check.py's matrices; ``generators(rep)`` gives its algebra and the
    generator matrices."""
    alg, gens = generators(rep)
    variables = ("x", "y", "z")[:nvars]
    env = dict(gens)
    for v in variables:
        word = ONE
        for _ in range(rng.randint(1, bound)):
            letter = ("pow", C(rng.choice(list(gens))), rng.choice((1, -1)))
            word = letter if word == ONE else ("mul", word, letter)
        env[v] = eval_term(word, alg, env)

    def literal_(t, s, truth: bool):
        same = eval_term(t, alg, env) == eval_term(s, alg, env)
        return ("eq" if same == truth else "ne", t, s)

    constants = list(gens)
    literals = []
    for v in variables:
        t = random_term(rng, variables, constants, 1)
        literals.append(literal_(comm(V(v), t if t != V(v) else C("a1")), ONE, True))
    for _ in range(rng.randint(kind == "forall", 1)):
        t = random_term(rng, variables, constants, 2)
        literals.append(literal_(t, random_term(rng, variables, constants, 1), True))
    if kind == "exists":
        return ("exists", variables, ("and", tuple(literals)) if len(literals) > 1 else literals[0])
    head, (_, t, s) = literals[:-1], literals[-1]
    body = ("and", tuple(head)) if len(head) > 1 else head[0]
    return ("forall", variables, ("imp", body, literal_(t, s, False)))


# ---------------------------------------------------------------------------
# Queries and workloads


@dataclass
class Query:
    qid: int
    cmd: str
    argv: list
    props: dict  # input properties beyond those of expect["rep"]
    expect: dict = field(default_factory=dict)

    def properties(self, cache: dict) -> dict:
        """All input properties; those of a representation are computed once
        per representation, after the timed loop."""
        rep = self.expect.get("rep")
        if rep is None:
            return self.props
        if id(rep) not in cache:
            cache[id(rep)] = rep.properties()
        return {**cache[id(rep)], **self.props}


class Builder:
    """The state of one workload's generation: the seeded random stream, the
    query ids, and the files written into the run's work directory."""

    def __init__(self, seed: int, workdir: str, generators):
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.generators = generators  # rep -> (check.MatrixAlgebra, generator matrices)
        self.qid = 0
        self.files = 0

    def query(self, cmd, argv, props, **expect) -> Query:
        self.qid += 1
        return Query(self.qid, cmd, argv, props, expect)

    def write(self, stem: str, text: str) -> str:
        self.files += 1
        path = os.path.join(self.workdir, f"{self.files:05d}-{stem}")
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def rep_file(self, rep: Rep) -> str:
        return self.write("rep.cfg", rep.config())


# -- lattice ----------------------------------------------------------------

LATTICE_SHAPES = ("Z^3", "Z[t] x Z", "Z[t,s] x Z[u]", "Z[t] x Z[t] x Z")
# Every round is the same grid: one representation per (stratum, shape),
# with a fixed generator count per cell, so sizes sweep 2..24 generators and
# frame dimension ~2..56 in every round and only the entries come from the
# seed.  Stratum: (generators per shape, degree, terms per entry, commands
# per representation).
LATTICE_STRATA = (
    ((2, 3, 4, 5), 1, 2, 2),
    ((6, 8, 9, 11), 2, 2, 2),
    ((12, 14, 15, 17), 2, 3, 1),
    ((20, 22, 23, 24), 3, 4, 1),
)
# The commands of each stratum, rotated over its cells so that in a cycle of
# four rounds every shape meets every command once.  appropriate --degree 2
# grows too fast to run beyond the smallest stratum; a random solve target
# (solve-any) mostly falls outside the frame and returns before any HNF.
STRATUM_COMMANDS = (
    ("lame", "tau", "sigma", "crank", "solve-s", "solve-t", "appropriate-1", "appropriate-2"),
    ("lame", "tau", "sigma", "crank", "solve-s", "solve-t", "solve-any", "appropriate-1"),
    ("lame", "tau", "appropriate-1", "crank"),
    ("sigma", "crank", "solve-s", "solve-t"),
)


def _centralizer_target(rng, rep: Rep, system: str):
    """A (1,3) value the system S (or T) solves by construction: an integer
    combination of the 12-entries (23-entries) of generators in C(a2) (C(a1))."""
    comps = rep.comps
    slot, other = (0, 2) if system == "S" else (2, 0)
    z = const(comps, rng.randint(-3, 3))
    for g in rep.all_gens().values():
        if not any(g[other]) and any(g[slot]):
            c = rng.randint(-2, 2)
            z = tuple(padd(p, {e: c * v for e, v in q.items()}) for p, q in zip(z, g[slot]))
    return z


def lattice_round(b: Builder, r: int) -> list:
    rng = b.rng
    out = []
    for (ngens, deg, nterms, ncmds), commands in zip(LATTICE_STRATA, STRATUM_COMMANDS):
        for k, (shape, n) in enumerate(zip(LATTICE_SHAPES, ngens)):
            rep = random_rep(rng, shape, n, deg, nterms)
            path = b.rep_file(rep)
            first = (k + r) * ncmds
            cmds = [commands[j % len(commands)] for j in range(first, first + ncmds)]
            out += _lattice_queries(b, rep, path, cmds, deg)
    return out


def _lattice_queries(b: Builder, rep: Rep, path: str, cmds, deg: int) -> list:
    rng = b.rng
    out = []
    for cmd in cmds:
        expect = {"rep": rep}
        if cmd == "solve-any":
            cmd = rng.choice(("solve-s", "solve-t"))
            z = random_elem(rng, rep.comps, deg, 2, 0.2)
            expect["solvable"] = None
        elif cmd.startswith("solve"):
            z = _centralizer_target(rng, rep, cmd[-1].upper())
            expect["solvable"] = True
        if cmd.startswith("solve"):
            expect["z"] = literal(z, rep.comps)
            argv = [cmd, "--z=" + expect["z"], "--rep", path, "--json"]
        elif cmd.startswith("appropriate"):
            argv = ["appropriate", "--degree", cmd[-1], "--rep", path, "--json"]
        else:
            argv = [cmd, "--rep", path, "--json"]
        out.append(b.query(cmd, argv, {}, **expect))
    return out


# -- nzct -------------------------------------------------------------------

# One round: two rank-3 representations per shape and two rank-4 ones over
# Z x Z, all at bound 1.  Bound 2 and other rank-4 inputs are left out: at
# this commit one such query takes 1.5-90 s (it enumerates 125-625 vectors and
# pairs them all), which would leave too few queries per run for a p90.
NZCT_SHAPES = ("Z x Z", "Z^3", "Z^4", "Z[t] x Z")


def nzct_rep(rng, shape: str, rank: int) -> Rep:
    """A non-domain representation with the wanted entry-lattice rank and a
    12- or 23-entry that is not constant across components, so neither the
    commuting, domain nor diagonal shortcut of the NZCT checker applies."""
    comps = SHAPES[shape]
    while True:
        rep = random_rep(rng, shape, rng.choice((3, 4)), 1, 2, rng.choice((0.3, 0.5, 0.7)))
        entries = [x for g in rep.gens.values() for x in (g[0], g[2])]
        diagonal = all(all(p == x[0] for p in x) for x in entries)
        if len(set(comps)) == 1 and diagonal:
            continue
        if entry_rank(list(rep.all_gens().values())) == rank:
            return rep


# (k, m) for the rank-4 inputs: the pairs whose bound-1 search finds the
# violation, two per round over a cycle of three rounds.
NZCT_RANK4 = ((1, 1), (2, 2), (1, 2), (2, 1), (1, 3), (3, 1))


def nzct_rank4_rep(rng, k: int, m: int) -> Rep:
    """Z x Z with generators Y (12-entry k on one component) and X (23-entry
    m on the other), the zero-divisor pair behind the NZCT failure of
    UT3(Z x Z), and a seeded central generator: the entry lattice has full
    rank 4."""
    i = rng.randint(0, 1)
    y = tuple({(): k} if j == i else {} for j in range(2))
    x = tuple({(): m} if j != i else {} for j in range(2))
    zero = ({}, {})
    center = random_elem(rng, SHAPES["Z x Z"], 0, 1, 0.0)
    return Rep("Z x Z", SHAPES["Z x Z"], {"Y": (y, zero, zero), "X": (zero, zero, x), "c": (zero, center, zero)})


def nzct_round(b: Builder, r: int) -> list:
    reps = [(nzct_rep(b.rng, shape, 3), False) for shape in NZCT_SHAPES * 2]
    # the rank-4 inputs violate NZCT by construction
    reps += [(nzct_rank4_rep(b.rng, *km), True) for km in NZCT_RANK4[2 * (r % 3) : 2 * (r % 3) + 2]]
    out = []
    for rep, violated in reps:
        argv = ["nzct", "--bound", "1", "--rep", b.rep_file(rep), "--json"]
        out.append(b.query("nzct", argv, {"bound": 1}, rep=rep, violated=violated))
    return out


# -- search -----------------------------------------------------------------

SEARCH_FIXTURES = ("heisenberg", "zxz-lame", "ztheta-lame", "tau-fails-zxz")
# Highest bound per (sentence, fixture) that keeps one search well under a
# second at this commit (0: left out).  Over a cycle of four rounds every
# sentence meets every fixture, alternately at bound 2 and at this bound.
SEARCH_MAX_BOUND = {
    "NZCT": (3, 2, 2, 4),
    "CT(1)": (3, 2, 2, 4),
    "CT(2)": (2, 2, 2, 0),
    "tau": (4, 3, 3, 4),
    "centralizer_qi": (4, 3, 3, 3),
    "torsion_free_qi(2)": (4, 4, 4, 4),
    "zero_sq_qi": (4, 4, 4, 4),
}
SMALL_SHAPES = ("Z x Z", "Z[t]", "Z^3", "Z[t] x Z")


def search_round(b: Builder, r: int) -> list:
    rng = b.rng
    out = []
    files = {}

    def fixture_file(name):
        if name not in files:
            files[name] = b.rep_file(FIXTURES[name])
        return files[name]

    for i, (name, caps) in enumerate(SEARCH_MAX_BOUND.items()):
        k = (r + i) % len(SEARCH_FIXTURES)
        if not caps[k]:
            k = (k + 1) % len(SEARCH_FIXTURES)
        fixture = SEARCH_FIXTURES[k]
        bound = caps[k] if (r + i) % 2 else 2
        # check would take the exact lattice path for NZCT and tau
        cmd = "refute" if name in ("NZCT", "tau") or (r + i) % 2 else "check"
        rep = FIXTURES[fixture]
        props = {"bound": bound, "sentence": name}
        argv = [cmd, name, "--bound", str(bound), "--rep", fixture_file(fixture), "--json"]
        out.append(b.query(cmd, argv, props, rep=rep, sentence=BUILTINS[name]))

    # a seeded small representation with one extra generator
    rep = random_rep(rng, SMALL_SHAPES[r % len(SMALL_SHAPES)], 3, 1, 1, 0.4)
    path = b.rep_file(rep)
    light = ("tau", "centralizer_qi", "torsion_free_qi(2)", "zero_sq_qi")
    for j, name in enumerate(light[r % 2 :: 2]):
        bound = 2 + j
        argv = ["refute", name, "--bound", str(bound), "--rep", path, "--json"]
        out.append(b.query("refute", argv, {"bound": bound, "sentence": name}, rep=rep, sentence=BUILTINS[name]))

    # seeded inline sentences, one existential and one universal
    on = (FIXTURES["heisenberg"], FIXTURES["tau-fails-zxz"], rep, rep)[r % 4]
    for kind, cmd in (("exists", ("witness", "check")[r % 2]), ("forall", ("refute", "check")[r % 2])):
        nvars = 1 + (r // 2) % 2
        bound = 3 if nvars == 1 or not on.gens else 2
        sentence = planted_sentence(rng, kind, nvars, on, bound, b.generators)
        fpath = b.write("sentence.txt", print_sentence(sentence) + "\n")
        props = {"bound": bound, "sentence": f"{kind}-{nvars}"}
        argv = [cmd, fpath, "--bound", str(bound), "--rep", b.rep_file(on), "--json"]
        out.append(b.query(cmd, argv, props, rep=on, sentence=sentence))
    return out


# -- construct --------------------------------------------------------------


def extended(rep: Rep, at: str, name: str) -> Rep:
    """The free rank-1 centralizer extension, built by the benchmark: every
    component gains the indeterminate ``name``; the new generator t carries
    it in the 23 slot (at a1) or the 12 slot (at a2)."""
    comps = rep.comps
    new_comps = tuple(c + (name,) for c in comps)
    shape = canonical_ring(new_comps)

    def lift(x):
        return tuple({e + (0,): c for e, c in p.items()} for p in x)

    gens = {n: tuple(lift(x) for x in g) for n, g in rep.gens.items()}
    zero = tuple({} for _ in new_comps)
    theta = tuple({(0,) * len(c) + (1,): 1} for c in comps)
    gens["t"] = (zero, zero, theta) if at == "a1" else (theta, zero, zero)
    return Rep(shape, new_comps, gens, rep.full_center)


def construct_round(b: Builder, r: int) -> list:
    """Two config commands (alternating over the cycle between extend at a1
    or a2, and adjoin-center or adjoin-y) and five certificate commands (two
    big-powers searches, three discriminations), so that the median query is
    a certificate search rather than the boundary of the cheap config class."""
    rng = b.rng
    out = []
    base_shapes = ("Z x Z", "Z[t] x Z", "Z^3", "Z[t]")
    rep = random_rep(rng, base_shapes[r % 4], 3 + r % 4, 1, 2, 0.3)
    path = b.rep_file(rep)
    at = ("a1", "a2")[r % 2]
    name = rng.choice(("theta", "s1", "v"))
    argv = ["extend", "--at", at, "--name", name, "--rep", path]
    out.append(b.query("extend", argv, {}, rep=rep, at=at, name=name))
    if r % 2:
        z = random_elem(rng, rep.comps, 1, 2, 0.0)
        zlit = literal(z, rep.comps)
        argv = ["adjoin-y", "--z=" + zlit, "--rep", path]
        out.append(b.query("adjoin-y", argv, {}, rep=rep, z=zlit, zelem=z))
    else:
        out.append(b.query("adjoin-center", ["adjoin-center", "--rep", path], {}, rep=rep))

    # big powers: the targets t*a_i^-k die exactly at theta = k, for every k
    # below the gap and for some beyond it; the others never die.  The gaps
    # (the answers) and target counts follow ladders over the cycle.
    for at, j in (("a1", r % 4), ("a2", 3 - r % 4)):
        ext = extended(rep, at, "theta")
        gap = (12, 30, 55, 80)[j] + rng.randint(0, 4)
        kill = list(range(1, gap)) + rng.sample(range(gap + 1, gap + 200), (10, 20, 30, 40)[j])
        other = C("a2" if at == "a1" else "a1")
        t, killer = C("t"), C(at)
        targets = [("mul", t, ("pow", killer, -k)) for k in kill]
        targets += rng.sample([comm(t, other), ("mul", ("mul", t, t), killer), ("mul", C("a1"), C("a2"))], 2)
        rng.shuffle(targets)
        tpath = b.write("targets.txt", "\n".join(print_term(x) for x in targets) + "\n")
        argv = ["bigpowers", "--targets", tpath, "--at", at, "--rep", b.rep_file(ext), "--json"]
        out.append(b.query("bigpowers", argv, {"targets": len(targets)}, rep=ext, targets=targets, at=at, gap=gap))

    for rank, j in ((3, r % 4), (3, 3 - r % 4), (4, r % 2)):
        targets = discrimination_targets(rng, rank, j)
        tpath = b.write("targets.txt", "\n".join(print_term(t) for t in targets) + "\n")
        props_d = {"ring": f"F{rank}(N2)", "generators": rank, "targets": len(targets)}
        argv = ["discriminate", "--targets", tpath, "--json"]
        out.append(b.query("discriminate", argv, props_d, targets=targets, rank=rank))
    return out


def _letter_word(k, p, q, r):
    """a_k * (a1^p a2^q [a2,a1]^r)^-1: the identity exactly under the
    retraction sending a_k to a1^p a2^q [a2,a1]^r."""
    image = ("mul", ("mul", ("pow", C("a1"), p), ("pow", C("a2"), q)), ("pow", comm(C("a2"), C("a1")), r))
    return ("mul", V(f"a{k}"), ("pow", image, -1))


def discrimination_targets(rng, rank: int, r: int) -> list:
    """Targets killing the first retraction candidates of the sup-norm
    search, so it must pass shell 0 and part of shell 1, plus words that no
    small retraction kills."""
    shell1 = [p for p in itertools.product((-1, 0, 1), repeat=3) if any(p)]
    targets = [V("a3")]
    m = (3, 6, 9, 12)[r % 4] if rank == 3 else (1, 2)[r % 2]
    for p in shell1[:m]:
        targets.append(_letter_word(3, *p))
    extra = [
        comm(C("a2"), C("a1")),
        ("mul", ("pow", V("a3"), 2), C("a1")),
        ("mul", comm(V("a3"), C("a2")), C("a2")),
        ("mul", C("a1"), ("pow", V(f"a{rank}"), 3)),
    ]
    targets += rng.sample(extra, 2)
    if rank == 4:  # a4 must occur for the group to have rank 4
        targets.append(("mul", V("a4"), ("pow", C("a2"), 2)))
    return targets


ROUNDS = {
    "lattice": lattice_round,
    "nzct": nzct_round,
    "search": search_round,
    "construct": construct_round,
}


def generate(workload: str, seed: int, workdir: str, nrounds: int, generators) -> list:
    """The workload's first nrounds rounds for this seed, files written.
    ``generators`` is check.Verifier.generators, used to plant answers."""
    os.makedirs(workdir, exist_ok=True)
    b = Builder(seed, workdir, generators)
    return [ROUNDS[workload](b, r) for r in range(nrounds)]
