"""Independent checks of heislab's answers.

Witnesses are parsed back into full 3x3 unitriangular matrices and their
defining relations are checked with this module's own matrix product over
``RingElem`` -- not with ``ut3``'s closed forms.  Sentences are evaluated
with this module's own evaluator over the benchmark's formula trees (see
``gen.py``), not with ``heislab.formula``.  Verdicts that rest on a lattice
fact (Lame, tau and sigma either way, an unsolvable S/T system, the
appropriateness span) are re-derived from the generator entries with this
module's own integer echelon form, not with ``heislab.zlattice``.  Every
check raises ``CheckError`` on a mismatch.
"""

from __future__ import annotations

import json
import re


class CheckError(Exception):
    pass


def require(cond: bool, message: str):
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# 3x3 matrices over a product ring: lists of rows of RingElem


class MatrixAlgebra:
    def __init__(self, rings, ring):
        self.rings = rings
        self.ring = ring
        self.zero = rings.RingElem.zero(ring)
        self.one = rings.RingElem.one(ring)
        z, o = self.zero, self.one
        self.identity = ((o, z, z), (z, o, z), (z, z, o))

    def elem(self, text: str):
        return self.rings.parse_elem(self.ring, text)

    def from_entries(self, e12, e13, e23):
        z, o = self.zero, self.one
        return ((o, e12, e13), (z, o, e23), (z, z, o))

    def parse(self, text: str):
        """A matrix from heislab's ``{e12: .., e13: .., e23: ..}`` form."""
        m = re.fullmatch(r"\{e12: (.*), e13: (.*), e23: (.*)\}", text.strip())
        require(m is not None, f"unparsable matrix {text!r}")
        return self.from_entries(*(self.elem(g) for g in m.groups()))

    def mul(self, a, b):
        """The full 3x3 product; a zero factor drops its term and a unit
        factor needs no ring multiplication."""
        one = self.one
        out = []
        for i in range(3):
            row = []
            for j in range(3):
                s = self.zero
                for k in range(3):
                    x, y = a[i][k], b[k][j]
                    if x.is_zero() or y.is_zero():
                        continue
                    s = s + (y if x == one else x if y == one else x * y)
                row.append(s)
            out.append(tuple(row))
        return tuple(out)

    def inv(self, a):
        # a = 1 + n with n strictly upper triangular, so n^3 = 0
        n = tuple(
            tuple(a[i][j] - self.identity[i][j] for j in range(3)) for i in range(3)
        )
        n2 = self.mul(n, n)
        return tuple(
            tuple(self.identity[i][j] - n[i][j] + n2[i][j] for j in range(3))
            for i in range(3)
        )

    def power(self, a, k: int):
        if k < 0:
            a, k = self.inv(a), -k
        out = self.identity
        while k:
            if k & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            k >>= 1
        return out

    def comm(self, a, b):
        """a^-1 b^-1 a b."""
        return self.mul(self.mul(self.inv(a), self.inv(b)), self.mul(a, b))

    def is_identity(self, a) -> bool:
        return a == self.identity

    def commute(self, a, b) -> bool:
        return self.mul(a, b) == self.mul(b, a)

    def word(self, text: str, gens: dict):
        """Evaluate a ball word such as ``a1*b^-1*a2`` (or ``1``)."""
        out = self.identity
        if text == "1":
            return out
        for letter in text.split("*"):
            name, _, exp = letter.partition("^")
            require(name in gens, f"unknown generator {name!r} in word {text!r}")
            out = self.mul(out, self.power(gens[name], int(exp) if exp else 1))
        return out


# ---------------------------------------------------------------------------
# Formula trees (built by gen.py) evaluated over matrices


def eval_term(t, alg, env: dict):
    tag = t[0]
    if tag == "one":
        return alg.identity
    if tag in ("var", "const"):
        return env[t[1]]
    if tag == "mul":
        return alg.mul(eval_term(t[1], alg, env), eval_term(t[2], alg, env))
    if tag == "pow":
        return alg.power(eval_term(t[1], alg, env), t[2])
    if tag == "comm":
        return alg.comm(eval_term(t[1], alg, env), eval_term(t[2], alg, env))
    raise ValueError(f"bad term {t!r}")


def eval_matrix(f, alg, env: dict) -> bool:
    tag = f[0]
    if tag == "eq":
        return eval_term(f[1], alg, env) == eval_term(f[2], alg, env)
    if tag == "ne":
        return eval_term(f[1], alg, env) != eval_term(f[2], alg, env)
    if tag == "and":
        return all(eval_matrix(x, alg, env) for x in f[1])
    if tag == "or":
        return any(eval_matrix(x, alg, env) for x in f[1])
    if tag == "imp":
        return not eval_matrix(f[1], alg, env) or eval_matrix(f[2], alg, env)
    raise ValueError(f"bad formula {f!r}")


# ---------------------------------------------------------------------------
# Integer lattices, over the entries as gen.py writes them (tuples of dict
# polynomials, one per component)


def echelon(rows) -> list:
    """A row echelon basis of the Z-span of ``rows``, by Euclidean row
    operations; its length is the rank."""
    rows = [list(r) for r in rows if any(r)]
    basis = []
    while rows:
        col = min(next(i for i, x in enumerate(r) if x) for r in rows)
        live = [r for r in rows if r[col]]
        rows = [r for r in rows if not r[col]]
        while len(live) > 1:
            p = min(live, key=lambda r: abs(r[col]))
            nxt = [p]
            for r in live:
                if r is not p:
                    q = r[col] // p[col]
                    r = [a - q * b for a, b in zip(r, p)]
                    if r[col]:
                        nxt.append(r)
                    elif any(r):
                        rows.append(r)
            live = nxt
        basis.append(live[0])
    return basis


def member(basis, v) -> bool:
    """Whether v lies in the lattice with the echelon basis ``basis``."""
    v = list(v)
    for row in basis:
        col = next(i for i, x in enumerate(row) if x)
        if v[col] % row[col]:
            return False
        q = v[col] // row[col]
        if q:
            v = [a - q * b for a, b in zip(v, row)]
    return not any(v)


def _key(x) -> tuple:
    """A hashable form of a tuple of dict polynomials."""
    return tuple(tuple(sorted(p.items())) for p in x)


def _variables(x, comps) -> set:
    """The indeterminates occurring in x."""
    return {names[i] for names, p in zip(comps, x) for e in p for i, k in enumerate(e) if k}


def as_dicts(x) -> tuple:
    """A RingElem as gen.py's tuple of dict polynomials."""
    return tuple(dict(p) for p in x.parts)


class EntryLattice:
    """The entry-pair lattice A of a representation: the Z-span of the
    (12-entry, 23-entry) coordinate pairs of its generators, a1 and a2
    included -- the entry pairs of all group elements -- together with the
    (1,3) entries of the generator commutators, over one frame of
    (component, monomial) coordinates."""

    def __init__(self, gen, rep):
        gens = list(rep.all_gens().values())
        self.dets = [
            gen.esub(gen.emul(g[0], h[2]), gen.emul(h[0], g[2]))
            for i, g in enumerate(gens)
            for h in gens[i + 1 :]
        ]
        keys = sorted(
            {(j, e) for x in [y for g in gens for y in g] + self.dets for j, p in enumerate(x) for e in p}
        )
        self.index = {k: i for i, k in enumerate(keys)}
        self.d = len(keys)
        self.ncomps = len(rep.comps)
        self.rows = [self.coords(g[0]) + self.coords(g[2]) for g in gens]
        self.basis = echelon(self.rows)
        self.rank = len(self.basis)
        self._dbasis = None

    def coords(self, x):
        """Frame coordinates of x, or None if x has a monomial off the frame."""
        v = [0] * self.d
        for j, p in enumerate(x):
            for e, c in p.items():
                if (j, e) not in self.index:
                    return None
                v[self.index[(j, e)]] = c
        return v

    def block(self, block: int, comps) -> list:
        """Coordinates of the 12-block (0) or 23-block (1) on the components."""
        return [self.d * block + i for (j, _), i in self.index.items() if j in comps]

    def projected_rank(self, cols) -> int:
        return len(echelon([[r[i] for i in cols] for r in self.rows]))

    def trivial_where_zero(self, cols) -> bool:
        """Whether 0 is the only vector of A that vanishes on ``cols``: the
        projection onto them keeps the rank."""
        return self.projected_rank(cols) == self.rank

    def contains_pair(self, u, v) -> bool:
        cu, cv = self.coords(u), self.coords(v)
        return cu is not None and cv is not None and member(self.basis, cu + cv)

    def in_commutator_span(self, x) -> bool:
        """Whether x is an integer combination of the commutator (1,3) entries."""
        if self._dbasis is None:
            self._dbasis = echelon([self.coords(x) for x in self.dets])
        cx = self.coords(x)
        return cx is not None and member(self._dbasis, cx)


# ---------------------------------------------------------------------------
# Per-command verification


class Outcome:
    """What the benchmark learned from one answer."""

    def __init__(self, decided: bool, status: str):
        self.decided = decided
        self.status = status


_EXIT = {"holds": 0, "violated": 1, "inconclusive": 2}


class Verifier:
    def __init__(self, heislab, gen):
        self.rings = heislab.rings
        self.reprs = heislab.reprs
        self.gen = gen
        self._algebras = {}
        self._lattices = {}
        self.zalg = MatrixAlgebra(self.rings, self.rings.Z)

    def algebra(self, shape: str) -> MatrixAlgebra:
        if shape not in self._algebras:
            self._algebras[shape] = MatrixAlgebra(self.rings, self.rings.parse_ring(shape))
        return self._algebras[shape]

    def lattice(self, rep) -> EntryLattice:
        if id(rep) not in self._lattices:
            self._lattices[id(rep)] = EntryLattice(self.gen, rep)
        return self._lattices[id(rep)]

    def generators(self, rep):
        alg = self.algebra(rep.shape)
        gens = {
            n: alg.from_entries(*(alg.elem(x) for x in lits))
            for n, lits in rep.literals().items()
        }
        return alg, gens

    def verify(self, q, code: int, out: str, err: str) -> Outcome:
        require(code != 3, f"exit 3 on a valid query: {err.strip()[-300:]}")
        handler = getattr(self, "v_" + q.argv[0].replace("-", "_"))
        return handler(q, code, out)

    @staticmethod
    def verdict(q, code: int, out: str) -> dict:
        doc = json.loads(out)
        require(doc["status"] in _EXIT, f"unknown status {doc['status']!r}")
        require(_EXIT[doc["status"]] == code, f"exit {code} for status {doc['status']}")
        return doc

    # -- lattice -----------------------------------------------------------

    def v_lame(self, q, code, out):
        doc = self.verdict(q, code, out)
        rep = q.expect["rep"]
        if doc["status"] == "violated":
            require(len(rep.comps) > 1, "Lame fails over a domain")
            alg, gens = self.generators(rep)
            w = doc["witness"]
            g = alg.parse(w["element"])
            i = w["centralizer"]
            require(i in ("a1", "a2"), f"bad centralizer {i!r}")
            other = "a2" if i == "a1" else "a1"
            require(alg.commute(g, gens[i]), "lame witness is not in the centralizer")
            require(not alg.commute(g, gens[other]), "lame witness is central")
            entry = g[1][2] if i == "a1" else g[0][1]
            require(entry == alg.elem(w["entry"]), "lame witness entry does not match")
            dead = w["dead_component"] - 1
            require(not entry.is_zero() and entry.parts[dead] == (), "entry is no zero divisor")
        else:
            # no nonzero entry pair (u, 0) with u vanishing on a component, nor (0, v) dually
            L = self.lattice(rep)
            comps = range(L.ncomps)
            for j in comps:
                for zero, vanish in ((1, 0), (0, 1)):
                    require(
                        L.trivial_where_zero(L.block(zero, comps) + L.block(vanish, (j,))),
                        f"lame holds, but a {('12', '23')[vanish]}-entry vanishing on component {j + 1} is realized",
                    )
        return Outcome(True, doc["status"])

    def v_tau(self, q, code, out):
        doc = self.verdict(q, code, out)
        if doc["status"] == "violated":
            alg, gens = self.generators(q.expect["rep"])
            y, x = alg.parse(doc["witness"]["y"]), alg.parse(doc["witness"]["x"])
            a1, a2 = gens["a1"], gens["a2"]
            require(alg.commute(y, x), "tau witness: [y,x] != 1")
            require(alg.commute(a2, y), "tau witness: [a2,y] != 1")
            require(alg.commute(x, a1), "tau witness: [x,a1] != 1")
            require(not alg.commute(y, a1), "tau witness: [y,a1] = 1")
            require(not alg.commute(a2, x), "tau witness: [a2,x] = 1")
        else:
            # tau fails iff entry pairs (u, 0) and (0, v), both nonzero, have
            # disjoint component supports: then y=(u,*,0), x=(*,*,v) break it
            L = self.lattice(q.expect["rep"])
            comps = range(L.ncomps)
            for mask in range(1, 2**L.ncomps - 1):
                inside = [j for j in comps if mask >> j & 1]
                outside = [j for j in comps if not mask >> j & 1]
                no_u = L.trivial_where_zero(L.block(1, comps) + L.block(0, outside))
                no_v = L.trivial_where_zero(L.block(0, comps) + L.block(1, inside))
                require(no_u or no_v, f"tau holds, but entries supported on components {inside} and {outside} are realized")
        return Outcome(True, doc["status"])

    def v_sigma(self, q, code, out):
        """sigma: for every commutator value z both S ((z, 0) an entry pair)
        and T ((0, z) an entry pair) are solvable.  Solvability is additive
        in z, so the generator commutators decide it."""
        doc = self.verdict(q, code, out)
        rep = q.expect["rep"]
        L = self.lattice(rep)
        zero = self.gen.const(rep.comps, 0)
        if doc["status"] == "violated":
            value = as_dicts(self.algebra(rep.shape).elem(doc["witness"]["commutator_13_entry"]))
            system = doc["witness"]["unsolvable_system"]
            require(system in ("S", "T"), "bad system")
            require(L.in_commutator_span(value), "sigma witness is no combination of commutator values")
            pair = (value, zero) if system == "S" else (zero, value)
            require(not L.contains_pair(*pair), f"sigma witness: system {system} is solvable")
        else:
            for d in L.dets:
                require(L.contains_pair(d, zero) and L.contains_pair(zero, d), "sigma holds, but a commutator value has S or T unsolvable")
        return Outcome(True, doc["status"])

    def v_crank(self, q, code, out):
        require(code == 0, f"crank exit {code}")
        # rank(C(a1)/Z) + rank(C(a2)/Z) - 1: the entry pairs with a zero
        # 12-block, and those with a zero 23-block
        L = self.lattice(q.expect["rep"])
        comps = range(L.ncomps)
        want = 2 * L.rank - L.projected_rank(L.block(0, comps)) - L.projected_rank(L.block(1, comps)) - 1
        got = json.loads(out)["c_rank"]
        require(got == want, f"c_rank {got}, expected {want}")
        return Outcome(True, "holds")

    def _solve(self, q, code, out, system: str):
        doc = json.loads(out)
        require(doc["system"] == system, "wrong system")
        require(code == (0 if doc["solvable"] else 1), f"exit {code} for solvable={doc['solvable']}")
        alg, gens = self.generators(q.expect["rep"])
        z13 = alg.elem(q.expect["z"])
        require(alg.elem(doc["z13"]) == z13, "z13 echoed wrong")
        if not doc["solvable"]:
            require(q.expect["solvable"] is not True, "a solvable system reported unsolvable")
            zero, z = self.gen.const(q.expect["rep"].comps, 0), as_dicts(z13)
            pair = (z, zero) if system == "S" else (zero, z)
            require(not self.lattice(q.expect["rep"]).contains_pair(*pair), "an unsolvable system has a solution")
            return Outcome(True, "unsolvable")
        sol = doc["solution"]
        exps = sol["exponents"]
        require(len(exps) == len(gens), "exponent count")
        g = alg.identity
        for m, k in zip(gens.values(), exps):
            g = alg.mul(g, alg.power(m, k))
        require(g == alg.parse(sol["element"]), "solution element is not the product")
        z = alg.from_entries(alg.zero, z13, alg.zero)
        a1, a2 = gens["a1"], gens["a2"]
        if system == "S":
            require(alg.commute(a2, g) and alg.comm(g, a1) == z, "S solution fails")
        else:
            require(alg.commute(g, a1) and alg.comm(a2, g) == z, "T solution fails")
        return Outcome(True, "solvable")

    def v_solve_s(self, q, code, out):
        return self._solve(q, code, out, "S")

    def v_solve_t(self, q, code, out):
        return self._solve(q, code, out, "T")

    def v_appropriate(self, q, code, out):
        """confirmed: every designated ring generator (the component
        idempotents, and each indeterminate on its component) is an integer
        combination of products of at most ``degree`` group entries;
        otherwise the witness is a designated generator outside that span,
        and for refuted its indeterminate occurs in no entry at all."""
        doc = json.loads(out)
        status = doc["status"]
        require(code == {"confirmed": 0, "refuted": 1, "inconclusive": 2}[status], "exit code")
        degree = int(q.argv[2])
        require(doc["degree_bound"] == degree, "degree bound echoed wrong")
        rep = q.expect["rep"]
        gen = self.gen
        one = gen.const(rep.comps, 1)
        entries = [one] + [x for g in rep.all_gens().values() for x in g if any(x)]
        products, layer, seen = [one], [one], {_key(one)}
        for _ in range(degree):
            new = []
            for p in layer:
                for e in entries:
                    x = gen.emul(p, e)
                    if _key(x) not in seen:
                        seen.add(_key(x))
                        new.append(x)
            products += new
            layer = new
        comps = rep.comps
        targets = []
        if len(comps) > 1:  # the idempotents
            for j in range(len(comps)):
                targets.append(tuple({(0,) * len(c): 1} if i == j else {} for i, c in enumerate(comps)))
        for j, names in enumerate(comps):
            for k in range(len(names)):
                e = tuple(int(i == k) for i in range(len(names)))
                targets.append(tuple({e: 1} if i == j else {} for i in range(len(comps))))
        keys = sorted({(j, e) for x in products + targets for j, p in enumerate(x) for e in p})
        index = {m: i for i, m in enumerate(keys)}

        def vec(x):
            v = [0] * len(keys)
            for j, p in enumerate(x):
                for e, c in p.items():
                    v[index[(j, e)]] = c
            return v

        span = echelon([vec(x) for x in products])
        if status == "confirmed":
            require(doc["witness"] is None, "a witness for confirmed")
            require(all(member(span, vec(t)) for t in targets), "confirmed, but a ring generator is outside the span")
        else:
            w = as_dicts(self.algebra(rep.shape).elem(doc["witness"]))
            require(w in targets, "the witness is no designated ring generator")
            require(not member(span, vec(w)), "the witness lies in the span")
            if status == "refuted":  # the witness's indeterminate occurs in no entry
                names = _variables(w, comps)
                require(names and not names & {v for x in entries for v in _variables(x, comps)}, "refuted without proof")
        return Outcome(status != "inconclusive", status)

    # -- nzct --------------------------------------------------------------

    def v_nzct(self, q, code, out):
        doc = self.verdict(q, code, out)
        if doc["status"] == "violated":
            alg, _ = self.generators(q.expect["rep"])
            w = {k: alg.parse(v) for k, v in doc["witness"].items()}
            require(not alg.commute(w["x2"], w["y"]), "NZCT witness: [x2,y] = 1")
            require(alg.commute(w["x1"], w["x2"]), "NZCT witness: [x1,x2] != 1")
            require(alg.commute(w["x2"], w["x3"]), "NZCT witness: [x2,x3] != 1")
            require(not alg.commute(w["x1"], w["x3"]), "NZCT witness: [x1,x3] = 1")
        if doc["status"] != "holds":
            require(doc["bound"] == q.props["bound"], "bound echoed wrong")
        else:
            require(not q.expect.get("violated"), "NZCT holds on a representation built to violate it")
        return Outcome(doc["status"] != "inconclusive", doc["status"])

    # -- search ------------------------------------------------------------

    def _search(self, q, code, out):
        doc = self.verdict(q, code, out)
        kind, variables, matrix = q.expect["sentence"]
        require(doc["bound"] == q.props["bound"], "bound echoed wrong")
        want = "violated" if kind == "forall" else "holds"
        require(doc["status"] in (want, "inconclusive"), f"{doc['status']} for a {kind} sentence")
        if doc["status"] == want:
            alg, gens = self.generators(q.expect["rep"])
            words = doc["witness"]
            require(sorted(words) == sorted(variables), "witness variables")
            env = dict(gens)
            for v, word in words.items():
                require(word == "1" or len(word.split("*")) <= q.props["bound"], "word too long")
                env[v] = alg.word(word, gens)
            require(
                eval_matrix(matrix, alg, env) == (kind == "exists"),
                f"the {'witness' if kind == 'exists' else 'counterexample'} does not check",
            )
        return Outcome(doc["status"] != "inconclusive", doc["status"])

    v_refute = v_check = v_witness = _search

    # -- construct ---------------------------------------------------------

    def _config(self, out: str, rep):
        """The round trip: the printed config parses and re-serializes to
        itself, and its ring, flag and generators are the expected ones."""
        again = self.reprs.serialize_config(self.reprs.parse_config(out))
        require(again == out, "config does not round-trip")
        m = re.match(r"ring: (.*)\nfull_center: (true|false)\n", out)
        require(m is not None, "config header")
        ring = self.gen.canonical_ring(rep.comps)
        require(m.group(1) == ring, f"ring {m.group(1)!r}, expected {ring!r}")
        require((m.group(2) == "true") == rep.full_center, "full_center flag")
        alg = self.algebra(rep.shape)
        found = {
            n: alg.from_entries(*(alg.elem(x) for x in e))
            for n, *e in re.findall(r"^  (\w+): \{e12: (.*), e13: (.*), e23: (.*)\},?$", out, re.M)
        }
        _, want = self.generators(rep)
        want = {n: g for n, g in want.items() if n not in ("a1", "a2")}
        require(found == want, "generators differ from the expected ones")

    def v_extend(self, q, code, out):
        require(code == 0, f"extend exit {code}")
        ext = self.gen.extended(q.expect["rep"], q.expect["at"], q.expect["name"])
        self._config(out, ext)
        return Outcome(True, "constructed")

    def v_adjoin_center(self, q, code, out):
        require(code == 0, f"adjoin-center exit {code}")
        rep = q.expect["rep"]
        self._config(out, self.gen.Rep(rep.shape, rep.comps, rep.gens, True))
        return Outcome(True, "constructed")

    def v_adjoin_y(self, q, code, out):
        require(code == 0, f"adjoin-y exit {code}")
        rep = q.expect["rep"]
        alg, gens = self.generators(rep)
        m = re.search(r"^  Y: \{e12: (.*), e13: (.*), e23: (.*)\}$", out, re.M)
        require(m is not None, "no generator Y")
        y = alg.from_entries(*(alg.elem(x) for x in m.groups()))
        z = alg.from_entries(alg.zero, alg.elem(q.expect["z"]), alg.zero)
        require(alg.commute(gens["a2"], y), "[a2,Y] != 1")
        require(alg.comm(y, gens["a1"]) == z, "[Y,a1] != z")
        zero = self.gen.const(rep.comps, 0)
        gens_y = {**rep.gens, "Y": (q.expect["zelem"], zero, zero)}
        self._config(out, self.gen.Rep(rep.shape, rep.comps, gens_y, rep.full_center))
        return Outcome(True, "constructed")

    def _substitute(self, m, value: int):
        """The matrix with the last indeterminate of every component set to
        value (the extension's indeterminate)."""
        RingElem = self.rings.RingElem

        def subst(x):
            parts = []
            for p in x.parts:
                terms = {}
                for e, c in p:
                    e2 = e[:-1] + (0,)
                    terms[e2] = terms.get(e2, 0) + c * value ** e[-1]
                parts.append(tuple(sorted((e, c) for e, c in terms.items() if c)))
            return RingElem(x.ring, tuple(parts))

        return tuple(tuple(subst(x) for x in row) for row in m)

    def v_bigpowers(self, q, code, out):
        require(code == 0, f"bigpowers exit {code}")
        doc = json.loads(out)
        rep, gap = q.expect["rep"], q.expect["gap"]
        require(doc["indeterminate"] == rep.comps[0][-1], "retracted indeterminate")
        require(doc["n"] == gap, f"n = {doc['n']}, expected {gap}")
        alg, gens = self.generators(rep)
        images = [alg.parse(x) for x in doc["retracted_targets"]]
        targets = q.expect["targets"]
        require(len(images) == len(targets), "target count")

        def killer(t):  # t * a_i^-k
            return t[0] == "mul" and t[2][0] == "pow"

        # the powers a_i^-k for every k in one pass, as the killers need them all
        step = alg.inv(gens[q.expect["at"]])
        powers = [alg.identity]
        for _ in range(max(-t[2][2] for t in targets if killer(t))):
            powers.append(alg.mul(powers[-1], step))
        killers = {}
        for t, img in zip(targets, images):
            m = alg.mul(gens["t"], powers[-t[2][2]]) if killer(t) else eval_term(t, alg, gens)
            require(self._substitute(m, gap) == img, "retracted target differs")
            require(not alg.is_identity(img), "a target dies at n")
            if killer(t):
                killers[-t[2][2]] = m
        for k in range(1, gap):  # every smaller exponent kills some target
            require(k in killers and alg.is_identity(self._substitute(killers[k], k)), f"n={k} kills nothing")
        return Outcome(True, "certificate")

    def v_discriminate(self, q, code, out):
        if code == 2:
            return Outcome(False, "inconclusive")
        require(code == 0, f"discriminate exit {code}")
        doc = json.loads(out)
        alg = self.zalg
        a1 = alg.from_entries(alg.zero, alg.zero, alg.one)
        a2 = alg.from_entries(alg.one, alg.zero, alg.zero)
        c = alg.comm(a2, a1)
        env = {"a1": a1, "a2": a2}
        rank = q.expect["rank"]
        require(len(doc["extra_images"]) == rank - 2, "extra image count")
        for k, (p, qq, r) in enumerate(doc["extra_images"], start=3):
            env[f"a{k}"] = alg.mul(alg.mul(alg.power(a1, p), alg.power(a2, qq)), alg.power(c, r))
        targets = q.expect["targets"]
        require(len(doc["target_images"]) == len(targets), "target count")
        for t, text in zip(targets, doc["target_images"]):
            img = eval_term(t, alg, env)
            require(img == alg.parse(text), "target image differs")
            require(not alg.is_identity(img), "a target is killed")
        return Outcome(True, "holds")
