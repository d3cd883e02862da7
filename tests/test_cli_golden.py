"""Golden stdout and exit codes of the ``heislab`` command.

Every case runs ``cli.main`` in-process and compares stdout and the exit code
with ``tests/data/cli_golden.json``.  stderr is not compared: it holds only
the error and warning messages, whose wording ``test_cli.py`` checks where
it matters.  After a deliberate output change, regenerate the data
with ``PYTHONPATH=src python tests/test_cli_golden.py`` and review the diff.
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

import pytest

DATA = pathlib.Path(__file__).parent / "data" / "cli_golden.json"

FIXTURE_NAMES = ("heisenberg", "zxz-lame", "ztheta-lame", "tau-fails-zxz")
BUILTINS = (
    "NZCT",
    "CT(0)",
    "CT(1)",
    "CT(2)",
    "tau",
    "sigma",
    "centralizer_qi",
    "torsion_free_qi(2)",
    "zero_sq_qi",
)
UNIVERSAL = "forall x ( [x,a1]=1 )"
EXISTENTIAL = "exists y ( [y,a1]!=1 )"

# Input files written to a temporary directory; "{tmp}" in an argument
# stands for that directory.
FILES = {
    "ext_a1.cfg": (
        "ring: Z[theta]\nfull_center: false\n"
        "generators: {\n  t: {e12: 0, e13: 0, e23: theta}\n}\n"
    ),
    "ext_a2_zxz.cfg": (
        "ring: Z[theta] x Z[theta]\nfull_center: false\ngenerators: {\n"
        "  b: {e12: (0,0), e13: (0,0), e23: (1,0)},\n"
        "  t: {e12: (theta,theta), e13: (0,0), e23: (0,0)}\n}\n"
    ),
    "big_a1.txt": "@t\n@t*a1^-1\n",
    "big_a2.txt": "# targets over the extended Z x Z group\n@t*a2^-1\n[@t,a1]\n@b*@t\n",
    "big_identity.txt": "@t*@t^-1\n",
    "nil3.txt": "a3*a1^-1\n[a2,a1]\n",
    "nil4.txt": "a3*a4^-1  # a comment\n[a3,a4]*[a2,a1]^-1\na4^2\n",
    "nil_identity.txt": "a1*a1^-1\n",
    "nil_a0.txt": "a0*a1\n",
    "nil_const.txt": "@b*a1\n",
    "empty.txt": "# nothing but a comment\n\n",
    "formula.fol": "exists y ( [a2,y]=1 )\n",
    "universal.fol": "forall x,z ( [z,a1]=1 & [a2,z]=1 -> [z,x]=1 )\n",
    "bad.cfg": "ring: Q\n",
    "theta.cfg": "ring: Z[theta]\ngenerators: {}\n",
    "z2.cfg": "ring: Z x Z\ngenerators: {\n  b: {e23: (2,0)}\n}\n",
}


def _cases() -> list[dict]:
    """Every golden case as {"argv": [...]} plus an optional "env"."""
    argvs = []
    for fx in FIXTURE_NAMES:
        for mode in ([], ["--json"]):
            rep = ["--example", fx, *mode]
            argvs.append(["example", fx, "--bound", "1", *mode])
            for cmd in ("lame", "tau", "sigma", "crank", "adjoin-center"):
                argvs.append([cmd, *rep])
            argvs.append(["nzct", *rep, "--bound", "1"])
            for name in BUILTINS:
                argvs.append(["check", name, *rep, "--bound", "1"])
            argvs.append(["check", UNIVERSAL, *rep])
            argvs.append(["check", EXISTENTIAL, *rep])
            argvs.append(["refute", UNIVERSAL, *rep])
            argvs.append(["refute", "centralizer_qi", *rep, "--bound", "1"])
            argvs.append(["refute", "forall x ( x=x )", *rep, "--bound", "1"])
            argvs.append(["witness", EXISTENTIAL, *rep])
            argvs.append(["witness", "exists x,y ( [x,y]!=1 & [x,a1]=1 )", *rep])
            argvs.append(["witness", "exists x ( x^2=1 & x!=1 )", *rep, "--bound", "1"])
            for cmd in ("solve-s", "solve-t"):
                for z in ("1", "(1,0)"):
                    argvs.append([cmd, "--z", z, *rep])
            for degree in ("1", "2"):
                argvs.append(["appropriate", "--degree", degree, *rep])
            for at in ("a1", "a2"):
                argvs.append(["extend", "--at", at, *rep])
            argvs.append(["adjoin-y", "--z", "1", *rep])
    for mode in ([], ["--json"]):
        for cfg, targets, at in (
            ("ext_a1.cfg", "big_a1.txt", "a1"),
            ("ext_a2_zxz.cfg", "big_a2.txt", "a2"),
        ):
            argvs.append(
                ["bigpowers", "--targets", "{tmp}/" + targets, "--rep", "{tmp}/" + cfg,
                 "--at", at, *mode]
            )
        argvs.append(
            ["bigpowers", "--targets", "{tmp}/big_a1.txt", "--rep", "{tmp}/ext_a1.cfg",
             "--at", "a1", "--name", "theta", *mode]
        )
        for targets in ("nil3.txt", "nil4.txt"):
            argvs.append(["discriminate", "--targets", "{tmp}/" + targets, *mode])
        for text in (
            "forall   x,z ( [z,a1]=1 & [a2,z]=1 -> [z,x]=1 )",
            "exists x,y ( x!=1 | ~([x,y]=1) )",
            "forall x exists y ( [x,y]=1 )",
            "[x,a1]=1 & @b=a2^-2",
            "forall x ( (x*a1)^2=1 -> x=1 )",
            "{tmp}/formula.fol",
            "{tmp}/universal.fol",
            "NZCT",
        ):
            argvs.append(["parse", text, *mode])
        argvs.append(["check", "{tmp}/universal.fol", *mode])
        argvs.append(["check", "CT(3)", "--bound", "1", *mode])
    # usage and config errors: exit 3
    argvs += [
        ["example-bogus"],
        ["example", "no-such-fixture"],
        ["check", "forall ( x=1 )"],
        ["check", "exists x forall y ( x=y )"],
        ["check", "NZCT", "--bound", "0"],
        ["example", "heisenberg", "--bound", "0"],
        ["refute", EXISTENTIAL],
        ["witness", UNIVERSAL],
        ["witness", "exists x ( [x,@zzz]=1 )"],
        ["parse", "forall x ("],
        ["lame", "--rep", "{tmp}/bad.cfg"],
        ["lame", "--rep", "{tmp}/missing.cfg"],
        ["tau", "--example", "zxz-lame", "--rep", "{tmp}/bad.cfg"],
        ["solve-s", "--z", "(1,0,0)", "--example", "zxz-lame"],
        ["solve-t", "--z", "theta", "--example", "zxz-lame"],
        ["adjoin-y", "--z", "x+"],
        ["appropriate", "--degree", "0"],
        ["extend", "--at", "a3"],
        ["discriminate", "--targets", "{tmp}/nil_identity.txt"],
        ["discriminate", "--targets", "{tmp}/nil_a0.txt"],
        ["discriminate", "--targets", "{tmp}/nil_const.txt"],
        ["discriminate", "--targets", "{tmp}/empty.txt"],
        ["discriminate", "--targets", "{tmp}/missing.txt"],
        ["bigpowers", "--targets", "{tmp}/empty.txt", "--rep", "{tmp}/ext_a1.cfg", "--at", "a1"],
        ["bigpowers", "--targets", "{tmp}/big_identity.txt", "--rep", "{tmp}/ext_a1.cfg",
         "--at", "a1"],
        ["bigpowers", "--targets", "{tmp}/big_a1.txt", "--at", "a1"],
        ["nzct", "--bound", "-1"],
    ]
    cases = [{"argv": a} for a in argvs]
    cases += [
        {"argv": ["refute", "forall x ( x=x )", "--bound", "4"], "env": {"HEISLAB_MAX_BOUND": "1"}},
        {"argv": ["refute", "forall x ( x=x )"], "env": {"HEISLAB_MAX_BOUND": "junk"}},
        {"argv": ["nzct"], "env": {"HEISLAB_MAX_BOUND": "0"}},
    ]
    # appropriate refuted (theta is in no entry) and inconclusive (the
    # idempotent (1,0) is out of reach of 2*Z), and an unsolvable solve-t
    for mode in ([], ["--json"]):
        for cfg in ("theta.cfg", "z2.cfg"):
            cases.append({"argv": ["appropriate", "--rep", "{tmp}/" + cfg, *mode]})
        cases.append({"argv": ["solve-t", "--z", "(1,0)", "--rep", "{tmp}/z2.cfg", *mode]})
    cases.append({"argv": ["example", "heisenberg", "--bound", "0", "--json"]})
    return cases


def _key(case: dict) -> str:
    return json.dumps([case["argv"], case.get("env", {})])


def _write_files(directory: pathlib.Path) -> None:
    for name, text in FILES.items():
        (directory / name).write_text(text)


def _run(case: dict, directory: pathlib.Path) -> tuple[int, str]:
    """Exit code and stdout of one case; stderr is discarded."""
    from heislab.cli import main

    argv = [a.replace("{tmp}", str(directory)) for a in case["argv"]]
    saved = {k: os.environ.get(k) for k in case.get("env", {})}
    os.environ.update(case.get("env", {}))
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden():
    return {_key(c): c for c in json.loads(DATA.read_text())}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    _write_files(directory)
    return directory


def test_data_covers_exactly_the_cases(golden):
    assert sorted(golden) == sorted(_key(c) for c in _cases())


# one test per subcommand keeps the per-test overhead small
@pytest.mark.parametrize("command", sorted({c["argv"][0] for c in _cases()}))
def test_cli_golden(command, golden, files):
    mismatches = []
    for case in _cases():
        if case["argv"][0] != command:
            continue
        expected = golden[_key(case)]
        got = _run(case, files)
        if got != (expected["exit"], expected["stdout"]):
            mismatches.append((_key(case), (expected["exit"], expected["stdout"]), got))
    assert not mismatches, mismatches[0]


class ReferenceArithmeticUsed(Exception):
    """Not a ValueError, so ``cli.main`` lets it through."""


def test_cli_golden_without_reference_arithmetic(golden, files, monkeypatch):
    """Every case again, with the arithmetic that the tests keep as the
    reference patched to raise: ``NilForm`` and its group methods,
    ``UT3Elem``'s group methods, ``Hom``, ``collect`` and ``to_matrix``.
    The program computes on ``Class2Law`` tuples and reaches none of them."""
    from heislab import nilform, ut3

    def trap(name):
        def raiser(*args, **kwargs):
            raise ReferenceArithmeticUsed(name)

        return raiser

    traps = [(nilform.NilForm, "__init__"), (nilform, "collect"), (nilform, "to_matrix")]
    traps += [(cls, m) for cls in (nilform.NilForm, ut3.UT3Elem) for m in ("__mul__", "inv", "pow_int", "comm")]
    traps += [(nilform.Hom, m) for m in ("__init__", "apply", "__call__")]
    for owner, attr in traps:
        monkeypatch.setattr(owner, attr, trap(f"{owner.__name__}.{attr}"))
    mismatches = []
    for case in _cases():
        expected = golden[_key(case)]
        try:
            got = _run(case, files)
        except ReferenceArithmeticUsed as exc:
            got = f"reached {exc}"
        if got != (expected["exit"], expected["stdout"]):
            mismatches.append((_key(case), got))
    assert not mismatches, mismatches[:3]


def test_json_stdout_is_the_emitters(golden):
    """Every --json stdout but crank's compact one is the emitter's indented,
    key-sorted dump of one document."""
    for case in golden.values():
        out = case["stdout"]
        if "--json" in case["argv"] and case["argv"][0] != "crank" and out:
            assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n", case["argv"]


def _regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        directory = pathlib.Path(tmp)
        _write_files(directory)
        out = []
        for case in _cases():
            code, stdout = _run(case, directory)
            out.append({**case, "exit": code, "stdout": stdout})
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(json.dumps(out, indent=1, ensure_ascii=False) + "\n")
    print(f"wrote {len(out)} cases to {DATA}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
