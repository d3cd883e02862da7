"""Tests for the heislab command-line interface."""

import argparse
import contextlib
import io
import json
import os
import pathlib
import random
import signal
import subprocess
import sys

import pytest
from test_cli_golden import DATA, _key, _run, _write_files

import heislab
from heislab.cli import FIXTURES, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# Examples and exit codes


def test_example_zxz_lame(capsys):
    code, out, _ = run(capsys, "example", "zxz-lame")
    assert code == 1
    assert "Lame property violated" in out
    assert "(1,0)" in out  # witness b's entry e1


def test_example_ztheta_lame(capsys):
    code, out, _ = run(capsys, "example", "ztheta-lame")
    assert code == 0
    assert "holds" in out


def test_example_tau_fails(capsys):
    code, out, _ = run(capsys, "example", "tau-fails-zxz")
    assert code == 1
    assert "tau violated" in out


def test_example_heisenberg_all_hold(capsys):
    code, out, _ = run(capsys, "example", "heisenberg")
    assert code == 0
    assert out.count("holds") == 4


def test_example_unknown(capsys):
    code, _, err = run(capsys, "example-bogus")
    assert code == 3


# ---------------------------------------------------------------------------
# check / refute / witness


def test_check_nzct_heisenberg(capsys):
    code, out, _ = run(capsys, "check", "NZCT", "--bound", "3")
    assert code == 0
    assert "method=exact_lattice" in out


def test_check_tau_fixture(capsys):
    code, out, _ = run(capsys, "check", "tau", "--example", "tau-fails-zxz")
    assert code == 1
    assert "violated" in out


def test_check_inline_universal(capsys):
    code, out, _ = run(capsys, "check", "forall x ( [x,a1]=1 )", "--bound", "1")
    assert code == 1
    assert "witness" in out


def test_check_inline_existential(capsys):
    code, out, _ = run(capsys, "check", "exists x ( x!=1 )", "--bound", "1")
    assert code == 0


def test_refute_exhaustion_is_exit_2(capsys):
    code, out, _ = run(capsys, "refute", "forall x ( x=x )", "--bound", "2")
    assert code == 2
    assert "inconclusive" in out


def test_witness_found(capsys):
    code, out, _ = run(capsys, "witness", "exists y ( [y,a1]!=1 )", "--bound", "1")
    assert code == 0
    assert "a2" in out


def test_bad_formula_is_exit_3(capsys):
    code, _, err = run(capsys, "check", "forall ( x=1 )")
    assert code == 3
    assert "error" in err


@pytest.mark.parametrize(
    "command, sentence",
    [
        # the search fails on x!=x before it ever reads @foo
        ("witness", "exists x,y ( x!=x & [y,@foo]=1 )"),
        ("refute", "forall x ( x=x | [x,@foo]=1 )"),
        # the first disjunct has a witness, so the second is never searched
        ("witness", "exists x ( x=x | [x,@foo]=1 )"),
    ],
)
def test_unknown_constant_is_exit_3_before_the_search(capsys, command, sentence):
    code, out, err = run(capsys, command, sentence, "--bound", "1")
    assert code == 3
    assert out == ""
    assert err == "error: unknown constant 'foo'\n"


_DEEP_CONFIG = """\
ring: Z
full_center: false
generators: {
  b: {e12: %s, e13: 0, e23: 0}
}
""" % ("(" * 400 + "1" + ")" * 400)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve-s", "--z", "(" * 300 + "1" + ")" * 300],
        ["lame", "--rep", "DEEP_CONFIG"],
        ["parse", "(" * 2000 + "x=1" + ")" * 2000],
        ["parse", "forall x ( " + "*".join(["x"] * 3000) + "=1 )"],
        ["parse", "forall x ( x" + "^2" * 3000 + "=1 )"],
        ["parse", "forall x ( " + "~" * 3000 + "x=1 )"],
        ["refute", "CT(1200)"],
    ],
    ids=["solve-s", "config", "parentheses", "products", "powers", "negations", "CT(1200)"],
)
def test_deep_nesting_is_exit_3(capsys, tmp_path, argv):
    cfg = tmp_path / "deep.cfg"
    cfg.write_text(_DEEP_CONFIG)
    argv = [str(cfg) if a == "DEEP_CONFIG" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and "nested deeper than 100 levels" in err
    assert "Traceback" not in err


def test_long_literal_in_a_config_is_exit_3(capsys, tmp_path):
    cfg = tmp_path / "long.cfg"
    cfg.write_text(
        "ring: Z x Z\ngenerators: {\n  b: {e12: %s, e13: 0, e23: 0}\n}\n" % ("1" * 5000)
    )
    code, out, err = run(capsys, "lame", "--rep", str(cfg))
    assert code == 3
    assert out == ""
    assert err == "error: generator 'b': integer literal of 5000 digits is too long\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["parse", "forall x ( x^%s=1 )" % ("1" * 5000)],
        ["check", "CT(%s)" % ("1" * 5000)],
        ["discriminate", "--targets", "{tmp}/long.txt"],
    ],
    ids=["exponent", "builtin", "discriminate"],
)
def test_long_literal_in_a_formula_is_exit_3(capsys, tmp_path, argv):
    (tmp_path / "long.txt").write_text("a%s*a1\n" % ("1" * 5000))
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == "error: integer literal of 5000 digits is too long\n"


def test_discriminate_generator_index_cap(capsys, tmp_path, monkeypatch):
    from heislab import cli, ut3

    cap = cli.MAX_GENERATORS
    targets = tmp_path / "wide.txt"
    targets.write_text(f"a{cap}*a1\n")
    assert run(capsys, "discriminate", "--targets", str(targets))[0] == 0

    def fail(n):
        raise AssertionError("a free law was built")

    monkeypatch.setattr(ut3.Class2Law, "free", fail)
    for index in (cap + 1, 3000, 10**4000):
        targets.write_text(f"a3*a1\n[a{index},a2]\n")
        code, out, err = run(capsys, "discriminate", "--targets", str(targets))
        assert code == 3
        assert out == ""
        assert err == f"error: generator index above {cap}\n"


def test_blanks_around_a_z_literal(capsys):
    expected = run(capsys, "solve-s", "--z", "1", "--example", "heisenberg")
    assert expected[0] == 0
    for z in ("1 ", " 1", " 1 "):
        assert run(capsys, "solve-s", "--z", z, "--example", "heisenberg") == expected


@pytest.mark.parametrize(
    "sentence, refuted",
    [
        # each syntax tree is exactly 100 levels deep
        ("forall x ( " + "*".join(["x"] * 97) + "=1 )", 1),
        ("forall x ( " + "~" * 96 + "x=1 )", 1),
        ("forall x ( " + "[" * 96 + "x" + ",x]" * 96 + "=1 )", 2),
        # and 100 parentheses are open around x=1
        ("forall x " + "(" * 100 + "x=1" + ")" * 100, 1),
    ],
)
def test_nesting_at_the_limit(capsys, sentence, refuted):
    code, out, err = run(capsys, "parse", sentence)
    assert (code, err) == (0, "")
    assert run(capsys, "parse", out.splitlines()[0])[:2] == (0, out)
    code, out, err = run(capsys, "refute", sentence, "--bound", "1")
    assert (code, err) == (refuted, "")


# ---------------------------------------------------------------------------
# Direct checkers


def test_lame_subcommand(capsys):
    code, out, _ = run(capsys, "lame", "--example", "zxz-lame")
    assert code == 1
    assert out.startswith("violated method=exact_lattice")
    code, out, _ = run(capsys, "lame", "--example", "ztheta-lame")
    assert code == 0


def test_sigma_subcommand_json(capsys):
    code, out, _ = run(capsys, "sigma", "--example", "ztheta-lame", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "violated"
    assert doc["witness"]["unsolvable_system"] == "S"
    assert doc["witness"]["commutator_13_entry"] == "theta"


def test_nzct_subcommand(capsys):
    code, out, _ = run(capsys, "nzct", "--example", "tau-fails-zxz", "--bound", "2")
    assert code == 1


def test_solve_s(capsys):
    code, out, _ = run(capsys, "solve-s", "--z", "1")
    assert code == 0
    assert "solvable" in out and "a2^1" in out
    code, out, _ = run(capsys, "solve-s", "--z", "(1,0)", "--example", "zxz-lame")
    assert code == 1
    assert "unsolvable" in out


def test_solve_t_json(capsys):
    code, out, _ = run(capsys, "solve-t", "--z", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["solvable"] is True


def test_crank(capsys):
    code, out, _ = run(capsys, "crank")
    assert code == 0 and out.strip() == "1"
    code, out, _ = run(capsys, "crank", "--example", "ztheta-lame")
    assert out.strip() == "2"


# ---------------------------------------------------------------------------
# Constructions through files


def test_extend_and_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "extend", "--at", "a1")
    assert code == 0
    assert "ring: Z[theta]" in out
    cfg = tmp_path / "ext.cfg"
    cfg.write_text(out)
    code, out, _ = run(capsys, "crank", "--rep", str(cfg))
    assert out.strip() == "2"


def test_adjoin_y(capsys, tmp_path):
    code, out, _ = run(
        capsys, "adjoin-y", "--z", "(1,0)", "--example", "zxz-lame"
    )
    assert code == 0
    assert "e12: (1,0)" in out
    cfg = tmp_path / "adj.cfg"
    cfg.write_text(out)
    code, out, _ = run(capsys, "solve-s", "--z", "(1,0)", "--rep", str(cfg))
    assert code == 0


def test_adjoin_y_warning_is_one_stable_stderr_line(capsys):
    # the same one line on every call of the process, with no source path
    for z, message in (
        ("0", "adjoin_Y with z = identity adjoins the identity"),
        ("1", "system S is already solvable; adjoin_Y is redundant"),
    ):
        first, second = (run(capsys, "adjoin-y", "--z", z) for _ in range(2))
        assert first == second
        code, out, err = first
        assert code == 0 and "generators: {" in out
        assert err == f"warning: {message}\n"
    assert run(capsys, "adjoin-y", "--z", "(1,0)", "--example", "zxz-lame")[2] == ""


def test_adjoin_center(capsys):
    code, out, _ = run(capsys, "adjoin-center")
    assert code == 0
    assert "full_center: true" in out


def test_bigpowers(capsys, tmp_path):
    code, ext, _ = run(capsys, "extend", "--at", "a1")
    cfg = tmp_path / "ext.cfg"
    cfg.write_text(ext)
    targets = tmp_path / "targets.txt"
    targets.write_text("@t\n@t*a1^-1\n")
    code, out, _ = run(
        capsys, "bigpowers", "--targets", str(targets), "--rep", str(cfg), "--at", "a1"
    )
    assert code == 0
    assert "n=2" in out


@pytest.mark.parametrize("extended", ["a1", "a2"])
def test_bigpowers_certificate_does_not_depend_on_at(capsys, tmp_path, extended):
    # the extension fixes which a_i the generator t becomes; --at is only read
    code, ext, _ = run(capsys, "extend", "--at", extended)
    cfg = tmp_path / "ext.cfg"
    cfg.write_text(ext)
    targets = tmp_path / "targets.txt"
    targets.write_text(f"@t\n@t*{extended}^-1\n@t*{extended}^-2*a1\n[@t,a1*a2]\n")
    outs = [
        run(capsys, "bigpowers", "--targets", str(targets), "--rep", str(cfg), *at, *mode)
        for mode in ([], ["--json"])
        for at in (["--at", "a1"], ["--at", "a2"], [])
    ]
    assert outs[0] == outs[1] == outs[2] and outs[3] == outs[4] == outs[5]
    assert outs[0][0] == 0 and outs[0][1].startswith("n=")


def test_discriminate(capsys, tmp_path):
    targets = tmp_path / "nil.txt"
    targets.write_text("a3*a1^-1\n[a2,a1]\n")
    code, out, _ = run(capsys, "discriminate", "--targets", str(targets))
    assert code == 0
    assert "a3 ->" in out


def test_discriminate_always_decides(capsys, tmp_path, monkeypatch):
    # every exponent triple in {-1,0,1}^3 kills one target; discriminate takes
    # no bound, so HEISLAB_MAX_BOUND=1 must not stop it and --json stays JSON
    monkeypatch.setenv("HEISLAB_MAX_BOUND", "1")
    targets = tmp_path / "cube.txt"
    targets.write_text(
        "".join(
            f"a3*[a2,a1]^{-r}*a2^{-q}*a1^{-p}\n"
            for p in (-1, 0, 1)
            for q in (-1, 0, 1)
            for r in (-1, 0, 1)
        )
    )
    code, out, _ = run(capsys, "discriminate", "--targets", str(targets), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "holds"
    assert doc["extra_images"] == [[0, 0, 2]]


def test_discriminate_identity_target(capsys, tmp_path):
    targets = tmp_path / "nil.txt"
    targets.write_text("a1*a1^-1\n")
    code, _, err = run(capsys, "discriminate", "--targets", str(targets))
    assert code == 3


def test_discriminate_names_no_constant_past_a2(capsys, tmp_path):
    # a3 is a generator, read as a variable; only a1 and a2 are constants
    targets = tmp_path / "nil.txt"
    targets.write_text("a3\n@a3*a1\n")
    code, out, err = run(capsys, "discriminate", "--targets", str(targets))
    assert (code, out, err) == (3, "", "error: unknown constant 'a3'\n")


def test_appropriate(capsys):
    code, out, _ = run(capsys, "appropriate", "--example", "ztheta-lame", "--degree", "1")
    assert code == 0
    assert "confirmed" in out


# ---------------------------------------------------------------------------
# parse, config errors, bounds


def test_parse_canonicalizes(capsys):
    code, out, _ = run(capsys, "parse", "forall   x,z ( [z,a1]=1 & [a2,z]=1 -> [z,x]=1 )")
    assert code == 0
    assert "forall x,z" in out
    assert "class: quasi_identity" in out


def test_parse_file(capsys, tmp_path):
    f = tmp_path / "f.fol"
    f.write_text("exists y ( [a2,y]=1 )\n")
    code, out, _ = run(capsys, "parse", str(f))
    assert code == 0
    assert "class: primitive" in out


def test_config_error_is_exit_3(capsys, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("ring: Q\n")
    code, _, err = run(capsys, "lame", "--rep", str(cfg))
    assert code == 3


@pytest.mark.parametrize(
    "command", ["check", "parse", "lame --rep", "discriminate --targets", "bigpowers --at a1 --targets"]
)
def test_unreadable_formula_file_is_exit_3(capsys, tmp_path, command):
    # a directory exists but cannot be read as a file
    code, out, err = run(capsys, *command.split(), str(tmp_path))
    assert code == 3
    assert out == ""
    assert err == f"error: cannot read {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n"


def test_ring_over_the_component_cap_is_exit_3(capsys, tmp_path):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("ring: Z^100000000\n")
    code, out, err = run(capsys, "lame", "--rep", str(cfg))
    assert code == 3
    assert out == ""
    assert err == "error: ring has more than 1000 components\n"


def test_ring_mismatch_is_an_internal_error_exit_4(capsys, monkeypatch, tmp_path):
    from heislab import reprs
    from heislab.rings import RingMismatchError

    def broken(*args):
        raise RingMismatchError("Z vs Z x Z")

    monkeypatch.setattr(reprs, "lame_check", broken)
    monkeypatch.setattr(reprs, "big_powers_retraction", broken)
    targets = tmp_path / "targets.txt"
    targets.write_text("a1\n")
    for argv in (
        ["lame", "--example", "zxz-lame"],
        ["check", "lame", "--example", "zxz-lame"],
        ["bigpowers", "--targets", str(targets), "--at", "a1"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 4
        assert out == ""
        assert err == "internal error: Z vs Z x Z\n"


def test_discriminate_rechecks_its_certificate(capsys, monkeypatch, tmp_path):
    # a certificate whose first target image is changed fails verify, which
    # is an internal error: exit 4 with nothing printed on stdout
    from heislab import nilform

    discriminate_to_H = nilform.discriminate_to_H

    def corrupted(law, targets):
        cert = discriminate_to_H(law, targets)
        (p, q, r), *rest = cert.target_images
        return nilform.DiscriminationCertificate(cert.extra_images, ((p, q, r + 1), *rest))

    targets = tmp_path / "nil.txt"
    targets.write_text("a3*a1^-1\n[a2,a1]\n")
    assert run(capsys, "discriminate", "--targets", str(targets))[0] == 0
    monkeypatch.setattr(nilform, "discriminate_to_H", corrupted)
    code, out, err = run(capsys, "discriminate", "--targets", str(targets))
    assert (code, out, err) == (4, "", "internal error: discrimination certificate fails its re-check\n")


def test_missing_rep_file_is_exit_3(capsys):
    code, _, err = run(capsys, "lame", "--rep", "/nonexistent/x.cfg")
    assert code == 3


def test_max_bound_env(capsys, monkeypatch):
    monkeypatch.setenv("HEISLAB_MAX_BOUND", "1")
    # requested bound 4 is capped at 1
    code, out, _ = run(capsys, "refute", "forall x ( x=x )", "--bound", "4")
    assert code == 2
    assert "bound=1" in out
    monkeypatch.setenv("HEISLAB_MAX_BOUND", "junk")
    code, _, err = run(capsys, "refute", "forall x ( x=x )")
    assert code == 3


def test_over_long_bounds_are_usage_errors(capsys, monkeypatch):
    digits = "9" * 5000
    code, out, err = run(capsys, "nzct", "--bound", digits)
    assert (code, out, err) == (3, "", "error: integer literal of 5000 digits is too long\n")
    monkeypatch.setenv("HEISLAB_MAX_BOUND", digits)
    code, out, err = run(capsys, "nzct")
    assert (code, out, err) == (3, "", "error: integer literal of 5000 digits is too long\n")


@pytest.mark.parametrize(
    "argv, env, message",
    [
        (["--bound", "abc"], "6", "argument --bound: invalid int value: 'abc'"),
        (["--bound", "0"], "6", "--bound must be >= 1"),
        ([], "abc", "HEISLAB_MAX_BOUND must be an integer, got 'abc'"),
        ([], "0", "HEISLAB_MAX_BOUND must be >= 1"),
    ],
)
def test_bad_bound_messages(capsys, monkeypatch, argv, env, message):
    monkeypatch.setenv("HEISLAB_MAX_BOUND", env)
    assert run(capsys, "nzct", *argv) == (3, "", f"error: {message}\n")


def test_over_long_degree_is_a_usage_error(capsys):
    code, out, err = run(capsys, "appropriate", "--degree", "9" * 5000)
    assert (code, out, err) == (3, "", "error: integer literal of 5000 digits is too long\n")


@pytest.mark.parametrize(
    "value, message",
    [("abc", "argument --degree: invalid int value: 'abc'"), ("0", "--degree must be >= 1")],
)
def test_bad_degree_messages(capsys, value, message):
    assert run(capsys, "appropriate", "--degree", value) == (3, "", f"error: {message}\n")


def test_appropriate_stops_at_the_first_empty_layer(capsys):
    # every entry of H is 1, so the first layer adds no product; walking
    # the other 10^18 - 1 empty layers would outlast the alarm
    def too_slow(*_args):
        raise TimeoutError("appropriate kept walking empty layers")

    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        result = run(capsys, "appropriate", "--example", "heisenberg", "--degree", "1" + "0" * 18)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert result == (0, "confirmed degree_bound=1000000000000000000\n", "")


def test_appropriate_stops_once_the_span_stops_growing(capsys):
    # each layer adds a new power (2^k, 0), but none after (2,0) grows the span
    def too_slow(*_args):
        raise TimeoutError("appropriate kept walking layers inside the span")

    cfg = str(pathlib.Path(__file__).parent / "data" / "appropriate_z2.cfg")
    previous = signal.signal(signal.SIGALRM, too_slow)
    signal.alarm(10)
    try:
        for flags in ([], ["--json"]):
            code, out, err = run(capsys, "appropriate", "--rep", cfg, "--degree", "100000", *flags)
            assert code == 2 and err == ""
            assert out.replace("100000", "2") == run(capsys, "appropriate", "--rep", cfg, "--degree", "2", *flags)[1]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_deterministic_output(capsys):
    code1, out1, _ = run(capsys, "example", "zxz-lame")
    code2, out2, _ = run(capsys, "example", "zxz-lame")
    assert (code1, out1) == (code2, out2)


def test_json_roundtrip_all_checks(capsys):
    for args in (
        ["lame", "--example", "zxz-lame", "--json"],
        ["tau", "--example", "tau-fails-zxz", "--json"],
        ["nzct", "--json"],
        ["example", "heisenberg", "--json"],
        ["crank", "--json"],
    ):
        code, out, _ = run(capsys, *args)
        json.loads(out)  # must be valid JSON


def test_fixture_configs_parse():
    from heislab import reprs

    for name, text in FIXTURES.items():
        rep = reprs.parse_config(text)
        assert [n for n, _ in rep.generators][:2] == ["a1", "a2"]


# ---------------------------------------------------------------------------
# check through the checker table; input validation


@pytest.mark.parametrize("mode", [[], ["--json"]])
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_check_lame_matches_lame_subcommand(capsys, fixture, mode):
    code, out, _ = run(capsys, "check", "lame", "--example", fixture, *mode)
    assert (code, out) == run(capsys, "lame", "--example", fixture, *mode)[:2]


def test_check_lame_zxz_is_violated(capsys):
    code, out, _ = run(capsys, "check", "lame", "--example", "zxz-lame")
    assert code == 1
    assert out.startswith("violated method=exact_lattice bound=none\nwitness:\n")


def test_bigpowers_unknown_name_is_exit_3(capsys, tmp_path):
    _, ext, _ = run(capsys, "extend", "--at", "a1")
    cfg = tmp_path / "ext.cfg"
    cfg.write_text(ext)
    targets = tmp_path / "targets.txt"
    targets.write_text("@t\n")
    code, out, err = run(
        capsys, "bigpowers", "--targets", str(targets), "--rep", str(cfg),
        "--at", "a1", "--name", "zzz",
    )
    assert code == 3
    assert out == ""
    assert "'zzz' is not an indeterminate" in err


def test_bigpowers_without_name_names_the_indeterminates(capsys, tmp_path):
    # the default indeterminate is the last of component 1, which has
    # none here although t exists: the message says so and names t
    cfg = tmp_path / "zxzt.cfg"
    cfg.write_text("ring: Z x Z[t]\ngenerators: {\n  b: {e12: (0,t)}\n}\n")
    targets = tmp_path / "targets.txt"
    targets.write_text("@b\n")
    argv = ["bigpowers", "--targets", str(targets), "--rep", str(cfg), "--at", "a1"]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err == (
        "error: component 1 of Z x Z[t] has no indeterminates, so none is known to "
        "come from an extension; pass --name with one of: t\n"
    )
    code, out, _ = run(capsys, *argv, "--name", "t")
    assert code == 0
    assert out.startswith("n=1 indeterminate=t\n")


def test_extend_bad_name_is_exit_3(capsys):
    code, out, err = run(capsys, "extend", "--at", "a1", "--name", "1x")
    assert code == 3
    assert out == ""
    assert "bad indeterminate name '1x'" in err


@pytest.mark.parametrize("name", ["theta", "x", "t2", "Z"])
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_extend_output_round_trips(capsys, fixture, name):
    from heislab import reprs

    for at in ("a1", "a2"):
        code, out, _ = run(capsys, "extend", "--at", at, "--name", name, "--example", fixture)
        if fixture == "ztheta-lame" and name == "theta":
            assert code == 3  # theta is already an indeterminate
            continue
        assert code == 0
        assert reprs.serialize_config(reprs.parse_config(out)) == out


@pytest.mark.parametrize("target", ["a0*a1", "a01", "[a2,a00]"])
def test_discriminate_rejects_zero_led_generator_names(capsys, tmp_path, target):
    targets = tmp_path / "nil.txt"
    targets.write_text(target + "\n")
    code, out, err = run(capsys, "discriminate", "--targets", str(targets))
    assert code == 3
    assert out == ""
    assert "unknown generator 'a0" in err


# ---------------------------------------------------------------------------
# One parser per process


def _help(parse, argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        parse(argv)
    assert exc.value.code == 0
    return out.getvalue()


# cases that leave argparse or a handler early, mixed in between golden cases
_INTERRUPTS = (
    (["nzct", "--bound", "0"], 3),  # rejected by the handler
    (["no-such-command"], 3),  # rejected by argparse
    (["nzct", "--help"], None),  # SystemExit from argparse
)


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("order", ["reversed", "shuffled"])
def test_main_is_reentrant(tmp_path, order):
    _write_files(tmp_path)
    cases = json.loads(DATA.read_text())
    if order == "reversed":
        cases.reverse()
    else:
        random.Random(5).shuffle(cases)
    mismatches = []
    for k, case in enumerate(cases):
        if (case["exit"], case["stdout"]) != _run(case, tmp_path):
            mismatches.append(_key(case))
        argv, code = _INTERRUPTS[k % len(_INTERRUPTS)]
        if code is None:
            _help(main, argv)
        else:
            assert _run({"argv": argv}, tmp_path) == (code, "")
    assert not mismatches, mismatches[:3]
    assert build_parser.cache_info().misses == 1


def test_help_matches_a_fresh_parser():
    fresh = build_parser.__wrapped__()
    subcommands = next(
        a.choices for a in fresh._actions if isinstance(a, argparse._SubParsersAction)
    )
    for argv in [["--help"]] + [[name, "--help"] for name in subcommands]:
        main(["lame"])  # a query between help requests changes nothing
        assert _help(main, argv) == _help(fresh.parse_args, argv), argv
    assert build_parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "NZCT", "--example", "heisenberg"],
        ["refute", "NZCT", "--example", "tau-fails-zxz", "--bound", "2", "--json"],
    ],
)
def test_closed_stdout_is_exit_3(argv):
    # as in `heislab check NZCT --example heisenberg | true`: the reader is
    # gone before anything is printed, so no verdict's exit code may leak
    src = str(pathlib.Path(heislab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "heislab.cli", *argv],
            stdout=write,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write)
    assert proc.returncode == 3
    assert b"Traceback" not in proc.stderr
