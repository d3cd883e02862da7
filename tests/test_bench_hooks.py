"""The benchmark's tracer wraps heislab functions by name; each must exist."""

import importlib.util
from pathlib import Path

import heislab
from heislab import cli, formula  # heislab's __init__ does not import cli


def _load_tracing():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_finds_every_hooked_name():
    """``install`` looks each name up in its owner's ``__dict__``, so a
    renamed or deleted one raises KeyError here."""
    tracing = _load_tracing()
    originals = (cli.main, cli.refute_universal, formula.witness_existential)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer, heislab)
        assert cli.main is not originals[0]
    finally:
        tracer.uninstall()
    assert (cli.main, cli.refute_universal, formula.witness_existential) == originals
