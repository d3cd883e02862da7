"""The heislab benchmark: seeded CLI workloads, checked answers, per-layer trace.

Run from the repository root:

    python3 bench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

One client sends one query at a time (a closed loop) to ``heislab.cli.main``
in this single process; a query's time is one ``main`` call, config parsing
and output formatting included.  Inputs come from ``gen.py`` and the seed;
every answer is checked by ``check.py`` after the timed loop.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs a fixed
number of rounds (set by ``--seconds`` and the workload, not by the clock, so
every work count repeats exactly for a seed) twice: untraced, then with
``tracing.py``'s wrappers installed; it reports the per-layer metrics and the
tracing overhead as the drop in throughput between the two passes.

Per-query records (input properties, latency, answer status) and the trace
spans are written under ``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import warnings

import check
import gen
import reference
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# A run ends on a whole cycle of rounds: the rounds of a cycle together hold
# the workload's fixed mix of input sizes.
CYCLE = {"lattice": 4, "nzct": 3, "search": 4, "construct": 4}
# Rounds generated before the timed loop (set-up times only the first
# cycle); a run that outlasts them starts over.
POOL_ROUNDS = {"lattice": 16, "nzct": 24, "search": 40, "construct": 40}
# Rounds per second of --seconds in a traced run: about 40% of the baseline
# rate, so the untraced and the traced pass together take about --seconds.
TRACE_ROUNDS_PER_S = {"lattice": 0.56, "nzct": 0.27, "search": 0.5, "construct": 1.0}
SETUP_REPS = 9
# Times are this process's CPU time.  The CLI is single-threaded and does no
# I/O beyond reading its small input files, so on an idle machine this equals
# wall time; on a shared machine it leaves out the time spent waiting for a
# core.  Each time is then divided by the host's slowdown measured around it
# with reference.py, so times read as at the baseline host's usual speed.
CLOCK = time.process_time


def import_heislab():
    """The package from ./src, for the queries of this process."""
    heislab = importlib.import_module("heislab")
    importlib.import_module("heislab.cli")
    if not os.path.abspath(heislab.__file__).startswith(SRC + os.sep):
        raise ImportError(f"heislab imported from {heislab.__file__}, not from {SRC}")
    return heislab


def fresh_import_cpu() -> float:
    """CPU time of a new interpreter that imports heislab.cli from ./src and
    exits: what a user's process spends before it reads its first input."""
    env = dict(os.environ, PYTHONPATH=SRC)
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    subprocess.run([sys.executable, "-c", "import heislab.cli"], cwd=ROOT, env=env, check=True)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)


def setup(workload: str, seed: int, workdir: str, generators):
    """The median set-up time over SETUP_REPS repetitions of: a fresh
    interpreter importing heislab, then generating and writing the first
    cycle of rounds, the inputs that make up the workload's whole mix.  The
    first repetition is a warm-up (it may compile the bytecode cache) and is
    not counted."""
    times = []
    for rep in range(SETUP_REPS + 1):
        shutil.rmtree(workdir, ignore_errors=True)
        gc.collect()  # every repetition starts from the same heap
        before = reference.slowdown()
        cpu = fresh_import_cpu()
        t0 = CLOCK()
        gen.generate(workload, seed, workdir, CYCLE[workload], generators)
        cpu += CLOCK() - t0
        if rep:
            times.append(cpu / ((before + reference.slowdown()) / 2))
    return statistics.median(times)


class Record:
    __slots__ = ("seq", "query", "round", "cpu", "latency", "code", "out", "err")

    def __init__(self, seq, query, rnd, cpu, code, out, err):
        self.seq, self.query, self.round = seq, query, rnd
        self.cpu, self.code, self.out, self.err = cpu, code, out, err
        self.latency = cpu  # divided by the round's slowdown when the round ends


def run_query(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    crashed = None
    t0 = CLOCK()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        code, crashed = None, sys.exc_info()
    latency = CLOCK() - t0
    if crashed:
        err.write("".join(traceback.format_exception(*crashed)))
    return latency, code, out.getvalue(), err.getvalue()


def run_loop(cli, rounds, cycle, seconds=None, nrounds=None, tracer=None):
    """Closed loop over whole cycles of rounds: until ``seconds`` have
    passed, or for exactly ``nrounds`` rounds.  A round's query times are
    divided by the mean of the host slowdowns measured before and after it."""
    records = []
    start = time.perf_counter()
    slow = reference.slowdown()
    r = 0
    while nrounds is None or r < nrounds:
        first = len(records)
        for q in rounds[r % len(rounds)]:
            if tracer is not None:
                tracer.query = len(records)
            cpu, code, out, err = run_query(cli, q.argv)
            records.append(Record(len(records), q, r, cpu, code, out, err))
        before, slow = slow, reference.slowdown()
        for rec in records[first:]:
            rec.latency = rec.cpu / ((before + slow) / 2)
        r += 1
        if seconds is not None and r % cycle == 0 and time.perf_counter() - start >= seconds:
            break
    return records


def verify(verifier, records) -> list:
    """(decided, failure reason or None, status) per record."""
    seen = {}
    results = []
    for rec in records:
        key = (rec.query.qid, rec.code, rec.out)
        if key not in seen:
            if rec.code is None:
                seen[key] = (False, "raised: " + rec.err.strip().splitlines()[-1], "error")
            else:
                try:
                    outcome = verifier.verify(rec.query, rec.code, rec.out, rec.err)
                    seen[key] = (outcome.decided, None, outcome.status)
                except Exception as exc:  # any defect in an answer is a failed query
                    seen[key] = (False, f"{type(exc).__name__}: {exc}", "failed")
        results.append(seen[key])
    return results


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(records, results, setup_s, peak_rss_mb) -> dict:
    lat = [r.latency for r in records]
    n = len(lat)
    return {
        "setup_s": metric(setup_s, "s"),
        "throughput_qps": metric(n / sum(lat), "1/s"),
        "latency_p50_ms": metric(statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": metric(statistics.quantiles(lat, n=10, method="inclusive")[8] * 1e3, "ms"),
        "decided_ratio": metric(sum(1 for d, _, _ in results if d) / n, "ratio"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
    }


def per_layer(tr: tracing.Tracer, untraced_qps: float, traced_qps: float) -> dict:
    m = {}
    for layer, (calls, ms, self_ms) in tr.layer_summary().items():
        m[f"{layer}.calls"] = metric(calls, "count")
        m[f"{layer}.ms"] = metric(ms, "ms")
        m[f"{layer}.self_ms"] = metric(self_ms, "ms")
    for name in (
        "zlattice.hnf", "zlattice.intersect_coordinate_zero", "zlattice.solve",
        "reprs.entry_lattices", "reprs.elem_from_coords", "reprs.product_of_generators",
        "rings.add", "rings.mul", "rings.substitute", "ut3.mul", "ut3.comm",
    ):
        m[f"{name}.calls"] = metric(tr.calls(name), "count")
        m[f"{name}.ms"] = metric(tr.ms(name), "ms")
    for name in ("zlattice.vectors_up_to", "reprs.parse_config", "reprs.frame", "rings.parse_elem", "formula.ball"):
        m[f"{name}.ms"] = metric(tr.ms(name), "ms")
    for name in ("ut3.inv", "ut3.pow_int", "formula.eval_qf", "formula.eval_term", "nilform.hom_apply", "nilform.collect"):
        m[f"{name}.calls"] = metric(tr.calls(name), "count")
    for name in (
        "reprs.lame_check", "reprs.tau_check", "reprs.sigma_check", "reprs.nzct_check",
        "reprs.solve", "reprs.appropriateness_check", "reprs.big_powers_retraction",
        "formula.search", "nilform.discriminate_to_H", "cli.main",
    ):
        m[f"{name}.self_ms"] = metric(tr.self_ms(name), "ms")
    for key in (
        "zlattice.hnf.max_rows", "zlattice.hnf.max_cols", "zlattice.hnf.transform_max_digits",
        "zlattice.hnf.basis_max_digits", "zlattice.vectors_up_to.vectors", "formula.ball.elements",
    ):
        m[key] = metric(tr.extra.get(key, 0), "count")
    tried = tr.calls("nilform.hom_new")
    found = tr.extra.get("nilform.certificates", 0)
    m["nilform.discriminate.useful_ratio"] = metric(found / tried if tried else 0.0, "ratio")
    m["trace.untraced_qps"] = metric(untraced_qps, "1/s")
    m["trace.traced_qps"] = metric(traced_qps, "1/s")
    m["trace.overhead_pct"] = metric(100.0 * (untraced_qps - traced_qps) / untraced_qps, "%")
    return m


def summarize_properties(props) -> list[str]:
    """Shares of queries per input property, for the log."""
    lines = []
    n = len(props)
    keys = []
    for p in props:
        keys += [k for k in p if k not in keys]
    for key in keys:
        values = [p[key] for p in props if key in p]
        if all(isinstance(v, int) for v in values):
            q = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
            lines.append(f"  {key}: min {min(values)}  q1 {q[0]:g}  median {q[1]:g}  q3 {q[2]:g}  max {max(values)}  ({len(values)} of {n} queries)")
        else:
            counts = {}
            for v in values:
                counts[v] = counts.get(v, 0) + 1
            shares = ", ".join(f"{v} {c / n:.0%}" for v, c in sorted(counts.items(), key=lambda kv: -kv[1]))
            lines.append(f"  {key}: {shares}")
    return lines


def write_log(path: str, records, props, results):
    with open(path, "w") as fh:
        for rec, p, (decided, reason, status) in zip(records, props, results):
            fh.write(
                json.dumps(
                    {
                        "seq": rec.seq,
                        "qid": rec.query.qid,
                        "round": rec.round,
                        "cmd": rec.query.cmd,
                        "props": p,
                        "latency_ms": rec.latency * 1e3,
                        "cpu_ms": rec.cpu * 1e3,
                        "exit": rec.code,
                        "status": status,
                        "decided": decided,
                        "failure": reason,
                    },
                    sort_keys=True,
                )
                + "\n"
            )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    warnings.simplefilter("always")  # a warning prints on every call, as in a fresh process
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    outdir = os.path.join(ROOT, ".bench_out")
    try:
        try:
            heislab = import_heislab()
        except ImportError as exc:
            print(f"error: cannot import heislab from {SRC}: {exc}", file=sys.stderr)
            return 2
        verifier = check.Verifier(heislab, gen)
        if not args.trace:
            setup_s = setup(args.workload, args.seed, workdir, verifier.generators)
        shutil.rmtree(workdir, ignore_errors=True)
        rounds = gen.generate(args.workload, args.seed, workdir, POOL_ROUNDS[args.workload], verifier.generators)
        cli = heislab.cli
        gc.freeze()  # the inputs and the benchmark's own objects stay out of the program's collections
        if args.trace:
            cycle = CYCLE[args.workload]
            nrounds = cycle * max(1, round(args.seconds * TRACE_ROUNDS_PER_S[args.workload] / cycle))
            records = run_loop(cli, rounds, cycle, nrounds=nrounds)
            tr = tracing.Tracer()
            tracing.install(tr, heislab)
            try:
                traced = run_loop(cli, rounds, cycle, nrounds=nrounds, tracer=tr)
            finally:
                tr.uninstall()
            untraced_qps = len(records) / sum(r.latency for r in records)
            traced_qps = len(traced) / sum(r.latency for r in traced)
            results = verify(verifier, records)
            for i, (a, b) in enumerate(zip(records, traced)):
                if (a.code, a.out) != (b.code, b.out):
                    results[i] = (results[i][0], "traced answer differs from untraced", "failed")
            metrics = per_layer(tr, untraced_qps, traced_qps)
            attempted = len(records) + len(traced)
            # a failed query fails in both passes: by its check, or by differing
            failed = 2 * sum(1 for _, reason, _ in results if reason)
        else:
            records = run_loop(cli, rounds, CYCLE[args.workload], seconds=args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            results = verify(verifier, records)
            metrics = end_to_end(records, results, setup_s, peak_rss_mb)
            attempted = len(records)
            failed = sum(1 for _, reason, _ in results if reason)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(workdir))

    os.makedirs(outdir, exist_ok=True)
    stem = os.path.join(outdir, f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}")
    cache = {}
    props = [rec.query.properties(cache) for rec in records]
    write_log(stem + "-queries.jsonl", records, props, results)
    if args.trace:
        tr.write_spans(stem + "-spans.jsonl")

    n = len(records)
    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client")
    print(f"queries {n} in {records[-1].round + 1} rounds  ({'traced replay' if args.trace else 'timed'})")
    cpu = sum(rec.cpu for rec in records)
    print(f"host slowdown {cpu / sum(rec.latency for rec in records):.4f} (query CPU time over reported time, {cpu:.3f} s CPU)")
    print("input properties:")
    for line in summarize_properties(props):
        print(line)
    print("metrics:")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if not args.trace:
        print(f"  failed_ratio = {failed / n:.6g} ratio  (samples: {n} queries, p90 has {n - int(0.9 * n)} above)")
    for rec, (_, reason, _) in zip(records, results):
        if reason:
            print(f"FAILED query {rec.query.qid} {' '.join(rec.query.argv)}: {reason}")
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
