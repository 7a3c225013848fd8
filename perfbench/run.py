"""Benchmark of the mixedcode command line, one workload per run.

    python3 perfbench/run.py --workload listing --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The run

1. times set-up: importing mixedcode and its CLI plus one small warm-up
   command, in this process and in six fresh interpreters (median). Bytecode
   goes to a cache of the run's own, filled by one untimed interpreter first,
   so every sample loads compiled bytecode whatever the checkout holds.
   The run and its children start one OpenBLAS thread, not a pool;
2. writes the workload's seeded inputs with perfbench/inputs.py, in a child
   process so that its memory does not count here;
3. calls `mixedcode.cli.main(argv)` on them in this process, one operation at
   a time, with stdout and stderr captured, repeating whole rounds of the
   same operations until --seconds of operation time have passed;
4. checks every output against reference computations (perfbench/checks.py);
5. prints one JSON line: `correct`, `attempted`, `failed` and the metrics.

With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
program's public functions are wrapped (perfbench/spans.py), the metrics are
the per-layer ones, each the median over rounds of its per-round value, and
the spans are saved to perfbench/out/trace-<workload>-<seed>.npz.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("listing", "exhaustive", "cyclic")
SETUP_CHILDREN = 6  # fresh interpreters timed after the one that fills the cache
MIN_SAMPLES = 100  # latencies per run, so that ten lie beyond the 90th percentile

# Executed in this process and, as `python3 -c`, in each fresh interpreter.
SETUP = """
import contextlib, io, sys, time
start = time.perf_counter()
sys.path.insert(0, SRC)
import mixedcode.cli
with contextlib.redirect_stdout(io.StringIO()):
    status = mixedcode.cli.main(["additive", "standard-form", TINY])
elapsed = time.perf_counter() - start
if status != 0:
    raise SystemExit(f"warm-up command exited {status}")
"""
TINY_MATRIX = "1 1 1\n1 | 2 | 4\n"


def set_up(work: Path) -> list:
    """Set-up times: this process, which imports mixedcode for the run, and
    SETUP_CHILDREN fresh interpreters, one after another.

    All of them read and write bytecode under work/pycache alone, and one
    untimed interpreter fills it first. Otherwise a sample would compile
    mixedcode or load it from __pycache__ depending on what earlier runs,
    test runs or PYTHONDONTWRITEBYTECODE left, which changes set-up time by
    about a third.
    """
    tiny = work / "tiny.mtx"
    tiny.write_text(TINY_MATRIX, encoding="utf-8")
    cache = str(work / "pycache")
    env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    prelude = f"SRC = {str(SRC)!r}; TINY = {str(tiny)!r}\n"

    def fresh() -> float:
        child = subprocess.run(
            [sys.executable, "-c", prelude + SETUP + "print(elapsed)"],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        return float(child.stdout.split()[-1])

    fresh()
    sys.pycache_prefix, sys.dont_write_bytecode = cache, False
    names = {"SRC": str(SRC), "TINY": str(tiny)}
    exec(SETUP, names)
    return [names["elapsed"]] + [fresh() for _ in range(SETUP_CHILDREN)]


def make_inputs(workload: str, seed: int, work: Path) -> list:
    subprocess.run(
        [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
         "--seed", str(seed), "--dir", str(work)],
        check=True, timeout=170,
    )
    with open(work / "manifest.json", encoding="utf-8") as fh:
        return json.load(fh)["ops"]


def call(main, argv):
    """Run one CLI command; returns (exit code or exception, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
        except Exception as exc:  # an operation that raises is a failed operation
            code = exc
        seconds = perf_counter() - start
    return code, seconds, out.getvalue(), err.getvalue()


def measure(ops, seconds: float, tracer=None) -> dict:
    """Whole rounds over `ops` until `seconds` of operation time have passed
    and at least MIN_SAMPLES operations have succeeded."""
    import mixedcode.cli
    from checks import judge

    latencies, faults, wrong = [], {}, []
    attempted = failed = rounds = 0
    busy = 0.0
    bounds = [tracer.mark()] if tracer else []
    # Each command of a user starts in a fresh process: collect the previous
    # operation's garbage before timing the next, and keep the benchmark's
    # own objects out of the collector's sweeps.
    gc.collect()
    gc.freeze()
    while rounds == 0 or busy < seconds or 0 < len(latencies) < MIN_SAMPLES:
        for op in ops:
            gc.collect()
            code, took, out, err = call(mixedcode.cli.main, op["argv"])
            busy += took
            attempted += 1
            verdict, reason = judge(op, code, out, err)
            if verdict == "ok":
                latencies.append(took)
                continue
            failed += 1
            if verdict == "fault":
                faults[reason] = faults.get(reason, 0) + 1
            else:
                wrong.append(f"{' '.join(op['argv'])}: {reason}")
        rounds += 1
        if tracer:
            bounds.append(tracer.mark())
    gc.unfreeze()
    return {"latencies": latencies, "attempted": attempted, "failed": failed,
            "faults": faults, "wrong": wrong, "rounds": rounds, "busy": busy,
            "bounds": bounds}


def end_to_end(result, setup_s: float) -> dict:
    # Too few successes happen only when operations go wrong, and then
    # `correct` is false; the latencies are reported as far as they exist.
    lat = result["latencies"] or [0.0]
    metrics = {
        "setup_s": (setup_s, "s"),
        # Divided by the summed operation time, failed operations included,
        # not by the loop's wall time: that also holds the benchmark's own
        # checks and garbage collection, a third of it on cyclic.
        "ops_per_s": (len(result["latencies"]) / result["busy"], "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_p90_s": (statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def per_layer(tracer, bounds) -> dict:
    from spans import METRICS

    out = {}
    for name, rounds in tracer.layer_metrics(bounds).items():
        value = statistics.median(rounds)
        if METRICS[name][1] == "self":
            out[name] = {"value": float(value), "unit": "s"}
        else:
            out[name] = {"value": int(value), "unit": "count"}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark one workload of the mixedcode CLI.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One thread of work, in this process and in every child. mixedcode's
    # integer arrays never call BLAS, but starting OpenBLAS's idle thread
    # pool waits for the other core: it took set-up from 0.12 to 0.2 s, more
    # when the machine was busy.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    work = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        setup = set_up(work)
        ops = make_inputs(args.workload, args.seed, work)
        sys.path.append(str(ROOT / "tests"))
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        try:
            result = measure(ops, args.seconds, tracer)
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for line in result["wrong"][:20]:
        print(f"wrong: {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {result['rounds']} round(s) of {len(ops)} operations, "
          f"{result['busy']:.1f} s busy, faults {result['faults'] or 'none'}", file=sys.stderr)
    if tracer:
        tracer.save(OUT / f"trace-{args.workload}-{args.seed}.npz")
        metrics = per_layer(tracer, result["bounds"])
    else:
        metrics = end_to_end(result, statistics.median(setup))
    print(json.dumps({
        "correct": not result["wrong"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
