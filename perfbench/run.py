"""phasewave benchmark: three workloads through the CLI and the public API.

    python3 perfbench/run.py --workload {verify,export,evolve} --seed N \\
        --seconds S --trace {0,1} [--smoke]

Run from anywhere; the package is imported from ``src/`` beside this
directory.  The seed makes the workload's inputs, and only the generated
CLI arguments reach the program.  Every operation's output is checked.

``--trace 0`` reports the end-to-end metrics, each the median of samples
taken in rounds over ``--seconds`` (see ``end_to_end``):

* ``setup_s``: a fresh interpreter imports phasewave and builds the CLI
  parser; three per round.
* ``wall_s``: one iteration in-process, after one warm-up iteration; one
  per round.
* ``cold_s``: one iteration in a fresh interpreter, from spawn to the end of
  the iteration, import included; one per round.
* ``peak_rss_mb``: peak resident memory of those interpreters.

``--trace 1`` alternates untraced and traced iterations for ``--seconds``
and reports per-iteration self times and counts for each layer (see
``tracing.py``), each layer's share of the traced iteration and the
tracing overhead.

``--smoke`` shrinks every grid and sample count so a run takes seconds.

All output lines but the last are for people.  The last is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``, where
``failed / attempted`` is the error rate.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

import env

CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
CHILD_TIMEOUT_S = 150.0
SETUP_PER_ROUND = 3


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


class Tally:
    """Operations attempted and failed over the whole run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, wl, outcome):
        self.attempted += len(outcome)
        self.failures.extend(wl.check(outcome))

    def lost(self, what):
        self.attempted += 1
        self.failures.append(what)


def _reap(proc, deadline):
    """Wait for ``proc``, killing it at ``deadline``; returns (wait status, rusage)."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            return status, usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            return status, usage
        time.sleep(0.005)


def _spawn(args, tmp):
    """Run child.py; returns (spawn time, rusage, parsed last stdout line or None, stderr)."""
    out_path, err_path = os.path.join(tmp, "child.out"), os.path.join(tmp, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, *args], stdout=out, stderr=err,
                                cwd=env.ROOT)
        try:
            status, usage = _reap(proc, t_spawn + CHILD_TIMEOUT_S)
        except BaseException:  # interrupted: stop and reap the child, then unwind
            with contextlib.suppress(ChildProcessError):
                proc.kill()
                os.wait4(proc.pid, 0)
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return t_spawn, usage, result, stderr


def setup_sample():
    """setup_s of one fresh interpreter."""
    tmp = tempfile.mkdtemp(dir=env.TMP)
    try:
        _, _, result, stderr = _spawn(["setup"], tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if result is None:
        raise RuntimeError(f"setup probe failed: {stderr.strip()[-2000:]}")
    return result["setup_s"]


def cold_sample(wl, seed, smoke, tally):
    """(cold_s, peak RSS in MB) of one fresh interpreter running one iteration, or None."""
    tmp = tempfile.mkdtemp(dir=env.TMP)
    try:
        work = os.path.join(tmp, "work")
        os.mkdir(work)
        t_spawn, usage, result, stderr = _spawn(
            ["cold", wl.name, str(seed), "1" if smoke else "0", work], tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if result is None:
        tally.lost(f"cold iteration: {stderr.strip()[-2000:]}")
        return None
    tally.add(wl, result["outcome"])
    return result["t_end"] - t_spawn, usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def iterate(wl, tally):
    """One in-process iteration in a scratch directory; returns (wall seconds, outcome)."""
    tmp = tempfile.mkdtemp(dir=env.TMP)
    try:
        gc.collect()
        t0 = time.perf_counter()
        ops = wl.run(tmp)
        wall = time.perf_counter() - t0
        outcome = wl.outcome(ops, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    tally.add(wl, outcome)
    return wall, outcome


def _op_medians(outcomes):
    by_op = {}
    for outcome in outcomes:
        for o in outcome:
            by_op.setdefault(o["op"], []).append(o["s"])
    return {op: statistics.median(v) for op, v in by_op.items()}


def end_to_end(wl, args, tally, details):
    """Rounds of one warm iteration, one cold interpreter and a few setup
    probes, until ``--seconds`` have passed; at least three rounds.

    Every round takes one sample of each kind, so the sample counts depend
    only on the number of rounds.
    """
    minimum = 1 if args.smoke else 3
    setup_sample()  # fills the bytecode cache; not a sample
    iterate(wl, tally)  # warm-up: fills caches and finishes lazy set-up
    setup, cold, rss, walls, outcomes = [], [], [], [], []
    start = time.monotonic()
    while time.monotonic() - start < args.seconds or len(walls) < minimum:
        wall, outcome = iterate(wl, tally)
        walls.append(wall)
        outcomes.append(outcome)
        sample = cold_sample(wl, args.seed, args.smoke, tally)
        if sample is not None:
            cold.append(sample[0])
            rss.append(sample[1])
        setup.extend(setup_sample() for _ in range(SETUP_PER_ROUND))
    details.update(setup_s=setup, cold_s=cold, peak_rss_mb=rss, wall_s=walls,
                   op_s=_op_medians(outcomes))
    q1, med, q3 = _quartiles(walls)
    details["wall_s_quartiles"] = {"p25": q1, "median": med, "p75": q3, "n": len(walls)}

    def median_or_none(values):
        return statistics.median(values) if values else None

    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (med, "s"),
        "cold_s": (median_or_none(cold), "s"),
        "peak_rss_mb": (median_or_none(rss), "MB"),
    }


def per_layer(wl, args, tally, details):
    """Alternate untraced and traced iterations until ``--seconds`` have passed.

    Alternating pairs make the overhead estimate, traced against untraced
    median, insensitive to drift in the host's speed.
    """
    import tracing

    minimum = 1 if args.smoke else 3
    iterate(wl, tally)  # warm-up
    tracer = tracing.Tracer()
    untraced, traced, outcomes = [], [], []
    start = time.monotonic()
    while time.monotonic() - start < args.seconds or len(traced) < minimum:
        wall, outcome = iterate(wl, tally)
        untraced.append(wall)
        outcomes.append(outcome)
        tracer.iteration = len(traced)
        tracer.install()
        try:
            traced.append(iterate(wl, tally)[0])
        finally:
            tracer.uninstall()
    tracer.dump(str(env.OUT / f"spans_{wl.name}_seed{args.seed}.jsonl"))

    n = len(traced)
    totals = tracer.totals()
    metrics = {name: (fn(totals) / n, unit) for name, (unit, fn) in tracing.layer_metrics().items()}
    traced_total = sum(traced)
    self_s = totals[0]
    attributed = 0.0
    for layer in tracing.LAYERS:
        layer_s = sum(v for k, v in self_s.items() if k == layer or k.startswith(layer + "."))
        attributed += layer_s
        metrics[f"share.{layer}"] = (100.0 * layer_s / traced_total, "%")
    metrics["share.unattributed"] = (100.0 * (traced_total - attributed) / traced_total, "%")
    untraced_med, traced_med = statistics.median(untraced), statistics.median(traced)
    metrics["trace.untraced_wall_s"] = (untraced_med, "s")
    metrics["trace.wall_s"] = (traced_med, "s")
    metrics["trace.overhead"] = (100.0 * (traced_med / untraced_med - 1.0), "%")
    details.update(untraced_wall_s=untraced, traced_wall_s=traced, spans=len(tracer.spans),
                   untraced_targets=tracer.missing, op_s=_op_medians(outcomes))
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("verify", "export", "evolve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    # On SIGTERM, unwind through the finally blocks that stop children and remove scratch.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not env.have_source():
        print(f"perfbench: no phasewave sources under {env.SRC}", file=sys.stderr)
        return 2
    # numpy must see the pinned thread settings, so isolate before importing it.
    env.isolate()
    import workloads

    os.makedirs(env.TMP, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    wl.prepare()
    details = {"env": env.record(args.workload, args.seed, args.smoke)}
    tally = Tally()
    if args.trace:
        metrics = per_layer(wl, args, tally, details)
    else:
        metrics = end_to_end(wl, args, tally, details)

    failed = len(tally.failures)
    details["failures"] = tally.failures[:20]
    print("perfbench details " + json.dumps(details))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value!r:>24} {unit}")
    if not args.trace:
        print(f"  {'error_rate':<44} {failed / tally.attempted!r:>24} ratio "
              f"({failed} failed / {tally.attempted} attempted)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
