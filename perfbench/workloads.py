"""The three benchmark workloads: seeded inputs, one iteration, output checks.

An iteration is a fixed list of operations, each a call of
``phasewave.cli.main`` or of the public API, run one after the other in
one thread (closed loop).  ``run`` performs them and is the only timed
part.  ``outcome`` reduces their results to JSON-serialisable digests, and
``check`` compares an outcome with what the program must produce; an
operation that raised or whose output is wrong counts as one failure.

Names are looked up through the ``phasewave`` modules at call time, so the
tracer's patches apply to the calls made here too.

Import :mod:`env` and call ``env.isolate()`` before importing this module.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import time

import numpy as np

import phasewave
import phasewave.cli

#: Standing wave of the export and evolve commands: ell=3, A=2, C=5, natural units.
_ELL = 3
_PERIOD = 2.0 * math.pi / (2.0 * _ELL)

#: Largest max|fd-exact| the upwind solver may report, on the full grid and
#: on the smoke grid.  Over the times drawn the seed code reports at most
#: 0.080 at 256x1024 and 0.032 at 8x1024.  A solver that loses the
#: standing-wave term is off by the wave's amplitude on that grid, 0.254 and
#: 0.102, and one that rotates at half speed by more.
EVOLVE_MAX_ERR = {False: 0.1, True: 0.06}

_EVOLVE_LINE = re.compile(r"^t=(\S+) steps=(\d+) max\|fd-exact\|=(\S+)$")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _values_sha256(values) -> str:
    arr = np.asarray(values, dtype=np.float64)
    return _sha256(np.ascontiguousarray(arr).tobytes()) + f":{arr.shape}"


def call_cli(argv):
    """Run ``phasewave.cli.main(argv)`` in-process; returns (exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            phasewave.cli.main(argv)
            status = 0
        except SystemExit as exc:
            status = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    return status, out.getvalue(), err.getvalue()


def _op(ops, name, fn):
    t0 = time.perf_counter()
    try:
        result, error = fn(), None
    except Exception as exc:  # any exception is one failed operation; the run goes on
        result, error = None, f"{type(exc).__name__}: {exc}"
    ops.append({"op": name, "s": time.perf_counter() - t0, "error": error, "result": result})


def _cli_outcome(op) -> dict:
    out = {"op": op["op"], "s": op["s"], "error": op["error"]}
    if op["result"] is not None:
        status, stdout, stderr = op["result"]
        out.update(status=status, stdout=stdout, stderr=stderr[-2000:])
    return out


def _cli_failure(o) -> str | None:
    if o["error"]:
        return o["error"]
    if o["status"] != 0:
        return f"exit status {o['status']}: {o['stderr'].strip()}"
    return None


class Verify:
    """``check --suite all``: the paper's own verification suite.

    The suite has no inputs to vary, so the seed is ignored.
    """

    name = "verify"

    def __init__(self, seed: int, smoke: bool):
        pass  # no inputs to draw and no size to shrink

    def prepare(self):
        pass

    def run(self, tmp):
        ops = []
        report = os.path.join(tmp, "report.json")
        _op(ops, "check", lambda: call_cli(["check", "--suite", "all", "--out", report]))
        return ops

    def outcome(self, ops, tmp):
        o = _cli_outcome(ops[0])
        try:
            with open(os.path.join(tmp, "report.json"), encoding="ascii") as fh:
                report = json.load(fh)
            o["checks"] = len(report["checks"])
            o["passed"] = sum(bool(c["passed"]) for c in report["checks"])
        except (OSError, ValueError, KeyError, TypeError) as exc:
            o["report_error"] = f"{type(exc).__name__}: {exc}"
        o.pop("stdout", None)
        return [o]

    def check(self, outcome):
        o = outcome[0]
        fail = _cli_failure(o) or o.get("report_error")
        if fail is None and not (o["checks"] == 13 and o["passed"] == 13):
            fail = f"report passed {o['passed']}/{o['checks']}, expected 13/13"
        return [fail] if fail else []


class Export:
    """``figures`` in CSV and JSON plus one seeded high-n ``grid`` CSV, all read back.

    The seed draws the state index n from 48..64 and the time t from [0, T).
    Inputs stay fixed within a run, so every iteration must write the same
    bytes.
    """

    name = "export"

    def __init__(self, seed: int, smoke: bool):
        rng = random.Random(seed)
        self.n = rng.randint(48, 64)
        self.t = rng.uniform(0.0, _PERIOD)
        self.figure_grid = (8, 16) if smoke else (32, 128)
        self.grid = (8, 32) if smoke else (128, 512)
        self._expected = None
        self._reference = {}

    def _figure_files(self, fmt):
        return [f"{fmt}/wigner_n{n}_t{tag}.{fmt}" for n in (0, 5) for tag in ("0", "T4", "T2")]

    def files(self):
        return self._figure_files("csv") + self._figure_files("json") + ["grid.csv"]

    def commands(self, tmp):
        fr, fp = self.figure_grid
        gr, gp = self.grid
        figure = ["figures", "--n-rho", str(fr), "--n-phi", str(fp), "--format"]
        return [
            ("figures.csv", figure + ["csv", "--out", os.path.join(tmp, "csv")]),
            ("figures.json", figure + ["json", "--out", os.path.join(tmp, "json")]),
            ("grid.csv", ["grid", "--n", str(self.n), "--ell", str(_ELL), "--t", repr(self.t),
                          "--n-rho", str(gr), "--n-phi", str(gp), "--format", "csv",
                          "--out", os.path.join(tmp, "grid.csv")]),
        ]

    def _outputs(self, command):
        if command == "grid.csv":
            return ["grid.csv"]
        return self._figure_files(command.split(".")[1])

    def prepare(self):
        """Sample every exported field through the public API, outside the timed region."""
        params = phasewave.NATURAL_UNITS
        spec = phasewave.StandingWaveSpec(ell=_ELL, A=2.0, C=5.0)
        period = spec.period(params.omega)
        times = {"0": 0.0, "T4": period / 4.0, "T2": period / 2.0}
        fig = phasewave.GridSpec(rho_max=4.5, n_rho=self.figure_grid[0], n_phi=self.figure_grid[1])
        expected = {}
        for n in (0, 5):
            W = phasewave.standing_wave_field(params, n, spec)
            for tag, t in times.items():
                digest = _values_sha256(phasewave.sample_field(W, fig, t, params).values)
                for fmt in ("csv", "json"):
                    expected[f"{fmt}/wigner_n{n}_t{tag}.{fmt}"] = digest
        grid = phasewave.GridSpec(rho_max=4.5, n_rho=self.grid[0], n_phi=self.grid[1])
        W = phasewave.standing_wave_field(params, self.n, spec)
        expected["grid.csv"] = _values_sha256(phasewave.sample_field(W, grid, self.t, params).values)
        self._expected = expected

    def run(self, tmp):
        ops = []
        for name, argv in self.commands(tmp):
            _op(ops, name, lambda argv=argv: call_cli(argv))
        for rel in self.files():
            path = os.path.join(tmp, rel)
            _op(ops, "read " + rel, lambda path=path: phasewave.read_field(path)[0].values)
        return ops

    def outcome(self, ops, tmp):
        out = []
        for op in ops:
            if op["op"].startswith("read "):
                o = {"op": op["op"], "s": op["s"], "error": op["error"]}
                if op["result"] is not None:
                    o["values"] = _values_sha256(op["result"])
            else:
                o = _cli_outcome(op)
                o.pop("stdout", None)
                digests = {}
                for rel in self._outputs(op["op"]):
                    try:
                        with open(os.path.join(tmp, rel), "rb") as fh:
                            digests[rel] = _sha256(fh.read())
                    except OSError:
                        digests[rel] = None
                o["files"] = digests
            out.append(o)
        return out

    def check(self, outcome):
        fails = []
        for o in outcome:
            if o["op"].startswith("read "):
                rel = o["op"][len("read "):]
                fail = o["error"]
                if fail is None and o["values"] != self._expected[rel]:
                    fail = f"{rel}: values read back differ from the sampled field"
            else:
                fail = _cli_failure(o)
                for rel, digest in o["files"].items():
                    if digest is None:
                        fail = fail or f"{rel} was not written"
                        continue
                    ref = self._reference.setdefault(rel, digest)
                    if digest != ref:
                        fail = fail or f"{rel}: SHA-256 {digest} differs from {ref} earlier in the run"
            if fail:
                fails.append(f"{o['op']}: {fail}")
        return fails


class Evolve:
    """``evolve`` of a sampled standing wave, compared with the exact rotation.

    The seed draws t1 in [T, 2T]; t2 = 2pi + 1.5T - t1 then lies in
    [2pi - T/2, 2pi + T/2], inside [1.5pi, 2.5pi].  The number of upwind
    steps grows with t, and this keeps t1 + t2, and so the work, the same
    for every seed.
    """

    name = "evolve"

    def __init__(self, seed: int, smoke: bool):
        t1 = _PERIOD * (1.0 + random.Random(seed).random())
        self.times = (t1, 2.0 * math.pi + 1.5 * _PERIOD - t1)
        self.smoke = smoke
        # The smoke grid keeps n_phi: upwind diffusion over a coarser angle
        # would wipe out the wave, and the error bound with it.
        self.grid = (8, 1024) if smoke else (256, 1024)

    def prepare(self):
        pass

    def argv(self):
        return ["evolve", "--n", "5", "--ell", str(_ELL), "--n-rho", str(self.grid[0]),
                "--n-phi", str(self.grid[1]), "--t", ",".join(repr(t) for t in self.times)]

    def run(self, tmp):
        ops = []
        _op(ops, "evolve", lambda: call_cli(self.argv()))
        return ops

    def outcome(self, ops, tmp):
        o = _cli_outcome(ops[0])
        if o["error"] is None:
            lines = [m.groups() for m in map(_EVOLVE_LINE.match, o.pop("stdout").splitlines()) if m]
            o["results"] = [[float(t), int(steps), float(err)] for t, steps, err in lines]
        return [o]

    def check(self, outcome):
        o = outcome[0]
        bound = EVOLVE_MAX_ERR[self.smoke]
        fail = _cli_failure(o)
        if fail is None:
            got = [r[0] for r in o["results"]]
            errs = [r[2] for r in o["results"]]
            if got != list(self.times):
                fail = f"reported times {got} differ from the requested {list(self.times)}"
            elif not all(math.isfinite(e) and e <= bound for e in errs):
                fail = f"max|fd-exact| {errs} exceeds the bound {bound}"
        return [fail] if fail else []


WORKLOADS = {w.name: w for w in (Verify, Export, Evolve)}
