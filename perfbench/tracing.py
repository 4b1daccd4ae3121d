"""Spans around the calls into each phasewave module, recorded from outside.

The tracer wraps the public functions of each module and the field
classes' ``__call__``.  Modules bind ``from .x import y`` names at import,
so a function is replaced in every ``phasewave`` module namespace that
holds it (and in dict registries such as ``verify.SUITES``), not only
where it is defined.  Each call records one span: name, start, end, parent
span, iteration, and the counts of work it was given.  Spans stay in
memory until the run ends.

A span's self time is its duration minus the durations of its direct
children.  The metric ``<name>.s`` sums the self time of the spans called
``<name>`` or ``<name>.<anything>``; ``<name>.calls`` counts the spans
called exactly ``<name>``.  The layer of a span is the module, the first
component of its name.

The disk and line rules are wrapped at their private helpers,
``quadrature._disk_integral`` and ``quadrature._line_integral``: only
there is every field evaluation and refinement of a rule visible.  A name
that a refactor removes is listed in ``missing`` and its metrics read 0.

Field points are counted wherever a field is evaluated, so the points of a
``radial_kernel`` call made inside an extended field count for both
``wigner.field`` and ``extended.field``.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

VERIFY_CHECKS = (
    "stationary_normalization", "extended_normalization", "marginal_identities",
    "energy_spectrum", "laguerre_moment_identity", "transform_oracle_agreement",
    "node_antinode_structure", "snapshot_identities", "positivity_edge",
    "residual_discrimination", "solver_convergence", "running_wave_rejection",
    "moyal_degeneration",
)

LAYERS = ("special", "oscillator", "wigner", "extended", "quadrature", "evolution",
          "gridio", "verify", "cli")


class _Args:
    """Positional-or-keyword argument lookup by name, resolved once per function."""

    def __init__(self, fn):
        params = list(inspect.signature(fn).parameters)
        self.index = {name: i for i, name in enumerate(params)}

    def get(self, args, kwargs, name, default=None):
        i = self.index.get(name)
        if i is not None and i < len(args):
            return args[i]
        return kwargs.get(name, default)

    def replace(self, args, kwargs, name, value):
        i = self.index[name]
        if i < len(args):
            return args[:i] + (value,) + args[i + 1:], kwargs
        return args, {**kwargs, name: value}


def _size(*arrays) -> int:
    return int(np.broadcast(*arrays).size)


class Tracer:
    """Records spans while its patches are installed."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, iteration, counts]
        self.iteration = -1
        self.missing = []
        self._stack = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def wrap(self, fn, name, before=None, after=None):
        """Return ``fn`` recording one span per call.

        ``name`` is a string or a function of (args, kwargs).  ``before(counts,
        args, kwargs)`` may return replacement (args, kwargs); ``after(counts,
        args, kwargs, result)`` may return a replacement result.  Both run
        outside the span's own interval.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts = {}
            if before is not None:
                replaced = before(counts, args, kwargs)
                if replaced is not None:
                    args, kwargs = replaced
            rec = [name(args, kwargs) if callable(name) else name, 0.0, 0.0,
                   stack[-1] if stack else -1, self.iteration, counts]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                replaced = after(counts, args, kwargs, out)
                if replaced is not None:
                    out = replaced
            return out

        return traced

    # -- patching ----------------------------------------------------------

    def _patch_function(self, module, attr, make):
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        wrapper = make(original)
        for mod in [m for k, m in sys.modules.items() if k == "phasewave" or k.startswith("phasewave.")]:
            space = vars(mod)
            for key, value in list(space.items()):
                if value is original:
                    self._undo.append((space, key, value))
                    space[key] = wrapper
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if v is original:
                            self._undo.append((value, k, v))
                            value[k] = wrapper
                        elif isinstance(v, tuple) and any(e is original for e in v):
                            self._undo.append((value, k, v))
                            value[k] = tuple(wrapper if e is original else e for e in v)

    def _patch_method(self, module, cls_name, make):
        cls = getattr(module, cls_name, None)
        if cls is None or "__call__" not in vars(cls):
            self.missing.append(f"{module.__name__}.{cls_name}.__call__")
            return
        original = vars(cls)["__call__"]
        self._undo.append((cls, "__call__", original))
        setattr(cls, "__call__", make(original))

    def install(self):
        import phasewave.cli
        import phasewave.evolution as evolution
        import phasewave.extended as extended
        import phasewave.gridio as gridio
        import phasewave.oscillator as oscillator
        import phasewave.quadrature as quadrature
        import phasewave.special as special
        import phasewave.verify as verify
        import phasewave.wigner as wigner

        def plain(name, before=None, after=None):
            return lambda fn: self.wrap(fn, name, before, after)

        def with_points(span, *names):
            def make(fn):
                a = _Args(fn)

                def before(counts, args, kwargs):
                    counts["points"] = _size(*(a.get(args, kwargs, n, 0.0) for n in names))
                return self.wrap(fn, span, before)
            return make

        def one_point(span):
            def before(counts, args, kwargs):
                counts["points"] = 1
            return plain(span, before)

        def laguerre(fn):
            a = _Args(fn)

            def before(counts, args, kwargs):
                counts["elem_steps"] = _size(a.get(args, kwargs, "x")) * int(a.get(args, kwargs, "n"))
            return self.wrap(fn, "special.laguerre", before)

        def disk(fn):
            a = _Args(fn)

            def before(counts, args, kwargs):
                W = a.get(args, kwargs, "W")
                counts.update(field_calls=0, field_points=0)

                def counted(x, p, *rest, **kw):
                    counts["field_calls"] += 1
                    counts["field_points"] += _size(x, p)
                    return W(x, p, *rest, **kw)
                return a.replace(args, kwargs, "W", counted)

            def after(counts, args, kwargs, out):
                counts["refined"] = int(counts["field_calls"] > 2)
            return self.wrap(fn, "quadrature.disk", before, after)

        def line(fn):
            a = _Args(fn)

            def before(counts, args, kwargs):
                f = a.get(args, kwargs, "f")
                counts["field_calls"] = 0

                def counted(xs):
                    counts["field_calls"] += 1
                    return f(xs)
                # The transform's integrand is wigner-layer arithmetic around
                # the eigenfunctions; give it its own span in that layer.
                if a.get(args, kwargs, "label") == "wigner_from_wavefunction":
                    counted = self.wrap(counted, "wigner.wigner_from_wavefunction.integrand")
                return a.replace(args, kwargs, "f", counted)

            def after(counts, args, kwargs, out):
                counts["refined"] = int(counts["field_calls"] > 1)
            return self.wrap(fn, "quadrature.line", before, after)

        def evolve_fd(fn):
            def after(counts, args, kwargs, out):
                counts["steps"] = int(out.meta["steps"])
                counts["cell_updates"] = counts["steps"] * int(out.values.size)
            return self.wrap(fn, "evolution.evolve_fd", after=after)

        def propagate_exact(fn):
            def after(counts, args, kwargs, out):
                return self.wrap(out, "evolution.propagate_exact.snapshot")
            return self.wrap(fn, "evolution.propagate_exact", after=after)

        def sample_field(fn):
            a = _Args(fn)

            def before(counts, args, kwargs):
                grid = a.get(args, kwargs, "grid")
                counts["nodes"] = int(grid.n_rho) * int(grid.n_phi)
            return self.wrap(fn, "gridio.sample_field", before)

        def export_field(fn):
            a = _Args(fn)

            def after(counts, args, kwargs, out):
                counts["bytes"] = os.path.getsize(out)
            return self.wrap(fn, lambda args, kwargs: f"gridio.export_field.{a.get(args, kwargs, 'fmt')}",
                             after=after)

        def read_field(fn):
            a = _Args(fn)

            def fmt(args, kwargs):
                return "json" if os.fspath(a.get(args, kwargs, "path")).endswith(".json") else "csv"

            def before(counts, args, kwargs):
                counts["bytes"] = os.path.getsize(a.get(args, kwargs, "path"))
            return self.wrap(fn, lambda args, kwargs: f"gridio.read_field.{fmt(args, kwargs)}", before)

        functions = [
            (special, "laguerre", laguerre),
            (special, "hermite", plain("special.hermite")),
            (oscillator, "polar_from_xy", with_points("oscillator.polar_from_xy", "x", "p")),
            (oscillator, "xy_from_polar", plain("oscillator.xy_from_polar")),
            (wigner, "radial_kernel", with_points("wigner.field", "rho")),
            (wigner, "wigner_stationary", one_point("wigner.field")),
            (wigner, "wigner_from_wavefunction", plain("wigner.wigner_from_wavefunction")),
            (extended, "standing_wave_eval", one_point("extended.field")),
            (extended, "extended_eval", one_point("extended.field")),
            (extended, "normalization", plain("extended.normalization")),
            (quadrature, "_disk_integral", disk),
            (quadrature, "_line_integral", line),
            (evolution, "evolve_fd", evolve_fd),
            (evolution, "propagate_exact", propagate_exact),
            (evolution, "wave_residual", plain("evolution.residual")),
            (evolution, "transport_residual", plain("evolution.residual")),
            (gridio, "sample_field", sample_field),
            (gridio, "export_field", export_field),
            (gridio, "read_field", read_field),
            (phasewave.cli, "main", plain("cli")),
        ] + [(verify, f"check_{c}", plain(f"verify.{c}")) for c in VERIFY_CHECKS]
        methods = [
            (wigner, "StationaryWigner", with_points("wigner.field", "x", "p")),
            (extended, "StandingWaveWigner", with_points("extended.field", "x", "p")),
            (extended, "ExtendedWigner", with_points("extended.field", "x", "p")),
        ]
        try:
            for module, attr, make in functions:
                self._patch_function(module, attr, make)
            for module, cls_name, make in methods:
                self._patch_method(module, cls_name, make)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._undo:
            owner, key, value = self._undo.pop()
            if isinstance(owner, type):
                setattr(owner, key, value)
            else:
                owner[key] = value

    # -- aggregation -------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the durations of direct children."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _, _), c in zip(self.spans, child)]

    def totals(self):
        """Sums over all spans: self time, call count and counts, keyed by span name."""
        self_s = defaultdict(float)
        calls = defaultdict(int)
        counts = defaultdict(int)
        for rec, s in zip(self.spans, self.self_times()):
            name = rec[0]
            self_s[name] += s
            calls[name] += 1
            for key, value in rec[5].items():
                counts[f"{name}.{key}"] += value
        return self_s, calls, counts

    def dump(self, path):
        """Write every span as one JSON line: name, start, end, parent, iteration, counts."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="ascii") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


def _sum_prefix(table, name):
    return sum(v for k, v in table.items() if k == name or k.startswith(name + "."))


def layer_metrics():
    """Per-layer metrics: name -> (unit, function of the totals ``Tracer.totals`` returns)."""
    m = {}

    def self_time(name):
        m[f"{name}.s"] = ("s", lambda t: _sum_prefix(t[0], name))

    def calls(name):
        m[f"{name}.calls"] = ("count", lambda t: t[1].get(name, 0))

    def count(name, key):
        m[f"{name}.{key}"] = ("count", lambda t: t[2].get(f"{name}.{key}", 0))

    for name in ("special.laguerre", "special.hermite"):
        calls(name)
        self_time(name)
    count("special.laguerre", "elem_steps")
    self_time("oscillator.polar_from_xy")
    count("oscillator.polar_from_xy", "points")
    self_time("oscillator.xy_from_polar")
    for name in ("wigner.field", "extended.field"):
        self_time(name)
        count(name, "points")
    self_time("wigner.wigner_from_wavefunction")
    self_time("extended.normalization")
    calls("quadrature.disk")
    self_time("quadrature.disk")
    count("quadrature.disk", "field_points")
    count("quadrature.disk", "refined")
    calls("quadrature.line")
    self_time("quadrature.line")
    count("quadrature.line", "field_calls")
    count("quadrature.line", "refined")
    calls("evolution.evolve_fd")
    self_time("evolution.evolve_fd")
    count("evolution.evolve_fd", "steps")
    count("evolution.evolve_fd", "cell_updates")
    self_time("evolution.propagate_exact")
    self_time("evolution.residual")
    self_time("gridio.sample_field")
    count("gridio.sample_field", "nodes")
    for op in ("export_field", "read_field"):
        for fmt in ("csv", "json"):
            self_time(f"gridio.{op}.{fmt}")
            m[f"gridio.{op}.{fmt}.bytes"] = (
                "B", lambda t, k=f"gridio.{op}.{fmt}.bytes": t[2].get(k, 0))
    for check in VERIFY_CHECKS:
        self_time(f"verify.{check}")
    self_time("cli")
    return m
