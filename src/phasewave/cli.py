"""Command-line surface: evaluate, sample, verify, evolve, inspect geometry.

Every run is deterministic: identical configurations produce byte-identical
artifacts.  Exit status is 0 on success, 1 when a requested check fails
or a run cannot finish (an accuracy shortfall, a blowup, an i/o error or
too little memory), 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import verify
from .errors import AccuracyError, BlowupError, _real
from .evolution import Field2D, GridSpec, _evolve_against_exact
from .extended import StandingWaveSpec, antinode_angles, node_angles, standing_wave_field
from .gridio import export_field, sample_field
from .oscillator import NATURAL_UNITS, OscillatorParams
from .wigner import stationary_field

_TIME_RE = re.compile(r"^([0-9]*\.?[0-9]*)\s*T\s*(?:/\s*([0-9]*\.?[0-9]+))?$")


def parse_time(token: str, period: float | None):
    """Parse '0.25', 'T', 'T/4' or '3T/4'; fractions of T need a known period.

    Raises ``ValueError`` unless the time is finite.
    """
    token = token.strip()
    m = _TIME_RE.match(token)
    if m:
        if period is None:
            raise ValueError(f"time {token!r} uses the wave period; --ell is required")
        num = float(m.group(1)) if m.group(1) else 1.0
        den = float(m.group(2)) if m.group(2) else 1.0
        if den == 0.0:
            raise ValueError(f"time {token!r} divides by zero")
        value = num * period / den
    else:
        value = float(token)
    if not math.isfinite(value):
        raise ValueError(f"time {token!r} is not finite")
    return value


def _params(args) -> OscillatorParams:
    return OscillatorParams(m=args.m, omega=args.omega, hbar=args.hbar, alpha=args.alpha)


def _spec(args) -> StandingWaveSpec | None:
    return None if args.ell is None else StandingWaveSpec(ell=args.ell, A=args.A, C=args.C)


def _field(args, params):
    spec = _spec(args)
    if spec is None:
        return stationary_field(params, args.n)
    return standing_wave_field(params, args.n, spec)


def _times(args, params) -> list:
    """The comma-separated ``--t`` values; fractions of T use the standing wave's period.

    Raises ``ValueError`` when ``--t`` lists no time.
    """
    spec = _spec(args)
    period = spec.period(params.omega) if spec is not None else None
    times = [parse_time(tok, period) for tok in args.t.split(",") if tok.strip()]
    if not times:
        raise ValueError(f"--t {args.t!r} lists no time")
    return times


def _out_dir(args) -> str:
    return args.out or os.environ.get("PHASEWAVE_OUT") or "."


def _export_format(args) -> str:
    """Format of exported files: ``--format``, else the output's extension, else csv.

    Raises ``ValueError`` when ``--format`` contradicts a .csv or .json output path.
    """
    ext = os.path.splitext(_out_dir(args))[1].lower().lstrip(".")
    if ext not in ("csv", "json"):
        return args.fmt or "csv"
    if args.fmt not in (None, ext):
        raise ValueError(f"--format {args.fmt} contradicts the output path {_out_dir(args)!r}")
    return ext


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="phasewave",
        description="Harmonic-oscillator Wigner functions in phase space: "
                    "evaluation, polar-grid sampling, verification, and advection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state(sp):
        sp.add_argument("--n", type=int, default=0, help="eigenstate index (default 0)")
        sp.add_argument("--ell", type=int, default=None,
                        help="standing-wave index; omit for the stationary state")
        sp.add_argument("--A", type=float, default=2.0, help="wave amplitude (default 2)")
        sp.add_argument("--C", type=float, default=5.0, help="wave offset (default 5)")
        sp.add_argument("--m", type=float, default=1.0)
        sp.add_argument("--omega", type=float, default=1.0)
        sp.add_argument("--hbar", type=float, default=1.0)
        sp.add_argument("--alpha", type=float, default=0.0)

    def add_grid(sp):
        sp.add_argument("--rho-max", type=float, default=4.5, dest="rho_max")
        sp.add_argument("--n-rho", type=int, default=64, dest="n_rho")
        sp.add_argument("--n-phi", type=int, default=128, dest="n_phi")

    def add_io(sp):
        sp.add_argument("--dt", type=float, default=None,
                        help="time step; default 0.5*delta_phi/omega")
        sp.add_argument("--t", default="0", help="comma-separated times; accepts T/4 etc.")
        sp.add_argument("--format", choices=("csv", "json"), default=None, dest="fmt",
                        help="file format; default from the --out extension, else csv")
        sp.add_argument("--out", default=None, help="output file or directory")

    sp = sub.add_parser("eval", help="evaluate W at a phase point")
    add_state(sp)
    sp.add_argument("--x", type=float, default=0.0)
    sp.add_argument("--p", type=float, default=0.0)
    sp.add_argument("--t", default="0")
    sp.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")

    sp = sub.add_parser("grid", help="sample W on a polar grid and export")
    add_state(sp)
    add_grid(sp)
    add_io(sp)

    sp = sub.add_parser("check", help="run verification suites")
    sp.add_argument("--suite", default="all",
                    help="suite name or 'all' (known: %s)" % ", ".join(verify.SUITES))
    sp.add_argument("--tol", type=float, default=None,
                    help="override the absolute tolerance of every check that takes one")
    sp.add_argument("--out", default=None, help="write the JSON report here")

    sp = sub.add_parser("evolve", help="advect a sampled field and compare to the exact rotation")
    add_state(sp)
    add_grid(sp)
    add_io(sp)

    sp = sub.add_parser("nodes", help="print node and antinode angles")
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--format", choices=("csv", "json"), default="csv", dest="fmt")

    sp = sub.add_parser("figures", help="export the six standing-wave demonstration grids")
    add_grid(sp)
    sp.add_argument("--format", choices=("csv", "json"), default=None, dest="fmt",
                    help="file format; default from the --out extension, else csv")
    sp.add_argument("--out", default=None, help="output directory")

    return parser


def _grid(args, params: OscillatorParams) -> GridSpec:
    dt = args.dt
    if dt is None:
        dt = 0.5 * (2.0 * math.pi / args.n_phi) / params.omega
    return GridSpec(rho_max=args.rho_max, n_rho=args.n_rho, n_phi=args.n_phi, dt=dt)


def _extra_meta(args) -> dict:
    extra = {"n": args.n}
    if args.ell is not None:
        extra.update(ell=args.ell, A=args.A, C=args.C)
    return extra


def _export(args, fmt: str, fld, params, extra: dict, stem: str, tag: str | None = None):
    """Export ``fld`` as ``<stem>.<fmt>`` inside the output directory and print its path.

    An output path ending in .csv or .json names the file itself; ``tag``,
    given when a command writes several files, goes before its extension.
    """
    out = _out_dir(args)
    root, ext = os.path.splitext(out)
    if ext.lower() in (".csv", ".json"):
        path = f"{root}_{tag}{ext}" if tag else out
    else:
        path = os.path.join(out, f"{stem}.{fmt}")
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    export_field(fld, params, fmt, path, extra=extra)
    print(path)


def _cmd_eval(args) -> int:
    params = _params(args)
    W = _field(args, params)
    x, p = _real(args.x, "x"), _real(args.p, "p")
    times = _times(args, params)
    values = [float(W(x, p, t)) for t in times]
    if args.fmt == "json":
        print(json.dumps({"x": args.x, "p": args.p, "t": times, "W": values}))
    else:
        print("t,W")
        for t, v in zip(times, values):
            print(f"{t:.17g},{v:.17g}")
    return 0


def _cmd_grid(args) -> int:
    fmt = _export_format(args)
    params = _params(args)
    W = _field(args, params)
    grid = _grid(args, params)
    times = _times(args, params)
    multi = len(times) > 1
    for idx, t in enumerate(times):
        tag = f"t{idx}" if multi else None
        _export(args, fmt, sample_field(W, grid, t, params), params, _extra_meta(args),
                f"field_{tag}" if multi else "field", tag)
    return 0


def _cmd_check(args) -> int:
    names = tuple(tok.strip() for tok in args.suite.split(",") if tok.strip())
    report = verify.run_suite(names, tol_override=args.tol)
    for line in report.lines():
        print(line)
    if args.out:
        os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
        with open(args.out, "w", encoding="ascii") as fh:
            json.dump(report.to_dict(), fh, indent=1)
            fh.write("\n")
        print(f"report written to {args.out}")
    return 0 if report.passed else 1


def _cmd_evolve(args) -> int:
    """Evolve the sampled field to each ``--t`` and print max|fd-exact|; export it with ``--out``.

    Each time's line is printed before the next time starts.  The lines
    come from one stream, ``_evolve_against_exact``, of one block of rings
    at a time: sampled at t = 0, advanced and compared with the exact
    rotation.  Without ``--out`` every block of every time reuses the same
    three block buffers, made once, and no grid-sized array is held: at
    1024 x 4096 the command peaks at about 33 MB of resident memory, its
    import included.  With ``--out`` the same stream samples and steps its
    blocks in one grid, which after each time's line holds that time's
    evolved field and is exported before the next time samples over it,
    so the command holds one grid and two blocks.
    """
    fmt = _export_format(args)
    params = _params(args)
    W = _field(args, params)
    grid = _grid(args, params)
    times = _times(args, params)
    values = np.empty((grid.n_rho, grid.n_phi)) if args.out else None
    runs = _evolve_against_exact(W, grid, params, times, values)
    for idx, (t, (steps, err)) in enumerate(zip(times, runs)):
        print("t={:.17g} steps={} max|fd-exact|={:.6e}".format(t, steps, err))
        if args.out:
            _export(args, fmt, Field2D(grid, values, t), params, _extra_meta(args),
                    f"evolved_t{idx}", f"t{idx}" if len(times) > 1 else None)
    return 0


def _cmd_nodes(args) -> int:
    spec = StandingWaveSpec(ell=args.ell, A=0.0, C=1.0)  # the angles depend on ell alone
    nodes = [float(v) for v in node_angles(spec)]
    anti = [float(v) for v in antinode_angles(spec)]
    if args.fmt == "json":
        print(json.dumps({"ell": args.ell, "nodes": nodes, "antinodes": anti}))
    else:
        print("nodes: " + " ".join(f"{v:.17g}" for v in nodes))
        print("antinodes: " + " ".join(f"{v:.17g}" for v in anti))
    return 0


def _cmd_figures(args) -> int:
    fmt = _export_format(args)
    spec = StandingWaveSpec(ell=3, A=2.0, C=5.0)
    grid = GridSpec(rho_max=args.rho_max, n_rho=args.n_rho, n_phi=args.n_phi)
    period = spec.period(NATURAL_UNITS.omega)
    for n in (0, 5):
        W = standing_wave_field(NATURAL_UNITS, n, spec)
        for tag, t in (("0", 0.0), ("T4", period / 4.0), ("T2", period / 2.0)):
            _export(args, fmt, sample_field(W, grid, t, NATURAL_UNITS), NATURAL_UNITS,
                    {"n": n, "ell": 3, "A": 2.0, "C": 5.0}, f"wigner_n{n}_t{tag}", f"n{n}_t{tag}")
    return 0


_COMMANDS = {
    "eval": _cmd_eval,
    "grid": _cmd_grid,
    "check": _cmd_check,
    "evolve": _cmd_evolve,
    "nodes": _cmd_nodes,
    "figures": _cmd_figures,
}


def run(args: argparse.Namespace) -> int:
    """Run the command of the parsed arguments; returns the process exit status."""
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"phasewave: error: {exc}", file=sys.stderr)
        return 2
    except AccuracyError as exc:
        print(f"phasewave: accuracy error: {exc}", file=sys.stderr)
        return 1
    except BlowupError as exc:
        print(f"phasewave: blowup: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"phasewave: i/o error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("phasewave: out of memory:", str(exc) or "the request does not fit", file=sys.stderr)
        return 1


def main(argv=None) -> None:
    sys.exit(run(build_parser().parse_args(argv)))


if __name__ == "__main__":
    main()
