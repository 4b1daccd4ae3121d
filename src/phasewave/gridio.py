"""Polar-grid sampling and bit-stable CSV/JSON field export.

Exports are deterministic byte-for-byte: decimals carry 17 significant
digits so every double round-trips exactly, and row order is fixed
(rho-major, then phi).  Both formats are self-describing through a
parameter block.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os

import numpy as np

from .errors import DataError, _scalar_kind
from .evolution import Field2D, GridSpec
from .oscillator import OscillatorParams, _polar_grid, xy_from_polar

#: Fixed key order of the self-describing parameter block.
_META_KEYS = ("n", "ell", "A", "C", "m", "omega", "hbar", "alpha", "t",
              "rho_max", "n_rho", "n_phi", "dt")


def sample_field(W, grid: GridSpec, t: float, params: OscillatorParams) -> Field2D:
    """Evaluate W(x, p, t) at the polar grid nodes, rho-major.

    Every field ``W(x, p, t)`` is read through the one polar adapter and
    sampled as the outer product of its radial factor on the radii and its
    angular factor on the angles.  For a field class that is the closed form
    at each node (rho_i, phi_j); any other callable is evaluated at the
    (x, p) image of every node.  A rotation from ``propagate_exact`` always
    has ``polar_factors``, whose angular factor is such a grid when it
    turns a bare callable.  Raises :class:`~phasewave.errors.DataError`
    naming the first offending node if any sampled value is non-finite,
    and naming the time tag if ``t`` is not one finite real.
    """
    rho = grid.rho_nodes()
    phi = grid.phi_nodes()
    radial, angular = _polar_grid(W, params, rho, phi, t)
    vals = radial[:, None] * angular
    bad = ~np.isfinite(vals)
    if bad.any():
        i, j = np.unravel_index(int(np.argmax(bad)), vals.shape)
        raise DataError(
            f"non-finite value at node (i={i}, j={j}), rho={rho[i]!r}, phi={phi[j]!r}"
        )
    return Field2D(grid=grid, values=vals, time_tag=t)


def _fmt(v) -> str:
    return str(int(v)) if _scalar_kind(v, "metadata") in "iu" else f"{float(v):.17g}"


def _metadata(field: Field2D, params: OscillatorParams, extra=None) -> dict:
    meta = {
        "m": params.m, "omega": params.omega, "hbar": params.hbar,
        "alpha": params.alpha, "t": field.time_tag,
        "rho_max": field.grid.rho_max, "n_rho": field.grid.n_rho,
        "n_phi": field.grid.n_phi,
    }
    if field.grid.dt is not None:
        meta["dt"] = field.grid.dt
    if extra:
        meta.update({k: v for k, v in extra.items() if v is not None})
    return {k: meta[k] for k in _META_KEYS if k in meta}


def _write_rows(fh, field: Field2D, params: OscillatorParams) -> None:
    """Stream the CSV rows one ring at a time.

    Each ring is one ``%``-format: the rho and phi decimals repeat down the
    rows, so they are formatted once and baked into the format, and only
    x, p and W are filled in.  ``"%.17g" % v`` is the same conversion as
    :func:`_fmt` applies to a float.  x and p are formed ring by ring too,
    so the writer holds no array beyond the values larger than one ring.
    """
    rho = field.grid.rho_nodes()
    phi = field.grid.phi_nodes()
    tail = ["%.17g" % v + ",%.17g,%.17g,%.17g\n" for v in phi.tolist()]
    for i, r in enumerate(rho.tolist()):
        x, p = xy_from_polar(params, rho[i], phi)
        xpw = np.stack((x, p, field.values[i]), axis=-1)
        lead = "%.17g" % r + ","
        fh.write((lead + lead.join(tail)) % tuple(xpw.ravel().tolist()))


def export_field(field: Field2D, params: OscillatorParams, fmt: str, path,
                 extra=None) -> str:
    """Write a field to ``path`` as CSV or JSON; returns the path written.

    CSV: '#'-prefixed key=value parameter block, one ``rho,phi,x,p,W``
    header line, one row per node, streamed ring by ring.  JSON: parameter
    block plus nested value array.  ``extra`` may carry identifying keys
    (n, ell, A, C).
    """
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    meta = _metadata(field, params, extra)
    path = os.fspath(path)
    if fmt == "csv":
        head = "".join(f"# {k}={_fmt(v)}\n" for k, v in meta.items()) + "rho,phi,x,p,W\n"
    else:
        doc = {
            "kind": "phasewave-field",
            "params": meta,
            "grid": {"rho_max": field.grid.rho_max, "n_rho": field.grid.n_rho,
                     "n_phi": field.grid.n_phi, "dt": field.grid.dt},
            "time": field.time_tag,
            "values": field.values.tolist(),
        }
        # json.dumps runs the C encoder; json.dump streams through the
        # pure-Python one.  Both give the same bytes.
        head = json.dumps(doc) + "\n"
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(head)
        if fmt == "csv":
            _write_rows(fh, field, params)
    return path


def _check_time(t: float, path: str) -> None:
    if not math.isfinite(t):
        raise DataError(f"field file {path} has a non-finite time tag {t!r}")


@contextlib.contextmanager
def _checks_of(path: str):
    """Re-raise a failed GridSpec or Field2D check as a DataError naming ``path``."""
    try:
        yield
    except ValueError as exc:
        raise DataError(f"field file {path}: {exc}") from exc


def _read_json(text: str, path: str):
    try:
        doc = json.loads(text)
        g = doc["grid"]
        grid = GridSpec(rho_max=g["rho_max"], n_rho=g["n_rho"], n_phi=g["n_phi"],
                        dt=g.get("dt"))
        values = np.asarray(doc["values"], dtype=float)
        t = float(doc["time"])
        meta = dict(doc["params"])
    except (ValueError, KeyError, TypeError) as exc:
        raise DataError(f"malformed JSON field file {path}: {exc!r}") from exc
    _check_time(t, path)
    with _checks_of(path):
        return Field2D(grid=grid, values=values, time_tag=t), meta


def _read_csv(lines, path: str):
    """Parse the parameter block and header line by line, the body with np.loadtxt."""
    meta = {}
    for line in lines:
        line = line.rstrip("\n")
        if not line:
            continue
        if not line.startswith("#"):
            break
        key, _, raw = line[1:].strip().partition("=")
        key = key.strip()
        try:
            meta[key] = int(raw) if key in ("n", "ell", "n_rho", "n_phi") else float(raw)
        except ValueError:
            raise DataError(f"malformed parameter line {line!r} in {path}") from None
    else:
        raise DataError(f"CSV field file {path} has no rho,phi,x,p,W header")
    if line != "rho,phi,x,p,W":
        raise DataError(f"unexpected CSV header {line!r} in {path}")
    for key in ("rho_max", "n_rho", "n_phi", "t"):
        if key not in meta:
            raise DataError(f"CSV field file {path} lacks required metadata {key!r}")
    _check_time(meta["t"], path)
    with _checks_of(path):
        grid = GridSpec(rho_max=meta["rho_max"], n_rho=meta["n_rho"], n_phi=meta["n_phi"],
                        dt=meta.get("dt"))
    n_rows = grid.n_rho * grid.n_phi
    # np.loadtxt warns on an empty body, so the first row is taken here;
    # like np.loadtxt, it skips blank lines.
    first = next((ln for ln in lines if ln != "\n"), None)
    if first is None:
        raise DataError(f"CSV field file {path} has 0 rows, expected {n_rows}")
    # comments=None: a '#' line in the body is a malformed row, not metadata.
    try:
        data = np.loadtxt(itertools.chain([first], lines), delimiter=",", ndmin=2,
                          comments=None)
    except ValueError as exc:
        raise DataError(f"CSV field file {path} has a malformed row: {exc}") from None
    if data.shape[1] != 5:
        raise DataError(f"CSV field file {path} has {data.shape[1]} columns, expected 5")
    if data.shape[0] != n_rows:
        raise DataError(f"CSV field file {path} has {data.shape[0]} rows, expected {n_rows}")
    values = np.ascontiguousarray(data[:, 4]).reshape(grid.n_rho, grid.n_phi)
    with _checks_of(path):
        field = Field2D(grid=grid, values=values, time_tag=meta["t"])
    # Values are placed by row order, so each row must sit at its own node;
    # exported decimals round-trip, so the match is exact.
    rho = grid.rho_nodes()
    phi = grid.phi_nodes()
    shape = (grid.n_rho, grid.n_phi)
    bad = (data[:, 0].reshape(shape) != rho[:, None]) | (data[:, 1].reshape(shape) != phi)
    if bad.any():
        i = int(np.argmax(bad))
        raise DataError(
            f"CSV field file {path}: row {i} has rho={data[i, 0]!r}, phi={data[i, 1]!r}, "
            f"expected node rho={rho[i // grid.n_phi]!r}, phi={phi[i % grid.n_phi]!r}"
        )
    return field, meta


def read_field(path):
    """Parse a field written by :func:`export_field`.

    Returns ``(Field2D, metadata_dict)``; values reproduce the exported
    doubles bit-exactly in both formats.  A CSV body streams from the file
    into ``np.loadtxt``; no copy of the whole text is held.  A malformed file
    raises :class:`~phasewave.errors.DataError` naming it.
    """
    path = os.fspath(path)
    with open(path, "r", encoding="ascii") as fh:
        try:
            line = next((ln for ln in fh if ln.strip()), "")
            if line.lstrip().startswith("{"):
                return _read_json(line + fh.read(), path)
            return _read_csv(itertools.chain([line], fh), path)
        except UnicodeDecodeError as exc:
            raise DataError(f"field file {path} is not ASCII text: {exc}") from None
