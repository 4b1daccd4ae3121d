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
import re

import numpy as np

from .errors import DataError, _scalar_kind
from .evolution import Field2D, GridSpec, _finite_nodes, _ring_blocks
from .oscillator import OscillatorParams, _polar_grid, xy_from_polar

#: Fixed key order of the self-describing parameter block.
_META_KEYS = ("n", "ell", "A", "C", "m", "omega", "hbar", "alpha", "t",
              "rho_max", "n_rho", "n_phi", "dt")
#: The keys of the block that fix the polar map, and so the x and p columns.
_PARAM_KEYS = ("m", "omega", "hbar", "alpha")


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
    _finite_nodes(vals, rho, phi)
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
    """Parse the parameter block and header line by line, the body a block at a time.

    The body goes to ``np.loadtxt`` one block of ``_ring_blocks`` (sized
    in table values, five per node) at a time, from the same line iterator,
    with blank lines dropped; each block is checked by ``_check_block`` and
    its W column copied into the one values array, so beyond the values no
    more than one block of the table is held.  A row past the last block
    is refused with the row count.
    """
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
        params = (OscillatorParams(**{k: meta[k] for k in _PARAM_KEYS})
                  if all(k in meta for k in _PARAM_KEYS) else None)
    n_rows = grid.n_rho * grid.n_phi
    values = np.empty((grid.n_rho, grid.n_phi))
    # np.loadtxt warns on a blank line, and on an empty body, so neither reaches it
    body = filter(str.strip, lines)
    for rows in _ring_blocks(grid, 5):
        first = rows.start * grid.n_phi
        head = next(body, None)
        if head is None:
            raise DataError(f"CSV field file {path} has {first} rows, expected {n_rows}")
        size = (rows.stop - rows.start) * grid.n_phi
        # comments=None: a '#' line in the body is a malformed row, not metadata.
        try:
            block = np.loadtxt(itertools.chain([head], body), delimiter=",", ndmin=2,
                               comments=None, max_rows=size)
        except ValueError as exc:
            # numpy counts rows within the block; offset, they count in the body, as a
            # parse of the whole body would
            msg = re.sub(r"at row (\d+)", lambda m: f"at row {first + int(m[1])}", str(exc))
            raise DataError(f"CSV field file {path} has a malformed row: {msg}") from None
        if block.shape[1] != 5:
            raise DataError(f"CSV field file {path} has {block.shape[1]} columns, expected 5")
        if len(block) != size:
            raise DataError(f"CSV field file {path} has {first + len(block)} rows, "
                            f"expected {n_rows}")
        _check_block(block.reshape(-1, grid.n_phi, 5), rows, grid, params, path)
        values[rows] = block[:, 4].reshape(-1, grid.n_phi)
    extra = sum(1 for _ in body)
    if extra:
        raise DataError(f"CSV field file {path} has {n_rows + extra} rows, expected {n_rows}")
    with _checks_of(path):
        return Field2D(grid=grid, values=values, time_tag=meta["t"]), meta


def _check_block(block, rows, grid: GridSpec, params, path: str) -> None:
    """Check one block of rings, its rows shaped (rings, n_phi, 5), against its nodes.

    W must be finite, checked first.  Values are placed by row order, so
    each row must sit at its own node: its rho and phi, and, when
    ``params`` is known, its x and p through the writer's own map, match
    exactly, as exported decimals round-trip.
    """
    rho, phi = grid.rho_nodes(), grid.phi_nodes()
    with _checks_of(path):
        _finite_nodes(block[..., 4], rho, phi, rows.start)
    radii = rho[rows, None]
    pairs = [(("rho", "phi"), np.broadcast_arrays(radii, phi))]
    if params is not None:
        pairs.append((("x", "p"), xy_from_polar(params, radii, phi)))
    for k, (names, node) in enumerate(pairs):
        got = block[..., 2 * k], block[..., 2 * k + 1]
        bad = (got[0] != node[0]) | (got[1] != node[1])
        if bad.any():
            i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
            has, want = (", ".join(f"{name}={float(v[i, j])!r}" for name, v in zip(names, vs))
                         for vs in (got, node))
            raise DataError(f"CSV field file {path}: row {(rows.start + i) * grid.n_phi + j} "
                            f"has {has}, expected {want} at its node")


def read_field(path):
    """Parse a field written by :func:`export_field`.

    Returns ``(Field2D, metadata_dict)``; values reproduce the exported
    doubles bit-exactly in both formats.  A CSV body streams from the file
    into ``np.loadtxt`` one block of whole rings at a time: no copy of the
    whole text or table is held, only the values and one block.  A
    malformed file raises :class:`~phasewave.errors.DataError` naming it,
    and the body row at fault where there is one.  Each CSV row
    must hold its node's rho and phi exactly and, when the parameter block
    carries m, omega, hbar and alpha, the x and p that ``xy_from_polar``
    gives there; without those four keys x and p go unchecked.
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
