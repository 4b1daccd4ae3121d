import json
import functools
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from decimal import Decimal

from oracles import (export_field_per_value, read_field_line_by_line, sample_field_whole_grid,
                     wigner_kernel_exact)
from phasewave import (NATURAL_UNITS, DataError, ExtendedWigner, Field2D, GridSpec,
                       OscillatorParams, StandingWaveSpec, StandingWaveWigner, StationaryWigner,
                       export_field, extended_field, phase_space_integral, propagate_exact,
                       radial_kernel, read_field, run_suite, running_wave_profile, sample_field,
                       standing_wave_field, stationary_field, stationary_profile)
from phasewave.evolution import _ring_blocks

P = NATURAL_UNITS
SCALED = OscillatorParams(m=1.7, omega=0.6, hbar=0.3, alpha=0.9)
SPEC = StandingWaveSpec(ell=3, A=2.0, C=5.0)


def small_grid():
    return GridSpec(rho_max=2.0, n_rho=4, n_phi=16)


def test_sample_ground_state_on_four_by_four_grid():
    grid = GridSpec(rho_max=4.0, n_rho=4, n_phi=4)
    fld = sample_field(stationary_field(P, 0), grid, 0.0, P)
    assert fld.values.shape == (4, 4)
    for i, rho in enumerate(grid.rho_nodes()):
        expected = (1.0 / math.pi) * math.exp(-rho**2)
        assert fld.values[i] == pytest.approx(np.full(4, expected), rel=1e-12)
        assert float(radial_kernel(P, 0, rho)) == pytest.approx(expected, rel=1e-14)


def test_sampling_is_deterministic():
    grid = small_grid()
    W = standing_wave_field(P, 5, SPEC)
    a = sample_field(W, grid, 0.37, P)
    b = sample_field(W, grid, 0.37, P)
    assert np.array_equal(a.values, b.values)


def test_standing_wave_at_quarter_period_equals_stationary_sample():
    grid = small_grid()
    T = SPEC.period(P.omega)
    a = sample_field(standing_wave_field(P, 1, SPEC), grid, T / 4.0, P)
    b = sample_field(stationary_field(P, 1), grid, T / 4.0, P)
    assert np.max(np.abs(a.values - b.values)) <= 1e-12


@pytest.mark.parametrize("grid, rings", [
    (GridSpec(rho_max=2.0, n_rho=1, n_phi=16), [1]),
    (GridSpec(rho_max=4.0, n_rho=100, n_phi=1024), [64, 36]),
    (GridSpec(rho_max=2.0, n_rho=2, n_phi=2**17), [1, 1]),
], ids=["one-ring", "partial-last-block", "ring-longer-than-a-block"])
def test_sample_field_fills_the_whole_grid_product_block_by_block(grid, rings):
    assert [r.stop - r.start for r in _ring_blocks(grid)] == rings
    W = standing_wave_field(SCALED, 5, SPEC)
    bare = lambda x, p, t: W(x, p, t)
    # a field class, a bare callable, and a rotation of one, whose angular factor is a grid
    for field in (W, bare, propagate_exact(bare, SCALED, 0.8)):
        got = sample_field(field, grid, 0.37, SCALED).values
        assert got.tobytes() == sample_field_whole_grid(field, grid, 0.37, SCALED).tobytes()


@pytest.mark.parametrize("bare, grids", [(False, 1.2), (True, 5.0)],
                         ids=["field-class", "bare-callable"])
def test_sample_field_holds_the_values_and_one_block(traced_peak, bare, grids):
    # the values are allocated once and each block is written into them in place;
    # a bare callable's x, p and temporaries span one block
    grid = GridSpec(rho_max=4.5, n_rho=256, n_phi=1024)
    W = standing_wave_field(P, 5, SPEC)
    field = (lambda x, p, t: W(x, p, t)) if bare else W
    peak = traced_peak(lambda: sample_field(field, grid, 0.3, P))
    one_grid = grid.n_rho * grid.n_phi * 8
    assert peak < grids * one_grid, f"{peak / one_grid:.2f} grids"


def test_nonfinite_sample_names_the_node():
    def broken(x, p, t):
        vals = np.asarray(x, dtype=float) * 0.0
        return np.where(np.asarray(p) > 1.0, np.nan, vals)

    with pytest.raises(DataError, match=r"i=\d+, j=\d+"):
        sample_field(broken, small_grid(), 0.0, P)


def test_csv_export_line_budget(tmp_path):
    grid = GridSpec(rho_max=2.0, n_rho=2, n_phi=2)
    fld = sample_field(stationary_field(P, 0), grid, 0.0, P)
    path = export_field(fld, P, "csv", tmp_path / "f.csv", extra={"n": 0})
    lines = [ln for ln in open(path).read().splitlines() if ln and not ln.startswith("#")]
    assert lines[0] == "rho,phi,x,p,W"
    assert len(lines) == 1 + 4


def test_csv_round_trip_bit_exact(tmp_path):
    grid = small_grid()
    fld = sample_field(standing_wave_field(P, 5, SPEC), grid, 0.21, P)
    path = export_field(fld, P, "csv", tmp_path / "w.csv",
                        extra={"n": 5, "ell": 3, "A": 2.0, "C": 5.0})
    back, meta = read_field(path)
    assert np.array_equal(back.values, fld.values)
    assert back.grid == fld.grid
    assert back.time_tag == fld.time_tag
    assert meta["ell"] == 3 and meta["A"] == 2.0 and meta["C"] == 5.0


def test_json_round_trip_bit_exact(tmp_path):
    grid = small_grid()
    fld = sample_field(standing_wave_field(P, 0, SPEC), grid, 0.11, P)
    path = export_field(fld, P, "json", tmp_path / "w.json",
                        extra={"n": 0, "ell": 3, "A": 2.0, "C": 5.0})
    back, meta = read_field(path)
    assert np.array_equal(back.values, fld.values)
    assert back.grid == fld.grid
    assert back.time_tag == fld.time_tag
    assert meta["ell"] == 3 and meta["A"] == 2.0 and meta["C"] == 5.0
    doc = json.loads(open(path).read())
    assert doc["kind"] == "phasewave-field"
    assert doc["params"]["m"] == 1.0


def test_export_rejects_unknown_format(tmp_path):
    fld = sample_field(stationary_field(P, 0), small_grid(), 0.0, P)
    with pytest.raises(ValueError):
        export_field(fld, P, "xml", tmp_path / "w.xml")


@pytest.mark.parametrize("extra, error, match", [
    ({"t": 5.0}, DataError, "^extra may carry only n, ell, A and C, got 't'$"),
    ({"n_rho": 3}, DataError, "got 'n_rho'$"),
    ({"omega": 2.0}, DataError, "got 'omega'$"),
    ({"n": 2.5}, DataError, "^n must be an integer"),
    ({"n": True}, DataError, "^n must be an integer"),
    ({"ell": "x"}, DataError, "^ell must be an integer"),
    ({"A": math.nan}, DataError, "^A must be finite"),
    ({"C": True}, DataError, "^C must be finite"),
    ({"C": "x"}, TypeError, "^C must be real"),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_export_refuses_extra_metadata_it_could_not_read_back(tmp_path, extra, error, match, fmt):
    # the field's own keys come from the field and the params, never from extra
    fld = sample_field(stationary_field(P, 0), GridSpec(rho_max=2.0, n_rho=2, n_phi=4), 0.0, P)
    path = tmp_path / f"f.{fmt}"
    with pytest.raises(error, match=match):
        export_field(fld, P, fmt, path, extra=extra)
    assert not path.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_export_writes_numpy_extra_metadata_as_numbers_and_skips_none(tmp_path, fmt):
    fld = sample_field(stationary_field(P, 0), GridSpec(rho_max=2.0, n_rho=2, n_phi=4), 0.0, P)
    extra = {"n": np.int64(2), "ell": None, "A": np.float64(0.5), "C": 1}
    _, meta = read_field(export_field(fld, P, fmt, tmp_path / f"f.{fmt}", extra=extra))
    assert {k: meta.get(k) for k in extra} == {"n": 2, "ell": None, "A": 0.5, "C": 1.0}
    assert type(meta["n"]) is int and type(meta["C"]) is float


def test_export_is_byte_identical_across_runs(tmp_path):
    grid = small_grid()
    fld = sample_field(standing_wave_field(P, 5, SPEC), grid, 0.37, P)
    p1 = export_field(fld, P, "csv", tmp_path / "a.csv", extra={"n": 5})
    p2 = export_field(fld, P, "csv", tmp_path / "b.csv", extra={"n": 5})
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_csv_export_holds_less_than_half_the_values(traced_peak, tmp_path):
    # x, p and the formatted text are made ring by ring, never for the whole grid
    grid = GridSpec(rho_max=4.5, n_rho=128, n_phi=512)
    fld = sample_field(standing_wave_field(P, 5, SPEC), grid, 0.3, P)
    peak = traced_peak(lambda: export_field(fld, P, "csv", tmp_path / "f.csv"))
    assert peak < fld.values.nbytes / 2, f"{peak / fld.values.nbytes:.2f} grids"


def test_read_field_missing_metadata(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("rho,phi,x,p,W\n1,0,1,0,0.3\n")
    with pytest.raises(ValueError, match="metadata"):
        read_field(path)


# Doubles at the edges of the format: signed zero, the smallest subnormal,
# a tiny normal and the largest finite magnitudes.
EDGE_VALUES = (-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1.7976931348623157e308,
               -1.7976931348623157e308)
_positive = st.floats(0.05, 20.0)


@st.composite
def exported_fields(draw):
    n_rho = draw(st.integers(1, 5))
    n_phi = draw(st.integers(2, 9))
    dt = draw(st.one_of(st.none(), st.floats(1e-6, 1.0)))
    grid = GridSpec(rho_max=draw(_positive), n_rho=n_rho, n_phi=n_phi, dt=dt)
    params = OscillatorParams(m=draw(_positive), omega=draw(_positive), hbar=draw(_positive),
                              alpha=draw(st.floats(-10.0, 10.0)))
    value = st.one_of(st.sampled_from(EDGE_VALUES),
                      st.floats(allow_nan=False, allow_infinity=False))
    values = np.array(draw(st.lists(value, min_size=n_rho * n_phi, max_size=n_rho * n_phi)),
                      dtype=float).reshape(n_rho, n_phi)
    t = draw(st.one_of(st.sampled_from(EDGE_VALUES), st.floats(-1e6, 1e6)))
    extra = draw(st.sampled_from((None, {"n": 7, "ell": 3, "A": 2.5, "C": -0.125})))
    return Field2D(grid=grid, values=values, time_tag=t), params, extra


@given(exported_fields(), st.sampled_from(("csv", "json")))
def test_export_matches_per_value_oracle(case, fmt):
    fld, params, extra = case
    with tempfile.TemporaryDirectory() as tmp:
        ours = export_field(fld, params, fmt, Path(tmp) / f"a.{fmt}", extra=extra)
        oracle = Path(tmp) / f"b.{fmt}"
        export_field_per_value(fld, params, fmt, oracle, extra=extra)
        assert open(ours, "rb").read() == oracle.read_bytes()
        back, meta = read_field(ours)
        values, t, oracle_meta = read_field_line_by_line(oracle)
    assert back.values.tobytes() == values.tobytes()
    assert back.values.tobytes() == fld.values.tobytes()
    assert math.copysign(1.0, back.time_tag) == math.copysign(1.0, t)
    assert back.time_tag == t == fld.time_tag
    assert meta == oracle_meta
    assert back.grid == fld.grid


#: A grid whose CSV body the reader takes in three blocks of rings, 2, 2 and 1.
BLOCKED = GridSpec(rho_max=2.0, n_rho=5, n_phi=4400)
#: The first body row of the last block, and the rows in all.
LAST, ROWS = 4 * 4400, 5 * 4400
PHI = BLOCKED.phi_nodes()


@functools.cache
def _valid_lines():
    fld = sample_field(standing_wave_field(P, 5, SPEC), BLOCKED, 0.21, P)
    with tempfile.TemporaryDirectory() as tmp:
        path = export_field(fld, P, "csv", Path(tmp) / "w.csv", extra={"n": 5})
        return fld, tuple(Path(path).read_text().splitlines(keepends=True))


def _valid_csv():
    fld, lines = _valid_lines()
    return fld, list(lines)


def _header_index(lines):
    return lines.index("rho,phi,x,p,W\n")


def test_csv_with_crlf_and_blank_lines_reads_bit_exact(tmp_path):
    fld, lines = _valid_csv()
    h = _header_index(lines)
    text = "\n" + "".join(lines[:h]) + "\n" + lines[h] + "".join(ln + "\n" for ln in lines[h + 1:])
    path = tmp_path / "crlf.csv"
    path.write_bytes(text.replace("\n", "\r\n").encode("ascii"))
    back, _ = read_field(path)
    assert back.values.tobytes() == fld.values.tobytes()
    assert back.time_tag == fld.time_tag


@pytest.mark.parametrize("grid, rings", [
    (GridSpec(rho_max=2.0, n_rho=1, n_phi=16), [1]),
    (BLOCKED, [2, 2, 1]),
    (GridSpec(rho_max=2.0, n_rho=2, n_phi=2**14), [1, 1]),
], ids=["one-ring", "partial-last-block", "ring-longer-than-a-block"])
def test_csv_round_trip_in_blocks_is_bit_exact(tmp_path, grid, rings):
    assert [r.stop - r.start for r in _ring_blocks(grid, 5)] == rings
    fld = sample_field(standing_wave_field(SCALED, 5, SPEC), grid, 0.37, SCALED)
    back, _ = read_field(export_field(fld, SCALED, "csv", tmp_path / "w.csv"))
    assert back.values.tobytes() == fld.values.tobytes()
    assert back.grid == grid


def test_csv_read_holds_the_values_and_one_block(traced_peak, tmp_path):
    # the table is parsed and checked a block of rings at a time, never whole
    grid = GridSpec(rho_max=4.5, n_rho=256, n_phi=1024)
    fld = sample_field(standing_wave_field(P, 5, SPEC), grid, 0.3, P)
    path = export_field(fld, P, "csv", tmp_path / "f.csv")
    peak = traced_peak(lambda: read_field(path))
    assert peak < 2 * fld.values.nbytes, f"{peak / fld.values.nbytes:.2f} grids"


def _broken_csv(tmp_path, edit):
    _, lines = _valid_csv()
    path = tmp_path / "broken.csv"
    path.write_text("".join(edit(lines, _header_index(lines))), encoding="utf-8")
    return path


def _replace_row(k, row):
    return lambda lines, h: lines[:h + 1 + k] + [row] + lines[h + 2 + k:]


def _replace_x_p(k, x, p):
    def edit(lines, h):
        rho, phi, _, _, w = lines[h + 1 + k].split(",")
        return _replace_row(k, f"{rho},{phi},{x},{p},{w}")(lines, h)
    return edit


def _swap_rows(i, j):
    def edit(lines, h):
        lines[h + 1 + i], lines[h + 1 + j] = lines[h + 1 + j], lines[h + 1 + i]
        return lines
    return edit


# Most faults sit in the last block, a partial one, so the checks run in every block.
@pytest.mark.parametrize("edit, match", [
    (_replace_row(LAST + 3, "1,2,3,4\n"), "malformed row"),
    (_replace_row(LAST + 3, "1,2,3,4,5,6\n"), "malformed row"),
    (lambda lines, h: [ln.replace(",", ",6,", 1) if i > h else ln
                       for i, ln in enumerate(lines)], "6 columns"),
    (_replace_row(LAST + 5, "1,2,abc,4,5\n"),
     rf"malformed row: .*'abc'.* at row {LAST + 5}, column 3"),
    # the same body row is named whether a value or the column count is at fault
    (_replace_row(LAST + 5, "# t=5\n"), f"malformed row: .* from 5 to 1 at row {LAST + 5};"),
    (lambda lines, h: lines + ["# t=5\n"], f"has {ROWS + 1} rows, expected {ROWS}"),
    (lambda lines, h: lines[:-1], f"has {ROWS - 1} rows, expected {ROWS}"),
    (lambda lines, h: lines + lines[-1:], f"has {ROWS + 1} rows, expected {ROWS}"),
    (lambda lines, h: lines[:h + 1], f"has 0 rows, expected {ROWS}"),
    (lambda lines, h: lines[:h] + lines[h + 1:], "header"),
    (lambda lines, h: lines[:h], "header"),
    (lambda lines, h: [ln.replace("# t=0.20999999999999999", "# t=nan") for ln in lines],
     "non-finite time"),
    (_replace_row(LAST + 2, "1,2,3,4,nan\n"), r"non-finite value at node \(i=4, j=2\), rho=2.0,"),
    (lambda lines, h: ["# n_rho=four\n"] + lines, "parameter line"),
    (lambda lines, h: ["# note=\u00e9\n"] + lines, "ASCII"),
    (_replace_x_p(LAST + 19, "123.0", "-7"), rf"row {LAST + 19} has x=123.0, p=-7.0, expected x="),
    (_swap_rows(LAST + 1, LAST + 7),
     re.escape(f"row {LAST + 1} has rho=2.0, phi={float(PHI[7])!r}, "
               f"expected rho=2.0, phi={float(PHI[1])!r} at its node")),
    (lambda lines, h: [ln.replace("# m=1\n", "# m=-1\n") for ln in lines],
     "m must be finite and positive"),
    # numpy refuses a 10^20-value grid before it allocates anything
    (lambda lines, h: [re.sub(r"^# (n_rho|n_phi)=\d+", r"# \1=10000000000", ln)
                       for ln in lines], "array is too big"),
], ids=["ragged-row", "long-row", "extra-column", "non-numeric", "hash-line-in-body",
        "hash-line-after-body", "short", "one-extra-row", "no-rows", "missing-header",
        "no-header-or-rows", "nan-time", "nan-value", "bad-parameter", "non-ascii",
        "x-p-off-the-node", "swapped-rows", "bad-mass", "huge-grid"])
def test_malformed_csv_raises_data_error_naming_the_file(tmp_path, edit, match):
    path = _broken_csv(tmp_path, edit)
    with pytest.raises(DataError, match=match) as info:
        read_field(path)
    assert str(path) in str(info.value)
    assert "np.float64" not in str(info.value)


def _json_doc(tmp_path):
    fld = sample_field(standing_wave_field(P, 0, SPEC), small_grid(), 0.11, P)
    path = export_field(fld, P, "json", tmp_path / "w.json")
    return json.loads(Path(path).read_text())


@pytest.mark.parametrize("edit, match", [
    (lambda doc: doc.update(time=float("nan")), "non-finite time"),
    (lambda doc: doc.update(time=float("inf")), "non-finite time"),
    (lambda doc: doc.update(values=doc["values"][:-1]), "does not match grid"),
    (lambda doc: doc["values"][1].pop(), "malformed JSON"),
    (lambda doc: doc.pop("grid"), "malformed JSON"),
    # a grid number out of range reads as the CSV reader words it, with no repr
    (lambda doc: doc["grid"].update(n_rho=10.5),
     r": n_rho must be an integer in \[1, inf\], got 10\.5$"),
    (lambda doc: doc["grid"].update(n_phi=[16]),
     r": malformed JSON: n_phi must be one number, got an array of shape \(1,\)$"),
    (lambda doc: doc["grid"].update(rho_max=True), "rho_max must be finite and positive"),
    (lambda doc: doc["grid"].update(dt=True), "dt must be finite and positive"),
], ids=["nan-time", "inf-time", "short-values", "ragged-values", "no-grid", "fractional-n_rho",
        "array-n_phi", "bool-rho_max", "bool-dt"])
def test_malformed_json_raises_data_error_naming_the_file(tmp_path, edit, match):
    doc = _json_doc(tmp_path)
    edit(doc)
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(DataError, match=match) as info:
        read_field(path)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("i, j, row", [(0, 7, 0), (1, 2, 1), (4, 5, 4)],
                         ids=["first-and-last", "within-a-ring", "ring-start"])
def test_csv_with_swapped_rows_names_the_first_misplaced_row(tmp_path, i, j, row):
    grid = GridSpec(rho_max=2.0, n_rho=2, n_phi=4)
    fld = sample_field(stationary_field(P, 1), grid, 0.0, P)
    lines = Path(export_field(fld, P, "csv", tmp_path / "w.csv")).read_text().splitlines(True)
    h = _header_index(lines)
    body = lines[h + 1:]
    body[i], body[j] = body[j], body[i]
    path = tmp_path / "swapped.csv"
    path.write_text("".join(lines[:h + 1] + body), encoding="ascii")
    with pytest.raises(DataError, match=rf"row {row} has rho=") as info:
        read_field(path)
    assert str(path) in str(info.value)


# -- factored sampling ---------------------------------------------------------

def _bare(W):
    """The same field without ``polar_factors``: sampled at the (x, p) image of every node."""
    return lambda x, p, t: W(x, p, t)


def _wide_grid(params, n_rho, n_phi):
    """A grid past the turning radius of the highest order, n = 64."""
    turning = math.sqrt(129.0 * params.hbar * params.omega / params.m)
    return GridSpec(rho_max=1.3 * turning, n_rho=n_rho, n_phi=n_phi)


@pytest.mark.parametrize("params", [P, SCALED], ids=["natural", "scaled"])
@pytest.mark.parametrize("n", [0, 5, 17, 48, 64])
def test_factored_sample_matches_tensor_sample(params, n):
    grid = _wide_grid(params, 48, 96)
    fields = [stationary_field(params, n),
              standing_wave_field(params, n, SPEC),
              extended_field(params, n, stationary_profile(2.0)),
              extended_field(params, n, running_wave_profile(A=0.4, C=1.0, kappa=2)),
              extended_field(params, n, StandingWaveSpec(ell=2, A=1.0, C=2.0).to_profile())]
    for W in fields:
        for t in (0.0, 0.37, 2.9):
            factored = sample_field(W, grid, t, params).values
            tensor = sample_field(_bare(W), grid, t, params).values
            scale = float(np.max(np.abs(tensor)))
            assert np.max(np.abs(factored - tensor)) <= 1e-13 * scale


@pytest.mark.parametrize("params", [P, SCALED], ids=["natural", "scaled"])
def test_factored_sample_is_no_less_accurate_than_tensor_sample(params):
    # the exact kernel at each ring's radius against both samples of n = 64
    n = 64
    grid = _wide_grid(params, 128, 32)
    W = stationary_field(params, n)
    factored = sample_field(W, grid, 0.0, params).values
    tensor = sample_field(_bare(W), grid, 0.0, params).values
    for i, rho in enumerate(grid.rho_nodes().tolist()):
        exact = wigner_kernel_exact(n, rho, params.m, params.omega, params.hbar)
        factored_err = max(abs(Decimal(v) - exact) for v in factored[i].tolist())
        tensor_err = max(abs(Decimal(v) - exact) for v in tensor[i].tolist())
        assert factored_err <= tensor_err, f"ring {i}"


def test_sampling_field_classes_never_calls_a_field(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__} evaluated at (x, p)")

    for cls in (StationaryWigner, StandingWaveWigner, ExtendedWigner):
        monkeypatch.setattr(cls, "__call__", refuse)
    grid = small_grid()
    for W in (stationary_field(P, 3), standing_wave_field(P, 3, SPEC),
              extended_field(P, 3, running_wave_profile(A=0.4, C=1.0, kappa=2))):
        sample_field(W, grid, 0.37, P)
        # a field class is at t = 0 without a t, and so is its rotation by 0
        direct = sample_field(W, grid, 0.0, P).values
        still = propagate_exact(W, P, 0.0)
        assert np.array_equal(sample_field(still, grid, 5.0, P).values, direct)
        assert phase_space_integral(still, P) == phase_space_integral(W, P)
        sample_field(propagate_exact(W, P, 0.8), grid, 0.8, P)
    report = run_suite(["positivity_edge", "snapshot_identities"])
    assert report.passed


@pytest.mark.parametrize("i, rho", [(1, "1.0"), (2, "1.5")])
def test_nonfinite_factored_sample_names_the_node(i, rho):
    class NanAtOneRadius:
        def polar_factors(self, r, phi, t):
            return np.where(r == r[i], np.nan, 1.0), np.ones_like(phi)

        def __call__(self, x, p, t):
            raise AssertionError("evaluated at (x, p)")

    with pytest.raises(DataError, match=rf"\(i={i}, j=0\), rho={rho}, phi=0.0$") as info:
        sample_field(NanAtOneRadius(), small_grid(), 0.0, P)
    assert "np.float64" not in str(info.value)
