"""Deterministic CSV and JSON serialization.

CSV uses '.' decimals, '\\n' line endings and a header row; JSON is UTF-8
with insertion-ordered keys.  Floats are printed as ``%.17g``: the same bytes
every run, read back exactly.  A field CSV is written one row block at a
time, one q row per ``%`` over a template built once, with each distinct
number of the field formatted once; it is parsed back by ``numpy.loadtxt``,
and its rows must come in q-outer, p-inner order.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict

import numpy as np

from .genvalue import ResidualReport
from .phasespace import Field, PhaseGrid, _require_finite, integrate


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError("cannot serialize non-finite numbers")
    return format(float(x), ".17g")


def canonical_json(obj) -> str:
    """Serialize with stable key order and 17-significant-digit floats."""
    out: list[str] = []
    _write_json(obj, out)
    return "".join(out) + "\n"


def _write_json(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _write_json(item, out)
        out.append("]")
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key), ensure_ascii=False))
            out.append(": ")
            _write_json(val, out)
        out.append("}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# Grid / field serialization


def field_to_csv(field: Field, path) -> None:
    """Write rows q, p, re, im in row-major (q outer) order.

    A non-finite sample is refused, naming the field and its first (q, p),
    before the file is opened.  The rows are then formed and written one row
    block (``PhaseGrid.row_blocks``) at a time.  Each distinct float64 bit
    pattern is formatted once over the whole field (so -0.0 and 0.0 stay
    apart): ``known`` holds the patterns met so far, sorted, and ``slot`` the
    place of each one's text in ``texts``, so a block formats only the
    patterns that no earlier block held.
    """
    grid, vals = field.grid, field.values
    _require_finite(grid, vals, "cannot write non-finite numbers: "
                    + (f"field {field.label}" if field.label else "an unnamed field"))
    leads = [format_float(q) + "," for q in grid.q_values()]
    rests = [format_float(p) + ",%s,%s\n" for p in grid.p_values()]
    # the last entry is a sentinel: that NaN pattern sorts above every finite one
    known = np.array([np.iinfo(np.int64).max])
    slot = np.zeros(1, np.intp)
    texts = np.empty(1, object)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("q,p,re,im\n")
        for rows in grid.row_blocks():
            pairs = np.ascontiguousarray(vals[rows]).view(np.int64)  # re, im of each p
            bits, where = np.unique(pairs, return_inverse=True)
            at = np.searchsorted(known, bits)
            fresh = known[at] != bits
            if fresh.any():
                new = bits[fresh]
                start, stop = len(known), len(known) + len(new)
                if stop > len(texts):
                    texts = np.resize(texts, 2 * stop)
                texts[start:stop] = [format_float(x) for x in new.view(np.float64).tolist()]
                known = np.insert(known, at[fresh], new)
                slot = np.insert(slot, at[fresh], np.arange(start, stop))
                at += np.cumsum(fresh) - fresh  # each pattern's place after the insert
            out = texts[slot[at][where]].reshape(len(pairs), -1).tolist()
            for lead, row in zip(leads[rows], out):
                fh.write((lead + lead.join(rests)) % tuple(row))


def read_field_csv(path, hbar: float = 1.0) -> Field:
    """Rebuild a Field from its CSV export.

    The grid is reconstructed from the sample coordinates themselves (with
    offset 0, since the written coordinates already include any shift).  Rows
    out of q-outer, p-inner order are refused, naming the first such line, and
    so is a coordinate that is off the uniform grid by more than roundoff.
    The file records no hbar: the grid takes ``hbar``, so a field written at
    hbar != 1 must be read back with ``hbar=`` set to it.  The field's
    ``source`` is None: the samples carry no exact source, so its partials
    come from ``fd4_partial`` alone.
    """
    with open(path, encoding="utf-8") as fh:
        nonblank = ((i, ln.rstrip("\n")) for i, ln in enumerate(fh, 1) if ln != "\n")
        skip, header = next(nonblank, (0, ""))
        if header != "q,p,re,im":
            raise ValueError(f"unexpected CSV header {header!r}")
        if next(nonblank, None) is None:
            raise ValueError("CSV has no data rows")
    q, p, re, im = np.loadtxt(path, delimiter=",", dtype=float, comments=None, ndmin=2,
                              skiprows=skip, encoding="utf-8", unpack=True)
    qs = np.unique(q)
    ps = np.unique(p)
    n_q, n_p = len(qs), len(ps)
    if n_q * n_p != len(q):
        raise ValueError("CSV rows do not form a complete rectangular grid")
    misplaced = np.flatnonzero((q != np.repeat(qs, n_p)) | (p != np.tile(ps, n_q)))
    if misplaced.size:  # name the file line of the first misplaced data row
        with open(path, encoding="utf-8") as fh:
            data = [i for i, ln in enumerate(fh, 1) if i > skip and ln != "\n"]
        raise ValueError(f"CSV rows are not in q-outer, p-inner order at line "
                         f"{data[misplaced[0]]}")
    grid = PhaseGrid(float(qs[0]), float(qs[-1]), float(ps[0]), float(ps[-1]),
                     n_q, n_p, hbar=hbar, offset=0.0)
    for axis, coords, rebuilt, cell in (("q", qs, grid.q_values(), grid.dq),
                                        ("p", ps, grid.p_values(), grid.dp)):
        off = np.abs(coords - rebuilt) > 4 * np.spacing(np.abs(coords).max()) + 1e-9 * cell
        if off.any():
            raise ValueError(f"CSV {axis} coordinates are not on a uniform grid: "
                             f"{axis} = {float(coords[off][0])!r}")
    vals = np.stack([re, im], -1).view(complex).reshape(n_q, n_p)
    return Field(grid, vals)


def field_report(field: Field) -> dict:
    """Plot-free JSON summary of a field: grid, label, value statistics."""
    vals = field.values
    total = integrate(field)
    return {
        "grid": asdict(field.grid),
        "label": field.label,
        "stats": {
            "re_min": float(vals.real.min()), "re_max": float(vals.real.max()),
            "im_min": float(vals.imag.min()), "im_max": float(vals.imag.max()),
            "abs_max": float(np.abs(vals).max()),
            "integral_re": float(total.real), "integral_im": float(total.imag),
        },
    }


def spectrum_to_csv(rows) -> str:
    """One CSV row n,E_n per entry of ``spectrum``'s array."""
    lines = ["n,energy"]
    for n, energy in enumerate(rows):
        lines.append(f"{n},{format_float(energy)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Residual reports


def report_to_dict(report: ResidualReport) -> dict:
    """The report's fields in schema order; "order" is the schema's constant."""
    return {
        "identity": report.identity_name,
        "spec": report.spec,
        "n": report.n,
        "hbar": report.grid.hbar,
        "omega": report.omega,
        "order": "first",
        "max_abs": report.max_abs,
        "l2": report.l2,
        "imag_max": report.imag_max,
        "witness": {
            "q": report.witness.q, "p": report.witness.p,
            "re": report.witness.value.real, "im": report.witness.value.imag,
        },
        "grid": asdict(report.grid),
        "extra": {k: report.extra[k] for k in sorted(report.extra)},
    }


def report_to_json(report: ResidualReport) -> str:
    return canonical_json(report_to_dict(report))
