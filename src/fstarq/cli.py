"""Command-line front end.

Subcommands::

    spectrum    level energies as CSV (n, energy)
    wigner      Wigner-function field as CSV (q, p, re, im)
    residual    star-genvalue residual report as JSON
    commutator  commutator-correspondence report (JSON) + deviation field (CSV)
    assoc       associativity defect vs hbar as CSV (hbar, defect, slope)
    verify      run the built-in verification suite; exit 1 on any failure

Deformations are written in the mini-language ``identity``, ``sqrt_n``,
``qdef:q=<real>`` or ``expr:<expression in n>``.  Exit codes: 0 success,
1 verification failure, 2 bad configuration, parse error or unwritable
``--out`` path.  Each subcommand has one handler; it stops at the first bad
flag and prints ``error: --<flag>: <reason>``.  A value the flags pass but
the library refuses prints the library's message, which names its parameter
or the point (``error: r_cut = 0.01: no grid sample lies inside the disc``).
"""

from __future__ import annotations

import argparse
import math
import sys

from .deformation import DEFAULT_SERIES_TOL, DeformationSpec, parse_deformation, spectrum
from .errors import FStarError, ParseError
from .genvalue import (ASSOC_HBARS, DEFAULT_R_CUT, commutator_deviation, genvalue_residual,
                       probe_defect)
from .io import canonical_json, field_to_csv, format_float, report_to_json, spectrum_to_csv
from .phasespace import PhaseGrid, fcs_wigner, fock_wigner
from .verify import run_verification


def _parse_grid(text: str, hbar: float) -> PhaseGrid:
    parts = text.split(",")
    if len(parts) not in (6, 7):
        raise ValueError("--grid: expected 'qmin,qmax,pmin,pmax,nq,np[,offset]'")
    try:
        q_min, q_max, p_min, p_max = (float(x) for x in parts[:4])
        n_q, n_p = int(parts[4]), int(parts[5])
        offset = float(parts[6]) if len(parts) == 7 else 0.5
    except ValueError as exc:
        raise ValueError(f"--grid: {exc}") from None
    if n_q < 5 or n_p < 5:
        raise ValueError("--grid: sample counts must be >= 5")
    try:
        return PhaseGrid(q_min, q_max, p_min, p_max, n_q, n_p, hbar=hbar, offset=offset)
    except ValueError as exc:
        raise ValueError(f"--grid: {exc}") from None


def _parse_hbars(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ValueError(f"--hbar: {exc}") from None
    if any(v <= 0 or not math.isfinite(v) for v in values):
        raise ValueError("--hbar: values must be positive finite reals")
    return values


def _spec(text: str) -> DeformationSpec:
    try:
        return parse_deformation(text)
    except ParseError as exc:
        raise ValueError(f"--spec: {exc}") from None


def _hbar(text: str) -> float:
    hbars = _parse_hbars(text)
    if len(hbars) != 1:
        raise ValueError("--hbar: this command takes a single value")
    return hbars[0]


def _positive(flag: str, value: float) -> float:
    if not 0.0 < value < math.inf:
        raise ValueError(f"{flag}: must be a positive finite real")
    return value


def _count(flag: str, value: int) -> int:
    if value < 0:
        raise ValueError(f"{flag}: must be >= 0")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fstarq", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, run, with_grid=True):
        sp.set_defaults(run=run)
        sp.add_argument("--spec", default="identity",
                        help="deformation mini-language (default: identity)")
        sp.add_argument("--hbar", default="1.0",
                        help="hbar (assoc accepts a comma-separated list)")
        sp.add_argument("--out", default=None, help="output path (default: stdout)")
        if with_grid:
            sp.add_argument("--grid", default="-8,8,-8,8,513,513",
                            help="qmin,qmax,pmin,pmax,nq,np[,offset] "
                                 "(default: -8,8,-8,8,513,513,0.5)")

    sp = sub.add_parser("spectrum", help="level energies as CSV")
    add_common(sp, _spectrum, with_grid=False)
    sp.add_argument("--omega", type=float, default=1.0)
    sp.add_argument("--n-max", type=int, required=True, dest="n_max")

    # the mixture flags default to None, so _wigner can tell they were given
    sp = sub.add_parser("wigner", help="Wigner field as CSV")
    add_common(sp, _wigner)
    sp.set_defaults(spec=None)
    sp.add_argument("--tol", type=float, default=None,
                    help=f"series truncation tolerance (default {DEFAULT_SERIES_TOL:g})")
    sp.add_argument("--n", type=int, default=None,
                    help="number state (omits the coherent mixture and refuses its flags)")
    sp.add_argument("--zeta2", type=float, default=None, dest="zeta_abs2",
                    help="|zeta|^2 of the coherent mixture (default 1.0)")

    sp = sub.add_parser("residual", help="star-genvalue residual report as JSON")
    add_common(sp, _residual)
    sp.add_argument("--omega", type=float, default=1.0)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r-cut", type=float, default=DEFAULT_R_CUT, dest="r_cut")

    sp = sub.add_parser("commutator", help="commutator correspondence report")
    add_common(sp, _commutator)

    sp = sub.add_parser("assoc", help="associativity defect scaling")
    add_common(sp, _assoc)
    sp.set_defaults(hbar=",".join(map(str, ASSOC_HBARS)))

    sp = sub.add_parser("verify", help="run the verification suite")
    sp.set_defaults(run=_verify)
    sp.add_argument("--quick", action="store_true")
    sp.add_argument("--out", default=None)
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# One handler per subcommand: it checks its own flags, in the order that
# decides which error wins, then calls the library.

def _spectrum(args) -> int:
    spec, hbar = _spec(args.spec), _hbar(args.hbar)
    omega = _positive("--omega", args.omega)
    n_max = _count("--n-max", args.n_max)
    _emit(spectrum_to_csv(spectrum(spec, n_max, hbar, omega)), args.out)
    return 0


def _wigner(args) -> int:
    for flag, name, default in (("--spec", "spec", "identity"), ("--zeta2", "zeta_abs2", 1.0),
                                ("--tol", "tol", DEFAULT_SERIES_TOL)):
        if getattr(args, name) is None:
            setattr(args, name, default)
        elif args.n is not None:
            raise ValueError(f"{flag}: a number state's W_n does not depend on f; "
                             "give it without --n")
    spec, hbar = _spec(args.spec), _hbar(args.hbar)
    tol = _positive("--tol", args.tol)
    grid = _parse_grid(args.grid, hbar)
    if args.n is not None:
        _count("--n", args.n)
    elif not 0.0 <= args.zeta_abs2 < math.inf:
        raise ValueError("--zeta2: must be a finite real >= 0")
    if args.out is None:
        raise ValueError("--out: wigner writes a field CSV; give a path")
    field = (fock_wigner(args.n, grid) if args.n is not None
             else fcs_wigner(spec, args.zeta_abs2, grid, tol=tol))
    field_to_csv(field, args.out)
    return 0


def _residual(args) -> int:
    spec, hbar = _spec(args.spec), _hbar(args.hbar)
    omega = _positive("--omega", args.omega)
    grid = _parse_grid(args.grid, hbar)
    n = _count("--n", args.n)
    r_cut = _positive("--r-cut", args.r_cut)
    _emit(report_to_json(genvalue_residual(spec, n, grid, omega=omega, r_cut=r_cut)), args.out)
    return 0


def _commutator(args) -> int:
    spec, hbar = _spec(args.spec), _hbar(args.hbar)
    dev_field, report = commutator_deviation(spec, _parse_grid(args.grid, hbar))
    _emit(report_to_json(report), args.out)
    if args.out is not None:
        stem = args.out[:-5] if args.out.endswith(".json") else args.out
        field_to_csv(dev_field, stem + ".field.csv")
    return 0


def _assoc(args) -> int:
    spec, hbars = _spec(args.spec), _parse_hbars(args.hbar)
    result = probe_defect(_parse_grid(args.grid, 1.0), spec, hbars)
    lines = ["hbar,defect,slope"]
    slope_txt = "" if result.slope is None else format_float(result.slope)
    for hbar, defect in result.points:
        lines.append(f"{format_float(hbar)},{format_float(defect)},{slope_txt}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _verify(args) -> int:
    summary = run_verification(quick=args.quick)
    _emit(canonical_json(summary), args.out)
    return 0 if summary["all_pass"] else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a usage message; normalize its exit code
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    try:
        return args.run(args)
    except (FStarError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # the CLI opens files only to write its outputs
        print(f"error: --out: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
