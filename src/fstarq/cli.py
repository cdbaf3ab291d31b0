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
1 verification failure, 2 bad configuration or parse error.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field as dc_field

from .deformation import DeformationSpec, parse_deformation, spectrum
from .errors import FStarError, ParseError
from .genvalue import associativity_defect, commutator_deviation, genvalue_residual
from .io import canonical_json, field_to_csv, format_float, report_to_json, spectrum_to_csv
from .phasespace import PhaseGrid, fcs_wigner, field_from_poly, fock_wigner
from .symbols import PolySymbol
from .verify import run_verification

DEFAULT_HBARS = (1e-1, 1e-2, 1e-3)


@dataclass
class RunConfig:
    command: str
    spec: DeformationSpec
    grid: PhaseGrid
    hbar: float = 1.0
    omega: float = 1.0
    zeta_abs2: float = 1.0
    n: int | None = None
    n_max: int | None = None
    out: str | None = None
    tol: float = 1e-14
    quick: bool = False
    hbar_list: tuple[float, ...] = dc_field(default_factory=lambda: DEFAULT_HBARS)
    r_cut: float = 4.0


class ConfigError(Exception):
    """Bad flag value; message names the offending flag."""


def _parse_grid(text: str, hbar: float) -> PhaseGrid:
    parts = text.split(",")
    if len(parts) not in (6, 7):
        raise ConfigError("--grid: expected 'qmin,qmax,pmin,pmax,nq,np[,offset]'")
    try:
        q_min, q_max, p_min, p_max = (float(x) for x in parts[:4])
        n_q, n_p = int(parts[4]), int(parts[5])
        offset = float(parts[6]) if len(parts) == 7 else 0.5
    except ValueError as exc:
        raise ConfigError(f"--grid: {exc}") from None
    if n_q < 5 or n_p < 5:
        raise ConfigError("--grid: sample counts must be >= 5")
    try:
        return PhaseGrid(q_min, q_max, p_min, p_max, n_q, n_p, hbar=hbar, offset=offset)
    except ValueError as exc:
        raise ConfigError(f"--grid: {exc}") from None


def _parse_hbars(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--hbar: {exc}") from None
    if any(v <= 0 or not math.isfinite(v) for v in values):
        raise ConfigError("--hbar: values must be positive finite reals")
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fstarq", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, with_grid=True):
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
    add_common(sp, with_grid=False)
    sp.add_argument("--omega", type=float, default=1.0)
    sp.add_argument("--n-max", type=int, required=True, dest="n_max")

    # the mixture flags default to None, so config_from_args can tell they were given
    sp = sub.add_parser("wigner", help="Wigner field as CSV")
    add_common(sp)
    sp.set_defaults(spec=None)
    sp.add_argument("--tol", type=float, default=None,
                    help="series truncation tolerance (default 1e-14)")
    sp.add_argument("--n", type=int, default=None,
                    help="number state (omits the coherent mixture and refuses its flags)")
    sp.add_argument("--zeta2", type=float, default=None, dest="zeta_abs2",
                    help="|zeta|^2 of the coherent mixture (default 1.0)")

    sp = sub.add_parser("residual", help="star-genvalue residual report as JSON")
    add_common(sp)
    sp.add_argument("--omega", type=float, default=1.0)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--r-cut", type=float, default=4.0, dest="r_cut")

    sp = sub.add_parser("commutator", help="commutator correspondence report")
    add_common(sp)

    sp = sub.add_parser("assoc", help="associativity defect scaling")
    add_common(sp)
    sp.set_defaults(hbar="1e-1,1e-2,1e-3")

    sp = sub.add_parser("verify", help="run the verification suite")
    sp.add_argument("--quick", action="store_true")
    sp.add_argument("--out", default=None)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    if args.command == "verify":
        return RunConfig(command="verify", spec=DeformationSpec("identity"),
                         grid=PhaseGrid(-8, 8, -8, 8, 513, 513), quick=args.quick,
                         out=args.out)
    if args.command == "wigner":  # the coherent-mixture flags, with their defaults
        for flag, name, default in (("--spec", "spec", "identity"), ("--zeta2", "zeta_abs2", 1.0),
                                    ("--tol", "tol", 1e-14)):
            if getattr(args, name) is None:
                setattr(args, name, default)
            elif args.n is not None:
                raise ConfigError(f"{flag}: a number state's W_n does not depend on f; "
                                  "give it without --n")
    try:
        spec = parse_deformation(args.spec)
    except ParseError as exc:
        raise ConfigError(f"--spec: {exc}") from None
    hbar_list = _parse_hbars(args.hbar) if args.command == "assoc" else None
    if hbar_list is None:
        hbars = _parse_hbars(args.hbar)
        if len(hbars) != 1:
            raise ConfigError("--hbar: this command takes a single value")
        hbar = hbars[0]
    else:
        hbar = 1.0
    # --omega and --tol are registered only on the commands that read them
    numbers = {name: getattr(args, name) for name in ("omega", "tol") if hasattr(args, name)}
    for name, value in numbers.items():
        if not math.isfinite(value) or value <= 0:
            raise ConfigError(f"--{name}: must be a positive finite real")
    grid = _parse_grid(args.grid, hbar) if hasattr(args, "grid") else None
    cfg = RunConfig(
        command=args.command, spec=spec, grid=grid, hbar=hbar, out=args.out,
        hbar_list=hbar_list if hbar_list is not None else DEFAULT_HBARS, **numbers,
    )
    if hasattr(args, "n_max"):
        if args.n_max < 0:
            raise ConfigError("--n-max: must be >= 0")
        cfg.n_max = args.n_max
    if hasattr(args, "n") and args.n is not None:
        if args.n < 0:
            raise ConfigError("--n: must be >= 0")
        cfg.n = args.n
    if hasattr(args, "zeta_abs2"):
        if args.zeta_abs2 < 0 or not math.isfinite(args.zeta_abs2):
            raise ConfigError("--zeta2: must be a finite real >= 0")
        cfg.zeta_abs2 = args.zeta_abs2
    if hasattr(args, "r_cut"):
        if not 0.0 < args.r_cut < math.inf:
            raise ConfigError("--r-cut: must be a positive finite real")
        cfg.r_cut = args.r_cut
    return cfg


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def run(cfg: RunConfig) -> int:
    if cfg.command == "spectrum":
        rows = spectrum(cfg.spec, cfg.n_max, cfg.hbar, cfg.omega)
        _emit(spectrum_to_csv(rows), cfg.out)
        return 0
    if cfg.command == "wigner":
        if cfg.n is not None:
            field = fock_wigner(cfg.n, cfg.grid)
        else:
            field = fcs_wigner(cfg.spec, cfg.zeta_abs2, cfg.grid, tol=cfg.tol)
        if cfg.out is None:
            raise ConfigError("--out: wigner writes a field CSV; give a path")
        field_to_csv(field, cfg.out)
        return 0
    if cfg.command == "residual":
        report = genvalue_residual(cfg.spec, cfg.n, cfg.grid, omega=cfg.omega,
                                   r_cut=cfg.r_cut)
        _emit(report_to_json(report), cfg.out)
        return 0
    if cfg.command == "commutator":
        dev_field, report = commutator_deviation(cfg.spec, cfg.grid)
        _emit(report_to_json(report), cfg.out)
        if cfg.out is not None:
            stem = cfg.out
            csv_path = (stem[:-5] if stem.endswith(".json") else stem) + ".field.csv"
            field_to_csv(dev_field, csv_path)
        return 0
    if cfg.command == "assoc":
        k = field_from_poly(PolySymbol.q(), cfg.grid, "q")
        g = field_from_poly(PolySymbol.p(), cfg.grid, "p")
        h = field_from_poly(PolySymbol.q() + PolySymbol.p(), cfg.grid, "q+p")
        result = associativity_defect(k, g, h, cfg.spec, list(cfg.hbar_list))
        lines = ["hbar,defect,slope"]
        slope_txt = "" if result.slope is None else format_float(result.slope)
        for hbar, defect in result.points:
            lines.append(f"{format_float(hbar)},{format_float(defect)},{slope_txt}")
        _emit("\n".join(lines) + "\n", cfg.out)
        return 0
    if cfg.command == "verify":
        summary = run_verification(quick=cfg.quick)
        _emit(canonical_json(summary), cfg.out)
        return 0 if summary["all_pass"] else 1
    raise ConfigError(f"unknown command {cfg.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a usage message; normalize its exit code
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    try:
        cfg = config_from_args(args)
        return run(cfg)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParseError, FStarError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
