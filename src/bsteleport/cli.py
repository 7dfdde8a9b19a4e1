"""Command-line interface.

Subcommands cover the resource coefficients, the outcome distribution,
single-point fidelity, the two grid products (fidelity sweep and
most-likely-phase map) and the self-check against the brute-force
routes.  Exit codes: 0 success, 1 bad invocation or invalid values,
2 self-check failure, 3 output I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
import warnings
from functools import cache, partial

import numpy as np

from .gridio import (
    _fmt,
    atomic_write_files,
    coeffs_to_csv_bytes,
    distribution_to_csv_bytes,
    grid_to_csv_bytes,
    grid_to_pgm_bytes,
)
from .oracle import DEFAULT_VERIFY_TOL, MAX_VERIFY_TOTAL, _overlap_deficit, verify_resource
from .phase import DEFAULT_PHASE_GRID, MIN_PHASE_GRID, check_phase_map_size, phase_argmax_map
from .protocol import (
    average_fidelity,
    check_sweep_size,
    classical_baseline,
    fidelity_sweep,
    outcome_distribution,
    split_total,
)
from .states import (
    DEFAULT_TAIL_TOL,
    ResourceParams,
    cat_coeffs,
    coherent_coeffs,
    fock_coeffs,
    resource_coeffs,
    suggest_cutoff,
)

OUT_DIR_ENV = "BSTELEPORT_OUT_DIR"
DEFAULT_BETA = math.pi / 2
DEFAULT_ORACLE_BETAS = (0.1, 0.5, math.pi / 2, 2.5, 3.0)
_ANGLE_NAMES = {math.pi / 2: "pi/2"}  # angles the help text shows by name

# options that take no value; config entries for these accept true/false
_SWITCH_KEYS = {"verbose"}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value such as -5e-1, -1:1 or -inf is read as a value, not only -123 and -1.5;
        # no option name starts with "-" and a digit, "." or inf, infinity or nan
        self._negative_number_matcher = re.compile(r"-(\.?\d|(inf|infinity|nan)\b)", re.IGNORECASE)

    def error(self, message):
        raise ValueError(message)


def _add_target_options(sub) -> None:
    sub.add_argument("--target", choices=("cat", "fock", "coherent"), default="cat",
                     help="state to teleport (default %(default)s)")
    sub.add_argument("--alpha", type=float, default=3.0,
                     help="amplitude for cat/coherent targets (default %(default)s)")
    sub.add_argument("--k", type=int, default=0,
                     help="photon number for the fock target (default %(default)s)")
    sub.add_argument("--cutoff", type=int, default=None,
                     help="number-basis cutoff (default: chosen from the tail tolerance)")
    sub.add_argument("--tail-tol", type=float, default=DEFAULT_TAIL_TOL,
                     help="largest truncated tail accepted for the target (default %(default)s)")


def _add_pair_options(sub) -> None:
    sub.add_argument("--n-in", type=int, default=None, help="photons entering the first port")
    sub.add_argument("--m-in", type=int, default=None, help="photons entering the second port")
    sub.add_argument("--total", type=int, default=None,
                     help="total photon number (alternative to --n-in/--m-in, with --m)")
    sub.add_argument("--m", type=float, default=None,
                     help="half the input photon difference (used with --total)")
    sub.add_argument("--beta", type=float, default=DEFAULT_BETA,
                     help=f"beam-splitter angle in [0, pi] (default {_ANGLE_NAMES.get(DEFAULT_BETA, DEFAULT_BETA)})")


def _add_grid_options(sub) -> None:
    sub.add_argument("--total", type=int, default=None, help="total photon number (required)")
    sub.add_argument("--beta-steps", type=int, default=101,
                     help="number of interior beta samples (default %(default)s)")
    sub.add_argument("--m-range", default=None,
                     help="m axis as lo:hi[:step] (default 0 to total/2, step 1)")
    sub.add_argument("--workers", type=int, default=None,
                     help="accepted for older command lines; has no effect")


def _add_output_options(sub, csv_default=None, pgm_default=None) -> None:
    sub.add_argument("--out-dir", default=None,
                     help=f"output directory (default ${OUT_DIR_ENV} or current directory)")
    sub.add_argument("--csv", default=csv_default,
                     help="CSV output path" + ("" if csv_default is None else " (default %(default)s)"))
    if pgm_default is not None:
        sub.add_argument("--pgm", default=pgm_default, help="PGM image output path (default %(default)s)")


@cache  # built at the first main() call and reused: parsing leaves the tree as it was
def _build_parser() -> _Parser:
    parser = _Parser(prog="bsteleport",
                     description="Teleportation statistics for Fock states entangled at a beam splitter")
    subs = parser.add_subparsers(dest="command", metavar="command")

    sub = subs.add_parser("resource", help="resource coefficient vector",
                          description="Print or write the resource coefficients as index,real,imag CSV.")
    _add_pair_options(sub)
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_resource)

    sub = subs.add_parser("distribution", help="outcome distribution q,p,f",
                          description="Print or write the measurement-outcome distribution as q,p,f CSV.")
    _add_target_options(sub)
    _add_pair_options(sub)
    _add_output_options(sub)
    sub.set_defaults(func=_cmd_distribution)

    sub = subs.add_parser("fidelity", help="average fidelity at one point",
                          description="Average teleportation fidelity and the no-entanglement baseline.")
    _add_target_options(sub)
    _add_pair_options(sub)
    sub.set_defaults(func=_cmd_fidelity)

    sub = subs.add_parser("sweep", help="average-fidelity grid over (beta, m)",
                          description="Average fidelity on a (beta, m) grid; writes CSV and a PGM rendering.")
    _add_target_options(sub)
    _add_grid_options(sub)
    _add_output_options(sub, csv_default="fidelity_sweep.csv", pgm_default="fidelity_sweep.pgm")
    sub.set_defaults(func=_cmd_sweep)

    sub = subs.add_parser("phase-map", help="most likely phase difference over (beta, m)",
                          description="Grid of the most likely phase-difference reading; CSV plus PGM "
                                      "with white at pi/2.")
    _add_grid_options(sub)
    sub.add_argument("--phi-grid", type=int, default=DEFAULT_PHASE_GRID,
                     help="phase grid resolution (default %(default)s)")
    _add_output_options(sub, csv_default="phase_map.csv", pgm_default="phase_map.pgm")
    sub.set_defaults(func=_cmd_phase_map)

    sub = subs.add_parser("oracle-check", help="check coefficients against the sector unitary",
                          description="Compare closed-form resource coefficients with the directly "
                                      "exponentiated sector Hamiltonian over a range of inputs.")
    sub.add_argument("--max-total", type=int, default=40, help="largest total photon number checked, "
                     f"at most {MAX_VERIFY_TOTAL} (default %(default)s)")
    sub.add_argument("--betas", default=None, help="comma-separated beta values "
                     f"(default {','.join(_ANGLE_NAMES.get(b, str(b)) for b in DEFAULT_ORACLE_BETAS)})")
    sub.add_argument("--tol", type=float, default=DEFAULT_VERIFY_TOL,
                     help="allowed overlap deficit per check (default %(default)s)")
    sub.add_argument("--verbose", action="store_true", help="print one line per failing check")
    sub.set_defaults(func=_cmd_oracle_check)

    for sub in subs.choices.values():
        sub.add_argument("--config", default=None,
                         help="key=value file supplying defaults; flags override it")
    return parser


def _config_tokens(path: str) -> list[str]:
    tokens: list[str] = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}")
    with handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            key = key.strip().replace("_", "-")
            value = value.strip()
            if not key:
                raise ValueError(f"{path}:{lineno}: empty key")
            if key in _SWITCH_KEYS:
                if value.lower() not in ("true", "false"):
                    raise ValueError(f"{path}:{lineno}: {key} takes true or false")
                if value.lower() == "true":
                    tokens.append(f"--{key}")
            else:
                tokens.extend([f"--{key}", value])
    return tokens


def _out_path(args, name: str) -> str:
    """A relative name under the output directory; an absolute name is kept as given."""
    return os.path.join(args.out_dir or os.environ.get(OUT_DIR_ENV) or ".", name)


def _write(files: list[tuple[str, bytes]]) -> None:
    """Write every (path, data) file or none, then report them all."""
    atomic_write_files(files)
    for path, _ in files:
        print(f"wrote {path}")


def _emit(args, data: bytes) -> None:
    if args.csv:
        _write([(_out_path(args, args.csv), data)])
    else:
        sys.stdout.write(data.decode("ascii"))


def _build_target(args):
    if args.target == "fock":
        cutoff = args.k if args.cutoff is None else args.cutoff
        return fock_coeffs(args.k, cutoff)
    if not math.isfinite(args.alpha) or args.alpha < 0:
        raise ValueError("--alpha must be finite and non-negative")
    builder = cat_coeffs if args.target == "cat" else coherent_coeffs
    cutoff = args.cutoff
    if cutoff is None:
        cutoff = suggest_cutoff(args.alpha, kind=args.target, tol=args.tail_tol)
    return builder(args.alpha, cutoff, tail_tol=args.tail_tol)


def _resource_params(args) -> ResourceParams:
    by_pair = args.n_in is not None or args.m_in is not None
    by_sector = args.total is not None or args.m is not None
    if by_pair and by_sector:
        raise ValueError("give either --n-in/--m-in or --total/--m, not both")
    if by_pair:
        if args.n_in is None or args.m_in is None:
            raise ValueError("--n-in and --m-in must be given together")
        return ResourceParams(args.n_in, args.m_in, args.beta)
    if by_sector:
        if args.total is None or args.m is None:
            raise ValueError("--total and --m must be given together")
        split = split_total(args.total, args.m)
        if split is None:
            raise ValueError(f"m={args.m:g} is incompatible with total={args.total}")
        return ResourceParams(*split, args.beta)
    raise ValueError("resource inputs required: --n-in/--m-in or --total/--m")


def _m_range(args) -> tuple[float, float, int]:
    """Start, step and length of the m axis, checked before anything is allocated."""
    if args.m_range is None:
        return (0.0 if args.total % 2 == 0 else 0.5), 1.0, args.total // 2 + 1
    parts = args.m_range.split(":")
    if len(parts) not in (2, 3):
        raise ValueError("--m-range must be lo:hi or lo:hi:step")
    try:
        lo = float(parts[0])
        hi = float(parts[1])
        step = float(parts[2]) if len(parts) == 3 else 1.0
    except ValueError:
        raise ValueError(f"--m-range has a non-numeric part: {args.m_range!r}")
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise ValueError(f"--m-range must be finite: {args.m_range!r}")
    if step <= 0:
        raise ValueError("--m-range step must be positive")
    if hi < lo:
        raise ValueError("--m-range upper bound is below the lower bound")
    span = (hi - lo) / step + 1e-9
    if not math.isfinite(span):
        raise ValueError(f"--m-range has too many points: {args.m_range!r}")
    return lo, step, int(span) + 1


def _cmd_resource(args) -> int:
    data = coeffs_to_csv_bytes(resource_coeffs(_resource_params(args)).coeffs)
    _emit(args, data)
    return 0


def _cmd_distribution(args) -> int:
    target = _build_target(args)
    resource = resource_coeffs(_resource_params(args))
    data = distribution_to_csv_bytes(outcome_distribution(target, resource))
    _emit(args, data)
    return 0


def _cmd_fidelity(args) -> int:
    target = _build_target(args)
    params = _resource_params(args)
    resource = resource_coeffs(params)
    print(f"target={target.label} cutoff={target.cutoff}")
    print(f"n_in={params.n_in} m_in={params.m_in} beta={_fmt(params.beta)}")
    print(f"average_fidelity={_fmt(average_fidelity(target, resource))}")
    print(f"classical_baseline={_fmt(classical_baseline(target, params))}")
    return 0


def _grid_inputs(args, check_size) -> tuple[int, np.ndarray, np.ndarray]:
    """Total, beta axis and m axis of a grid command.

    check_size(total, n_beta, n_m) refuses too large a grid before the axes are built.
    A CSV and PGM path naming one file are refused first: the PGM would replace the CSV.
    """
    csv, pgm = _out_path(args, args.csv), _out_path(args, args.pgm)
    if os.path.realpath(csv) == os.path.realpath(pgm):
        raise ValueError(f"--csv and --pgm name the same file: {csv}")
    if args.total is None:
        raise ValueError("--total is required")
    if args.total < 0:
        raise ValueError("--total must be non-negative")
    if args.workers is not None and args.workers < 1:
        raise ValueError("--workers must be at least 1")
    if args.beta_steps < 2:
        raise ValueError("--beta-steps must be at least 2")
    lo, step, count = _m_range(args)
    check_size(args.total, args.beta_steps, count)
    beta_axis = math.pi * np.arange(1, args.beta_steps + 1, dtype=float) / (args.beta_steps + 1)
    return args.total, beta_axis, lo + step * np.arange(count, dtype=float)


def _write_grid(args, grid, scale: float) -> int:
    """Write a grid command's CSV and PGM, then print their paths and the grid maximum."""
    _write([(_out_path(args, args.csv), grid_to_csv_bytes(grid)),
            (_out_path(args, args.pgm), grid_to_pgm_bytes(grid, scale=scale))])
    finite = np.isfinite(grid.values)
    if not finite.any():
        print("no valid cells")
        return 0
    flat = np.where(finite, grid.values, -np.inf)
    i, k = np.unravel_index(int(np.argmax(flat)), flat.shape)
    print(f"max={_fmt(grid.values[i, k])} at beta={_fmt(grid.beta_axis[k])} "
          f"m={grid.m_axis[i]:g}")
    return 0


def _cmd_sweep(args) -> int:
    target = _build_target(args)
    inputs = _grid_inputs(args, partial(check_sweep_size, target))
    return _write_grid(args, fidelity_sweep(target, *inputs), scale=1.0)


def _cmd_phase_map(args) -> int:
    if args.phi_grid < MIN_PHASE_GRID:
        raise ValueError(f"--phi-grid must be at least {MIN_PHASE_GRID}")
    inputs = _grid_inputs(args, partial(check_phase_map_size, grid_size=args.phi_grid))
    grid = phase_argmax_map(*inputs, grid_size=args.phi_grid)
    return _write_grid(args, grid, scale=math.pi / 2)


def _cmd_oracle_check(args) -> int:
    if not 0 <= args.max_total <= MAX_VERIFY_TOTAL:
        raise ValueError(f"--max-total must lie in 0..{MAX_VERIFY_TOTAL}")
    if args.betas is None:
        betas = list(DEFAULT_ORACLE_BETAS)
    else:
        try:
            betas = [float(part) for part in args.betas.split(",") if part.strip()]
        except ValueError:
            raise ValueError(f"--betas has a non-numeric part: {args.betas!r}")
        if not betas:
            raise ValueError("--betas is empty")

    checks = 0
    failures = 0
    worst_deficit = 0.0
    worst_deviation = 0.0
    for total in range(args.max_total + 1):
        for beta in betas:  # sector by sector, so the oracle exponentiates each once
            for n_in in range(total + 1):
                report = verify_resource(ResourceParams(n_in, total - n_in, beta), tol=args.tol)
                checks += 1
                worst_deficit = max(worst_deficit, _overlap_deficit(report.overlap_modulus))
                worst_deviation = max(worst_deviation, report.max_deviation)
                if not report.passed:
                    failures += 1
                    if args.verbose:
                        print(f"FAIL n_in={n_in} m_in={total - n_in} beta={_fmt(beta)} "
                              f"overlap={_fmt(report.overlap_modulus)}")
    print(f"checks={checks} failures={failures}")
    print(f"worst_overlap_deficit={_fmt(worst_deficit)}")
    print(f"worst_entry_deviation={_fmt(worst_deviation)}")
    if failures:
        print("FAIL")
        return 2
    print("PASS")
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "command", None) is None:
            raise ValueError("a command is required (see --help)")
        if getattr(args, "config", None):
            argv = argv[:1] + _config_tokens(args.config) + argv[1:]
            args = parser.parse_args(argv)
        with warnings.catch_warnings():  # each warning as one line, e.g. per incompatible grid row
            warnings.simplefilter("always")
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
