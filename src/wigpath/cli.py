"""Command-line interface: reproducible profile runs, the two-panel figure
bundle, consistency check suites, and saddle/sign diagnostic tables.

Every run writes a metadata sidecar (full configuration, package version,
wall time) next to its output, sufficient to re-run the command exactly.
Numbers are formatted with 17 significant digits so identical configurations
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time
import traceback
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .checks import SUITES, run_suite, sign_rows
from .integrate import MonteCarloSpec, QuadratureSpec, wigner_montecarlo, wigner_quadrature
from .saddle import RegionError, singular_zone, solve_saddle, wigner_saddle
from .states import FamilyParams, wigner_number, wigner_poisson, wigner_spectral

OUTDIR_ENV = "WIGPATH_OUTDIR"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_INTERNAL_ERROR = 3


class ConfigError(ValueError):
    pass


@contextlib.contextmanager
def _input_stage():
    """Scope in which a command builds and checks its inputs: a ValueError
    raised there (a bad level, FamilyParams, a spec or its BudgetError) is a
    config error, while one raised later, during the run, is an internal error."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fmt_column(column) -> list[str]:
    """One output column (an array, or a sequence of numbers and None) as
    `.17g` cells, None as an empty one, after one finiteness pass over its
    numbers; a non-finite number is an internal error."""
    cells = column.tolist() if isinstance(column, np.ndarray) else list(column)
    numbers = np.array([x for x in cells if x is not None], dtype=float)
    finite = np.isfinite(numbers)
    if not finite.all():
        raise FloatingPointError(f"non-finite output value {numbers[~finite][0]}")
    return ["" if x is None else format(x, ".17g") for x in cells]


def _table(header: list[str], columns, fmt: str) -> str:
    """A table of string cells, one column per header name (a `repeat`
    column ends with the others), as csv, or as the bytes of
    json.dumps([dict(zip(header, row)) for row in rows], indent=1) + "\n",
    written from one per-row template with each cell escaped by json's C
    string encoder (json.dumps with an indent runs the pure-Python one)."""
    rows = list(zip(*columns))
    if fmt == "csv":
        return "\n".join(",".join(row) for row in [header, *rows]) + "\n"
    if not rows:
        return "[]\n"
    quote = json.encoder.encode_basestring_ascii
    item = " {" + ",".join(f"\n  {quote(name).replace('%', '%%')}: %s" for name in header) + "\n }"
    return "[\n" + ",\n".join([item % tuple(map(quote, row)) for row in rows]) + "\n]\n"


def _emit(output: str | None, name: str, text: str, config: dict, started: float) -> Path:
    """Write one output file and its metadata sidecar, and return its path.

    The file goes to `output`, or else to `name` under $WIGPATH_OUTDIR (default
    the working directory).  The sidecar records the configuration, package
    version and wall time.
    """
    path = Path(output) if output else Path(os.environ.get(OUTDIR_ENV, ".")) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    meta = {
        "config": config,
        "artifact_version": __version__,
        "wall_time_seconds": time.time() - started,
        "output": path.name,
    }
    path.with_name(path.name + ".meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n"
    )
    return path


def _state_argument(args: argparse.Namespace):
    """The checked state argument of a profile route: N, n or FamilyParams."""
    if args.state == "poisson":
        if args.N is None or not args.N > 0:
            raise ConfigError("state 'poisson' needs a positive --N (mean occupation)")
        return args.N
    if args.state == "number":
        if args.n is None or args.n < 0:
            raise ConfigError("state 'number' needs a non-negative --n (the level)")
        return args.n
    if args.L is None or args.N is None:
        raise ConfigError("state 'family' needs --L and --N")
    return FamilyParams(args.L, args.N)


def _saddle_columns(rs: np.ndarray, n: int, L: int, normalization: str = "wkb-matched"):
    """The number-state saddle at each radius as (values, stderrs, zones):
    radii in a singular zone are masked out of the one wigner_saddle call and
    get None and the zone's name."""
    zones = singular_zone(rs, math.sqrt(n + 0.5))
    values = iter(wigner_saddle(rs[zones == ""], n, L=L, normalization=normalization).tolist())
    zones = zones.tolist()
    return [None if zone else next(values) for zone in zones], None, zones


def _saddle_route(args: argparse.Namespace, n: int):
    L = args.L if args.L is not None else 512
    if L < 1:
        raise ConfigError("the number-state saddle needs --L >= 1")
    return lambda rs: _saddle_columns(rs, n, L, args.normalization)


def _quadrature_route(args: argparse.Namespace, params: FamilyParams):
    spec = QuadratureSpec(points_per_dim=args.M)
    spec.check_budget(params.L)
    return lambda rs: _sample_columns(wigner_quadrature(rs, params, spec))


def _montecarlo_route(args: argparse.Namespace, params: FamilyParams):
    spec = MonteCarloSpec(
        args.samples, seed=args.seed, workers=args.workers, batch_size=args.batch_size
    )
    return lambda rs: _sample_columns(wigner_montecarlo(rs, params, spec))


def _exact_columns(values):
    return values, None, None


def _sample_columns(results: list):
    return [res.value for res in results], [res.standard_error for res in results], None


# (state, method) -> builder, which checks the options and the state argument
# (N, n or FamilyParams) and returns the evaluator rs -> (values, stderrs,
# regions), one column each over all radii, None for a column of empty cells.
# Evaluators look the routes up in this module when they run, so a replaced
# or wrapped name is the one called.
_PROFILE_ROUTES = {
    ("poisson", "exact"): lambda args, N: lambda rs: _exact_columns(wigner_poisson(rs, N)),
    ("number", "exact"): lambda args, n: lambda rs: _exact_columns(wigner_number(rs, n)),
    ("number", "saddle"): _saddle_route,
    ("family", "spectral"): lambda args, p: lambda rs: _exact_columns(wigner_spectral(rs, p)),
    ("family", "quadrature"): _quadrature_route,
    ("family", "mc"): _montecarlo_route,
}

_STATES = tuple(dict.fromkeys(state for state, _ in _PROFILE_ROUTES))


def _methods(state: str) -> list[str]:
    return [method for route_state, method in _PROFILE_ROUTES if route_state == state]


def _profile_table(r_cells: list[str], method: str, columns: tuple, fmt: str) -> str:
    """The r,W,method,stderr,region table of one radial profile, from its
    formatted radii and its (values, stderrs, regions) columns."""
    values, stderrs, regions = columns
    empty = repeat("")
    cells = (
        r_cells,
        _fmt_column(values),
        repeat(method),
        empty if stderrs is None else _fmt_column(stderrs),
        empty if regions is None else regions,
    )
    return _table(["r", "W", "method", "stderr", "region"], cells, fmt)


def cmd_profile(args: argparse.Namespace) -> int:
    started = time.time()
    with _input_stage():
        if args.state is None:
            raise ConfigError(f"profile needs --state ({', '.join(_STATES)})")
        methods = _methods(args.state)
        if args.method not in methods:
            raise ConfigError(f"state {args.state!r} supports --method {', '.join(methods)}")
        evaluate = _PROFILE_ROUTES[args.state, args.method](args, _state_argument(args))
        rs = np.linspace(args.r_min, args.r_max, args.points)
    text = _profile_table(_fmt_column(rs), args.method, evaluate(rs), args.fmt)
    name = f"profile_{args.state}_{args.method}.{args.fmt}"
    print(_emit(args.output, name, text, vars(args), started))
    return EXIT_OK


def _interpolate_gaps(rs: np.ndarray, vals: list, regions: list[str]) -> tuple[list, list[str]]:
    """Linearly fill region-error points from their valid neighbours (plot aid only)."""
    vals = list(vals)
    regions = list(regions)
    valid = np.array([v is not None for v in vals], dtype=bool)
    if not valid.any():
        return vals, regions
    # nearest valid index on each side, from one forward and one backward
    # pass: -1 where none lies to the left, len(vals) where none to the right
    index = np.arange(len(vals))
    lefts = np.maximum.accumulate(np.where(valid, index, -1))
    rights = np.minimum.accumulate(np.where(valid, index, len(vals))[::-1])[::-1]
    for i in np.flatnonzero(~valid).tolist():
        left, right = int(lefts[i]), int(rights[i])
        if left < 0 or right == len(vals):
            vals[i] = vals[right if left < 0 else left]
        else:
            w = (rs[i] - rs[left]) / (rs[right] - rs[left])
            vals[i] = (1.0 - w) * vals[left] + w * vals[right]
        regions[i] = f"interpolated:{regions[i]}"
    return vals, regions


def _figure2_panels(n: int, rs: np.ndarray, L: int) -> dict:
    """label -> (method, (values, stderrs, regions)) of one level's exact,
    saddle and Poisson panels."""
    exact = _exact_columns(wigner_number(rs, n))
    poisson = _exact_columns(wigner_poisson(rs, n + 0.5))
    saddle, stderrs, zones = _saddle_columns(rs, n, L)
    saddle, regions = _interpolate_gaps(rs, saddle, zones)
    return {
        "exact": ("exact", exact),
        "saddle": ("saddle", (saddle, stderrs, regions)),
        "poisson": ("exact", poisson),
    }


def cmd_figure2(args: argparse.Namespace) -> int:
    """Emit the exact, matched-saddle and Poisson radial profiles per level.

    Every level is computed before the first file is written, so a run that
    fails leaves no panel behind.
    """
    # the interpreter's own SHA-256 where it has one: hashlib loads OpenSSL
    try:
        from _sha2 import sha256  # Python >= 3.12
    except ImportError:
        try:
            from _sha256 import sha256  # Python <= 3.11
        except ImportError:
            from hashlib import sha256
    started = time.time()
    n_values, points, L, fmt = args.n, args.points, args.L, args.fmt
    with _input_stage():
        if any(n < 1 for n in n_values):
            raise ConfigError("figure2 needs n >= 1")
        if len(set(n_values)) < len(n_values):
            raise ConfigError("figure2 needs distinct levels --n")
        if L < 1:
            raise ConfigError("figure2 needs --L >= 1")
        grids = [np.linspace(0.0, math.sqrt(n + 0.5) + 2.0, points) for n in n_values]
    levels = [_figure2_panels(n, rs, L) for n, rs in zip(n_values, grids)]

    base = Path(args.out_dir) if args.out_dir else Path(os.environ.get(OUTDIR_ENV, ".")) / "figure2"
    base.mkdir(parents=True, exist_ok=True)
    manifest = {"artifact_version": __version__, "panels": []}
    for n, rs, panels in zip(n_values, grids, levels):
        files, r_cells = {}, _fmt_column(rs)
        for label, (method, columns) in panels.items():
            files[label] = f"n{n}_{label}.{fmt}"
            (base / files[label]).write_text(_profile_table(r_cells, method, columns, fmt))
        config = {"n": n, "N": n + 0.5, "points": points, "L": L, "fmt": fmt}
        digest = sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()
        manifest["panels"].append({"n": n, "files": files, "config": config, "config_sha256": digest})
    text = json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    print(_emit(str(base / "manifest.json"), "", text, vars(args), started))
    return EXIT_OK


def cmd_check(args: argparse.Namespace) -> int:
    started = time.time()
    if args.suite in ("sign", "all"):
        with _input_stage():
            if args.L_max < 1:
                raise ConfigError("the sign suite needs --L-max >= 1")
            MonteCarloSpec(args.samples, seed=args.seed)
    report = run_suite(args.suite, L_max=args.L_max, samples=args.samples, seed=args.seed)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.output:
        _emit(args.output, "", text + "\n", vars(args), started)
    print(text)
    return EXIT_OK if report["passed"] else EXIT_CHECK_FAILED


def cmd_saddle_table(args: argparse.Namespace) -> int:
    started = time.time()
    n, L, s_min, s_max = args.n, args.L, args.s_min, args.s_max
    with _input_stage():
        if n < 0:
            raise ConfigError("saddle-table needs --n >= 0")
        if L < 2:
            raise ConfigError("saddle-table needs --L >= 2")
        r = math.sqrt(n + 0.5)
        if s_max is None:
            s_max = r + 2.0
        if not (s_min >= 0 and s_max >= 0):
            raise ConfigError("saddle-table needs --smin and --smax >= 0")
        grid = np.linspace(s_min, s_max, args.points)
    header = [
        "s", "s_over_r", "branch", "theta_re", "theta_im",
        "action_re", "action_im", "logdet_re", "logdet_im", "t_re", "t_im", "residual", "region",
    ]
    # one solution per radius, or None and the name of the zone it lies in
    solutions, regions = [], []
    for s in grid.tolist():
        try:
            solutions.append(solve_saddle(s, r, L))
            regions.append("")
        except RegionError as exc:
            solutions.append(None)
            regions.append(exc.region)
    branches = ["" if sol is None else sol.branch for sol in solutions]
    columns = [_fmt_column(grid), _fmt_column(grid / r), branches]
    for name in ("theta", "stationary_action", "log_det_hessian", "t"):
        values = [None if sol is None else getattr(sol, name) for sol in solutions]
        for part in ("real", "imag"):
            columns.append(_fmt_column([None if z is None else getattr(z, part) for z in values]))
    residuals = [None if sol is None else sol.residual() for sol in solutions]
    columns += [_fmt_column(residuals), regions]
    name = f"saddle_n{n}_L{L}.{args.fmt}"
    print(_emit(args.output, name, _table(header, columns, args.fmt), vars(args), started))
    return EXIT_OK


def cmd_mc_diag(args: argparse.Namespace) -> int:
    started = time.time()
    with _input_stage():
        if args.L_min > args.L_max:
            raise ConfigError("mc-diag needs --L-min <= --L-max")
        spec = MonteCarloSpec(args.samples, seed=args.seed, workers=args.workers)
        members = [FamilyParams(L, args.N) for L in range(args.L_min, args.L_max + 1)]
    # the columns of sign_rows, in order, under shorter names
    header = ["L", "estimate", "stderr", "mean_phase_magnitude", "phase_stderr", "ess"]
    rows = sign_rows(members, complex(args.alpha), spec)
    columns = [_fmt_column(column) for column in zip(*(row.values() for row in rows))]
    name = f"mc_diag_N{args.N}.{args.fmt}"
    print(_emit(args.output, name, _table(header, columns, args.fmt), vars(args), started))
    return EXIT_OK


def _finite_float(text: str) -> float:
    """The type of every float option: a malformed, nan or infinite value is
    a usage error (exit 2), given as a flag or in a config file."""
    with contextlib.suppress(ValueError):
        if math.isfinite(value := float(text)):
            return value
    raise argparse.ArgumentTypeError(f"invalid finite float value: {text!r}")


def _read_config_file(path: str, prof: argparse.ArgumentParser) -> dict:
    """Plain key=value lines; '#' starts a comment.  Keys are the `profile`
    options' flag names (`rmax`) or destinations (`r_max`); returns raw
    strings by destination.

    argparse checks choices on the command line only, so a file value outside
    its option's choices is rejected here (every option with choices takes
    strings)."""
    actions = {
        key: a for a in prof._actions if a.dest not in ("help", "config")
        for key in (a.dest, *(opt.lstrip("-").replace("-", "_") for opt in a.option_strings))
    }
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        action = actions.get(key)
        if action is None:
            raise ConfigError(f"unknown config key {key!r}")
        if action.choices is not None and value not in action.choices:
            choices = ", ".join(map(repr, action.choices))
            raise ConfigError(f"config key {key!r}: invalid choice {value!r} ({choices})")
        values[action.dest] = value
    return values


def build_parser() -> tuple[argparse.ArgumentParser, argparse.ArgumentParser]:
    """The command parser and, by handle, its `profile` subparser."""
    parser = argparse.ArgumentParser(
        prog="wigpath",
        description="Wigner functions of radially squeezed states: closed forms, "
        "circle path-integral quadrature/Monte Carlo, and saddle-point asymptotics.",
    )
    parser.add_argument("--version", action="version", version=f"wigpath {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    prof = sub.add_parser("profile", help="radial Wigner profile of one state by one method")
    prof.add_argument("--config", help="key=value file; command-line flags override")
    prof.add_argument("--state", choices=_STATES)
    prof.add_argument("--n", type=int, help="number-state level")
    prof.add_argument("--N", type=_finite_float, help="mean occupation / circle radius squared")
    prof.add_argument("--L", type=int, help="slice count of the family member")
    prof.add_argument(
        "--method",
        help="evaluation route of the state: "
        + "; ".join(f"{state}: {', '.join(_methods(state))}" for state in _STATES),
    )
    prof.add_argument("--rmin", dest="r_min", type=_finite_float, default=0.0)
    prof.add_argument("--rmax", dest="r_max", type=_finite_float, default=4.0)
    prof.add_argument("--points", type=int, default=200)
    prof.add_argument("--M", type=int, default=128, help="quadrature points per angle")
    prof.add_argument("--samples", type=int, default=100_000)
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument(
        "--workers", type=int, default=1, help="threads splitting the Monte Carlo batches"
    )
    prof.add_argument("--batch", dest="batch_size", type=int)
    prof.add_argument("--normalization", choices=["raw", "wkb-matched"], default="wkb-matched")
    prof.add_argument("--out", dest="output")
    prof.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")

    fig = sub.add_parser("figure2", help="exact / saddle / Poisson profile bundle per level")
    fig.add_argument("--n", type=int, nargs="+", default=[1, 10])
    fig.add_argument("--points", type=int, default=801)
    fig.add_argument(
        "--L", type=int, default=512,
        help="slice count; the wkb-matched saddle panels do not use it, and it is "
        "only recorded in the manifest",
    )
    fig.add_argument("--out-dir", dest="out_dir")
    fig.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")

    chk = sub.add_parser("check", help="run a named cross-validation suite")
    chk.add_argument("suite", choices=[*SUITES, "all"])
    chk.add_argument("--out", dest="output")
    chk.add_argument("--L-max", dest="L_max", type=int, default=5, help="sign suite: largest L")
    chk.add_argument("--samples", type=int, default=200_000, help="sign suite: samples per L")
    chk.add_argument("--seed", type=int, default=7, help="sign suite: RNG seed")

    sad = sub.add_parser("saddle-table", help="dump solved saddle data over an |alpha| grid")
    sad.add_argument("--n", type=int, required=True)
    sad.add_argument("--L", type=int, default=8)
    sad.add_argument("--smin", dest="s_min", type=_finite_float, default=0.05)
    sad.add_argument("--smax", dest="s_max", type=_finite_float)
    sad.add_argument("--points", type=int, default=50)
    sad.add_argument("--out", dest="output")
    sad.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")

    mcd = sub.add_parser("mc-diag", help="sign-problem diagnostics over a range of L")
    mcd.add_argument("--N", type=_finite_float, required=True)
    mcd.add_argument("--alpha", type=_finite_float, default=0.8)
    mcd.add_argument("--L-min", dest="L_min", type=int, default=1)
    mcd.add_argument("--L-max", dest="L_max", type=int, default=5)
    mcd.add_argument("--samples", type=int, default=200_000)
    mcd.add_argument("--seed", type=int, default=0)
    mcd.add_argument("--workers", type=int, default=1)
    mcd.add_argument("--out", dest="output")
    mcd.add_argument("--format", dest="fmt", choices=["csv", "json"], default="csv")

    return parser, prof


# each command is given its parsed options, which are also the configuration
# its sidecar records
_COMMANDS = {
    "profile": cmd_profile,
    "figure2": cmd_figure2,
    "check": cmd_check,
    "saddle-table": cmd_saddle_table,
    "mc-diag": cmd_mc_diag,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, prof = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "profile":
            if args.config is not None:
                # file values become the subparser's defaults: argparse converts
                # them by each option's type, and command-line flags still win
                prof.set_defaults(**_read_config_file(args.config, prof))
                args = parser.parse_args(argv)
            # the sidecar records the merged values, not the file they came from
            del args.config
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
