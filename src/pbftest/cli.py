"""Command-line entry point: test, simulate, power, sweep, spectrum.

Results go to stdout (JSON or CSV) and diagnostics to stderr, so outputs
are pipeable.  Exit codes: 0 completed, 1 usage error, 2 data error,
3 numerical failure.
"""

import argparse
import functools
import json
import secrets
import sys
from dataclasses import asdict

import numpy as np

from .curves import (
    COEFF,
    GRID,
    DataError,
    GridSpec,
    NumericalError,
    _read_rows,
    read_curves_csv,
    write_curves_csv,
    gram_entries,
)
from .harness import (
    _FIELD_TYPES,
    ScenarioConfig,
    _one_blas_thread,
    _resolve_grid,
    append_ledger,
    ingest_pair,
    parse_phi_list,
    power_rows,
    read_config_file,
    run_power,
    run_sweep,
)
from .permute import permutation_test
from .simgen import SCENARIO_IDS, generate_pair
from .spectrum import sample_limit_law, spectrum_estimate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the CLI contract wants 1.
    def error(self, message):
        raise UsageError(message)


def _phi_list(text: str) -> tuple:
    # an argparse type; UsageError passes through parse_args with this message
    try:
        return parse_phi_list(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _float_list(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"cannot parse number list {text!r}") from exc


def _effective_seed(seed) -> int:
    if seed is None:
        seed = secrets.randbits(63)
    print(f"effective seed: {seed}", file=sys.stderr)
    return int(seed)


def _load_grid(path) -> GridSpec:
    values, _, _ = _read_rows(path, False, finite=False)  # GridSpec checks these
    if values.shape[0] != 1:
        raise DataError(f"{path}: grid file must hold exactly one row of abscissae")
    try:
        return GridSpec(values[0])
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from exc


def _add_common_scenario_flags(sub):
    sub.add_argument("--scenario", required=False, help=f"one of {', '.join(SCENARIO_IDS)}")
    sub.add_argument("--r", type=float, default=None, help="location-shift magnitude (ex4)")
    sub.add_argument("--sigma", type=float, default=None, help="scale parameter (ex5)")
    sub.add_argument("--d", type=int, default=None, help="basis dimension (ex6/ex7)")
    sub.add_argument("--delta", type=float, default=None, help="mixture strength (ex7-ex9)")
    sub.add_argument("--grid-points", type=int, default=None, help="simulation grid size")
    sub.add_argument(
        "--normalized-cos", action="store_true", default=None,
        help="use the orthonormal sqrt(2)-scaled cosine family in ex6/ex7",
    )
    sub.add_argument(
        "--sampled-on-grid", action="store_true", default=None,
        help="render basis scenarios on the simulation grid instead of exact coefficients",
    )


@functools.cache  # built once per process; parse_args returns a fresh namespace
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="pbftest", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_test = subs.add_parser("test", help="two-sample test on two curve CSV files")
    p_test.add_argument("x_csv", help="first-sample curves (wide CSV)")
    p_test.add_argument("y_csv", help="second-sample curves (wide CSV)")
    p_test.add_argument("--phi", type=_phi_list, default="l2", help="distance transform: l2, exp or log")
    p_test.add_argument("--b", type=int, default=10000, help="number of random permutations")
    p_test.add_argument("--seed", type=int, default=None)
    p_test.add_argument("--repr", choices=[GRID, COEFF], default=GRID, dest="repr_kind")
    p_test.add_argument("--grid", default=None, help="one-line CSV of grid abscissae")
    p_test.add_argument("--header", action="store_true", help="first row holds grid abscissae")
    p_test.add_argument("--keep-replicates", action="store_true")
    p_test.set_defaults(handler=cmd_test)

    p_sim = subs.add_parser("simulate", help="write scenario samples as curve CSV files")
    _add_common_scenario_flags(p_sim)
    p_sim.add_argument("--count", type=int, default=50, help="curves per group")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--out-x", default="x.csv")
    p_sim.add_argument("--out-y", default="y.csv")
    p_sim.set_defaults(handler=cmd_simulate)

    for name, help_text in (
        ("power", "rejection rate of one scenario"),
        ("sweep", "rejection rates over a parameter grid"),
    ):
        p = subs.add_parser(name, help=help_text)
        _add_common_scenario_flags(p)
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--m", type=int, default=None)
        p.add_argument("--b", type=int, default=None, dest="B", help="permutations per test")
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--reps", type=int, default=None)
        p.add_argument(
            "--phi", type=_phi_list, default=None, dest="phis", metavar="PHI",
            help="comma list: l2,exp,log",
        )
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", default=None, help="key=value config file (flags override)")
        p.add_argument("--out", default="power_results.csv", help="CSV ledger to append to")
        p.add_argument("--json", action="store_true", help="mirror results as JSON on stdout")
        p.add_argument(
            "--threads", type=int, default=None, dest="workers", metavar="THREADS",
            help="replication workers (0 = auto; default: the config file's workers, else 1)",
        )
        if name == "sweep":
            p.add_argument("--param", required=True, help="parameter to sweep (r, sigma, d, delta, n, m, B)")
            p.add_argument("--values", required=True, help="comma list of parameter values")
        p.set_defaults(handler=cmd_study, param=None)

    p_spec = subs.add_parser("spectrum", help="limiting-law eigenvalues of a null sample")
    p_spec.add_argument("--input", required=True, help="pooled null curves (wide CSV)")
    p_spec.add_argument("--phi", type=_phi_list, default="l2")
    p_spec.add_argument("--repr", choices=[GRID, COEFF], default=GRID, dest="repr_kind")
    p_spec.add_argument("--grid", default=None, help="one-line CSV of grid abscissae")
    p_spec.add_argument("--header", action="store_true")
    p_spec.add_argument("--draws", type=int, default=100000, help="Monte-Carlo draws for quantiles")
    p_spec.add_argument("--quantiles", default="0.5,0.9,0.95,0.99")
    p_spec.add_argument("--seed", type=int, default=None)
    p_spec.set_defaults(handler=cmd_spectrum)

    return parser


def cmd_test(args) -> int:
    if len(args.phi) != 1:
        raise UsageError("test takes exactly one phi")
    if args.b < 1:
        raise UsageError("--b must be at least 1")
    seed = _effective_seed(args.seed)
    grid = _load_grid(args.grid) if args.grid else None
    sample, dropped = ingest_pair(args.x_csv, args.y_csv, args.repr_kind, grid, args.header)
    if dropped:
        print(f"dropped {dropped} row(s) with missing values", file=sys.stderr)
    result = permutation_test(
        sample, args.phi[0], B=args.b, seed=seed, keep_replicates=args.keep_replicates
    )
    print(json.dumps(result.to_json_dict()))
    return EXIT_OK


def _settings(args) -> dict:
    """The `ScenarioConfig` fields given as flags; each flag's dest is its field name."""
    return {k: v for k, v in vars(args).items() if k in _FIELD_TYPES and v is not None}


def cmd_simulate(args) -> int:
    if not args.scenario:
        raise UsageError("--scenario is required")
    if args.count < 1:
        raise UsageError("--count must be at least 1")
    settings = _settings(args) | {"n": args.count, "m": args.count}
    settings["seed"] = _effective_seed(settings.get("seed"))
    config = ScenarioConfig(**settings)
    sample = generate_pair(config.scenario_obj(), config.n, config.m, config.seed)
    write_curves_csv(args.out_x, sample.values[sample.labels == 0])
    write_curves_csv(args.out_y, sample.values[sample.labels == 1])
    print(f"wrote {config.n} curves to {args.out_x} and {config.m} to {args.out_y}", file=sys.stderr)
    return EXIT_OK


def _power_config(args) -> ScenarioConfig:
    settings = read_config_file(args.config) if args.config else {}
    settings.update(_settings(args))  # a flag beats the file
    if "scenario" not in settings:
        raise UsageError("--scenario (or a config file providing it) is required")
    settings.setdefault("n", 50)
    settings.setdefault("m", 50)
    settings["seed"] = _effective_seed(settings.get("seed"))
    return ScenarioConfig(**settings)  # main maps its ValueError to exit 1


def _progress_printer(reps: int):
    step = max(1, reps // 10)

    def report(done: int):
        if done % step == 0 or done == reps:
            print(f"replication {done}/{reps}", file=sys.stderr)

    return report


def cmd_study(args) -> int:
    """`power`, or `sweep` when `--param` names a parameter to vary."""
    config = _power_config(args)
    if args.param is None:
        rows = power_rows(config, run_power(config, progress=_progress_printer(config.reps)))
    else:
        values = _float_list(args.values)
        if not values:
            raise UsageError("--values needs at least one number")
        progress = _progress_printer(config.reps * len(values))
        rows = run_sweep(config, args.param, values, progress=progress)
    append_ledger(args.out, rows)
    if args.json:
        print(json.dumps({"config": asdict(config), "results": rows}))  # a PhiKind is a str
    else:
        for row in rows:
            point = f" {row['param']}={row['value']}" if row["param"] else ""
            print(
                f"{row['scenario']}{point} phi={row['phi']}: rate={row['rate']:.4f} "
                f"(+/- {row['stderr']:.4f}, {row['rejections']}/{row['reps']})"
            )
    return EXIT_OK


def cmd_spectrum(args) -> int:
    if len(args.phi) != 1:
        raise UsageError("spectrum takes exactly one phi")
    if args.draws < 1:
        raise UsageError("--draws must be at least 1")
    quantiles = _float_list(args.quantiles)
    if not quantiles:
        raise UsageError("--quantiles needs at least one number")
    if any(not 0.0 < q < 1.0 for q in quantiles):
        raise UsageError("quantiles must lie strictly between 0 and 1")
    seed = _effective_seed(args.seed)
    values, abscissae, dropped = read_curves_csv(args.input, args.header)
    if values.shape[0] < 3:
        raise DataError(f"{args.input}: spectrum estimation needs at least 3 curves")
    if dropped:
        print(f"dropped {dropped} row(s) with missing values", file=sys.stderr)
    grid = _load_grid(args.grid) if args.grid else None
    grid = _resolve_grid(args.repr_kind, grid, abscissae, values.shape[1])
    entries = gram_entries(values, args.repr_kind, grid)
    spec = spectrum_estimate(entries, args.phi[0])
    draws = sample_limit_law(spec, args.draws, seed=seed)
    print("k,eigenvalue")
    for k, lam in enumerate(spec.eigenvalues, start=1):
        print(f"{k},{lam:.12g}")
    print()
    print("quantile,value")
    for q, value in zip(quantiles, np.quantile(draws, quantiles)):  # one partition
        print(f"{q:g},{float(value):.12g}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with _one_blas_thread():
            return args.handler(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (UsageError, ValueError, MemoryError) as exc:  # MemoryError: --b, --n, ... too large
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())
