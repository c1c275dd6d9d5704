"""Batch command-line front-end: run / preset / check / sweep.

Exit codes distinguish scientific outcomes from failures: 0 end time reached,
3 blow-up detected, 4 step-size underflow, 2 numerical fault, 1 bad
configuration or I/O.  ``check`` exits 5 on a series that fails an invariant;
2 is also argparse's code for a usage error.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import sys
from operator import attrgetter

from .config import ConfigError, RunConfig, parse_config, preset_with_overrides
from .integrator import HaltReason, RunOutcome, run

EXIT_CODE = {
    HaltReason.REACHED_T_END: 0,
    HaltReason.NUMERICAL_FAULT: 2,
    HaltReason.BLOWUP_DETECTED: 3,
    HaltReason.DT_UNDERFLOW: 4,
}
CHECK_FAILED = 5


# the one number format of the output files and the printed halt time: 17
# significant digits read back as the same float
NUMBER = "%.17g"

# series.csv columns in file order: (column name, DiagnosticRecord field)
SERIES_COLUMNS = (
    ("t", "t"),
    ("max_rho", "max_rho"),
    ("min_rho", "min_rho"),
    ("min_A", "min_A"),
    ("rho_xx_0", "rho_xx_at_0"),
    ("supp_rho_lo", "supp_rho_lo"),
    ("supp_rho_hi", "supp_rho_hi"),
    ("supp_A_lo", "supp_A_lo"),
    ("supp_A_hi", "supp_A_hi"),
    ("mass_rho", "mass_rho"),
    ("mass_A", "mass_A"),
    ("e_tilde", "e_tilde"),
    ("e_sqrt", "e_sqrt"),
    ("sym_defect", "symmetry_defect_rho"),
)
SERIES_HEADER = ",".join(name for name, _ in SERIES_COLUMNS)
SERIES_ROW = ",".join(NUMBER for _ in SERIES_COLUMNS)
_series_values = attrgetter(*(field for _, field in SERIES_COLUMNS))


def write_outputs(outcome: RunOutcome, config: RunConfig) -> None:
    """Write series.csv, one snapshot_<k>.csv per snapshot (deleting any other), and outcome.txt."""
    out_dir = config.output_dir
    os.makedirs(out_dir, exist_ok=True)

    lines = [SERIES_HEADER]
    for rec in outcome.series:
        lines.append(SERIES_ROW % _series_values(rec))
    with open(os.path.join(out_dir, "series.csv"), "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")

    # a run's snapshots share its grid, so the x column and the file's format
    # are built once; each file is one % over the flat (x, A, rho, ...) rows
    snapshots = outcome.snapshots
    if snapshots:
        n = snapshots[0].grid.N
        file_format = "x,A,rho\n" + f"%s,{NUMBER},{NUMBER}\n" * n
        flat: list = [None] * (3 * n)
        flat[0::3] = [NUMBER % x for x in snapshots[0].grid.x.tolist()]
    for k, snap in enumerate(snapshots):
        flat[1::3] = snap.A.values.tolist()
        flat[2::3] = snap.rho.values.tolist()
        with open(os.path.join(out_dir, f"snapshot_{k}.csv"), "w", newline="\n") as fh:
            fh.write(file_format % tuple(flat))
    written = {f"snapshot_{k}.csv" for k in range(len(snapshots))}
    for name in os.listdir(out_dir):
        if re.fullmatch(r"snapshot_\d+\.csv", name) and name not in written:
            os.remove(os.path.join(out_dir, name))

    zero_set = [r.zero_set_max_rho for r in outcome.series if r.zero_set_max_rho is not None]
    summary = [
        ("halt_reason", outcome.halt_reason.value),
        ("final_t", NUMBER % outcome.final_state.t),
        ("steps", str(outcome.steps)),
        ("rhs_evals", str(outcome.rhs_evals)),
        ("records", str(len(outcome.series))),
        ("initial_mass_rho", NUMBER % outcome.initial_mass_rho),
        ("initial_mass_A", NUMBER % outcome.initial_mass_A),
        ("clipped_mass_rho", NUMBER % outcome.clipped_mass_rho),
        ("clipped_mass_A", NUMBER % outcome.clipped_mass_A),
        ("max_rho_on_initial_zero_set", NUMBER % max(zero_set) if zero_set else "nan"),
    ]
    if outcome.fault_detail:
        summary.append(("fault_detail", outcome.fault_detail))
    with open(os.path.join(out_dir, "outcome.txt"), "w", newline="\n") as fh:
        for key, value in summary:
            fh.write(f"{key} = {value}\n")


def execute(config: RunConfig) -> tuple[int, RunOutcome]:
    """Run one configuration, write its outputs, and map the halt to an exit code."""
    outcome = run(config)
    write_outputs(outcome, config)
    return EXIT_CODE[outcome.halt_reason], outcome


def _run_config_file(path: str) -> int:
    with open(path) as fh:
        text = fh.read()
    config = parse_config(text, base_dir=os.path.dirname(os.path.abspath(path)))
    code, outcome = execute(config)
    print(f"{path}: {outcome.halt_reason.value} at t = {NUMBER % outcome.final_state.t}")
    return code


def _sweep_workers(n_configs: int) -> int:
    """Worker count for a sweep: the CPUs this process may run on, at most one per config.

    The affinity mask counts where the platform has one, so ``taskset`` or a
    cpuset limits the workers.  With the fork start method the pool forks
    every worker at the first submit, so an uncapped count would start
    processes with nothing to run.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return min(n_configs, cpus)


def _process_pool(max_workers: int):
    """The sweep's process pool.  Only ``sweep`` imports it, so no other
    command, and no caller of ``write_outputs``, loads ``multiprocessing``."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=max_workers)


def _sweep_one(path: str) -> int:
    """One sweep entry; a bad file, or one whose arrays cannot be allocated,
    is reported against its path and stops no other run."""
    try:
        return _run_config_file(path)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"{path}: error: {exc}", file=sys.stderr)
        return 1


# ---------------------------------------------------------------------------
# series.csv invariant re-checks
# ---------------------------------------------------------------------------


def check_series(path: str, rho_linf_bound: float | None = None) -> list[str]:
    """Re-run the series-level invariants on an existing series.csv.

    Returns a list of violation messages (empty when everything holds).  The
    density-sup envelope needs the model bound beta/(alpha*(1-mu)); it is
    only checked when that number is supplied; it must be positive and finite.
    """
    if rho_linf_bound is not None and not (math.isfinite(rho_linf_bound) and rho_linf_bound > 0):
        raise ValueError(f"the density bound must be positive and finite, got {rho_linf_bound}")
    names = [name for name, _ in SERIES_COLUMNS]
    col = {name: i for i, name in enumerate(names)}
    rows, problems = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            return ["series has no header"]
        if header != names:
            return [f"unexpected header {','.join(header)!r}"]
        for k, cells in enumerate(reader, start=1):
            if len(cells) != len(names):
                problems.append(f"row {k} has {len(cells)} cells, header has {len(names)}")
                continue
            rows.append([])
            for name, cell in zip(names, cells):
                try:
                    rows[-1].append(float(cell))
                except ValueError:
                    problems.append(f"row {k} column {name}: {cell!r} is not a number")
    if problems:
        return problems
    if not rows:
        return ["series has no records"]

    ts = [row[col["t"]] for row in rows]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        problems.append("timestamps are not strictly increasing")
    finite_only = [name for name in col if not name.startswith(("e_", "supp_"))]
    if any(not math.isfinite(row[col[name]]) for row in rows for name in finite_only):
        problems.append("non-finite value outside the energy and support columns")
    if any(row[col["min_rho"]] < 0 for row in rows):
        problems.append("min_rho drops below zero")
    if any(row[col["min_A"]] < 0 for row in rows):
        problems.append("min_A drops below zero")
    if any(row[col["e_tilde"]] < 1 or row[col["e_sqrt"]] < 1 for row in rows):
        problems.append("an energy drops below its floor of 1")
    for name in ("supp_rho", "supp_A"):
        lo, hi = col[f"{name}_lo"], col[f"{name}_hi"]
        for row in rows:
            if math.isnan(row[lo]) != math.isnan(row[hi]) or (
                not math.isnan(row[lo]) and row[lo] > row[hi]
            ):
                problems.append(f"{name} endpoints are inconsistent")
                break

    if rho_linf_bound is not None:
        cap = max(rows[0][col["max_rho"]], rho_linf_bound) * 1.01
        if any(row[col["max_rho"]] > cap for row in rows):
            problems.append(f"max_rho exceeds its envelope {cap}")
        prev = None
        for row in rows:
            value = row[col["max_rho"]]
            if prev is not None and prev > rho_linf_bound and value > prev * (1 + 1e-12):
                problems.append("max_rho increases while above the density bound")
                break
            prev = value
    return problems


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _parse_overrides(items: list[str]) -> dict[str, str]:
    overrides = {}
    for item in items:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        overrides[key.strip()] = value.strip()
    return overrides


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xdiff",
        description="Periodic-domain simulator for the coupled area/density cross-diffusion system",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configuration file")
    p_run.add_argument("config", help="path to a flat key = value configuration")

    p_preset = sub.add_parser("preset", help="run a built-in experiment")
    p_preset.add_argument("name", help="fig1-blowup or fig2-support")
    p_preset.add_argument("--out", help="output directory (defaults to the preset's)")
    p_preset.add_argument(
        "--override",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="replace one configuration entry (repeatable)",
    )

    p_check = sub.add_parser("check", help="re-run the invariant suite on a series.csv")
    p_check.add_argument("series", help="path to a series.csv written by a run")
    p_check.add_argument(
        "--rho-linf-bound",
        type=float,
        default=None,
        help="density sup bound beta/(alpha*(1-mu)) enabling the envelope checks",
    )

    p_sweep = sub.add_parser("sweep", help="run several configuration files concurrently")
    p_sweep.add_argument("configs", nargs="+", help="configuration files, one run each")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _run_config_file(args.config)

        if args.command == "preset":
            overrides = _parse_overrides(args.override)
            if args.out is not None:
                overrides["run.output_dir"] = args.out
            config = preset_with_overrides(args.name, overrides)
            code, outcome = execute(config)
            print(
                f"{args.name}: {outcome.halt_reason.value} at t = "
                f"{NUMBER % outcome.final_state.t} ({outcome.steps} steps) -> {config.output_dir}"
            )
            return code

        if args.command == "check":
            problems = check_series(args.series, args.rho_linf_bound)
            if problems:
                for problem in problems:
                    print(f"FAIL: {problem}")
                return CHECK_FAILED
            print("ok: all series invariants hold")
            return 0

        # sweep
        with _process_pool(_sweep_workers(len(args.configs))) as pool:
            codes = list(pool.map(_sweep_one, args.configs))
        bad = [c for c in codes if c not in (0, 3)]
        return max(bad) if bad else 0

    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"memory error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
