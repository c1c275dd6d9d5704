"""xdiff benchmark: time to result for three named workloads, checked run by run.

Usage (from the repository root):

    python3 bench/run.py --workload fig1-blowup --seed 0 --seconds 40 --trace 0

The program is driven only through its Python entry points
(``preset_with_overrides`` -> ``xdiff.run`` -> ``cli.write_outputs``) from the
sources under ``src/``.  One invocation runs one workload back to back, one
run at a time, until ``--seconds`` have passed, and checks every run against
the correctness gate.  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` reports the per-layer split measured by the hooks in ``hooks.py``, from
traced runs that alternate with untraced ones to give the tracing overhead.
Human readable lines come first; the last line of standard output is one JSON
object.  Metric definitions and the seed-commit baseline live in
``record.json``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
RECORD = json.loads((HERE / "record.json").read_text())
METRICS = RECORD["metrics"]

SETUP_PROBES = 10
EXACT_COUNTS = (
    "integrator.steps",
    "model.rhs_calls",
    "grid.fft_calls",
    "diagnostics.records",
    "cli.bytes_written",
)
# Other tenants slow this machine by up to ~1.7x in spells lasting from a
# fraction of a second to minutes, which moves even the fastest of several
# runs by 20%+ between invocations.  Each run's wall time is therefore divided
# by the reference kernel's speed measured on the same core just before and
# after it, and reported at the kernel's nominal time on the baseline machine.
REF_N = 1024
REF_PASS_STEPS = 200
REF_NOMINAL_S = 0.009  # mean seconds per reference pass on the baseline machine
CAL_SHARE = 0.25  # reference sampling after each run, as a share of its wall time
CAL_MIN_S = 0.1
_REF_U = np.exp(-10.0 * np.linspace(-1.0, 1.0, REF_N, endpoint=False) ** 2)
_REF_IK = 1j * np.arange(REF_N // 2 + 1)
SEED_BAND = 0.01  # nonzero seeds scale both initial bumps by 1 +- this
ZERO_SET_BOUND = 1e-10  # criterion 3
BLOWUP_T_FACTOR = 1.5  # criterion 1: t_halt <= 1.5 t*
CLIP_BUDGET = 1e-8  # criterion 6, relative to the initial mass
HEADROOM_CAP = 1e12  # reported when a measure is 0 or a bound is infinite

# name -> (preset, overrides, expected halt reason, paper bounds carried)
WORKLOADS = {
    "fig1-blowup": ("fig1-blowup", {}, "blowup_detected", ("blowup_t", "clip")),
    "fig2-refine-2048": ("fig2-support", {"grid.N": "2048"}, "reached_t_end", ("zero_set", "clip")),
    "fig2-sqrt-record1": (
        "fig2-support",
        {"mode.kind": "sqrt", "run.record_every": "1"},
        "reached_t_end",
        ("zero_set", "clip"),
    ),
}


def _reference_step(u):
    uh = np.fft.rfft(u)
    ux = np.fft.irfft(uh * _REF_IK, n=REF_N)
    return u * ux + 0.5 * (u - ux * ux)


def reference_pass_s(budget_s: float) -> float:
    """Mean seconds per pass of a fixed numpy kernel, sampled for ``budget_s``.

    The kernel mixes what a run spends its time on (small real FFTs,
    elementwise products, Python calls) and uses no xdiff code, so it tracks
    how fast the machine is right now and nothing a change to xdiff can move.
    """
    times = []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        for _ in range(REF_PASS_STEPS):
            _reference_step(_REF_U)
        times.append(time.perf_counter() - t0)
    return sum(times) / len(times)


def seed_factor(seed: int) -> float:
    """Amplitude factor for a workload seed; seed 0 is the preset as shipped."""
    return 1.0 if seed == 0 else random.Random(seed).uniform(1.0 - SEED_BAND, 1.0 + SEED_BAND)


def workload_overrides(xdiff, name: str, seed: int, out_dir: Path) -> dict[str, str]:
    base, extra, _, _ = WORKLOADS[name]
    overrides = dict(extra, **{"run.output_dir": str(out_dir)})
    if seed != 0:
        shipped = xdiff.preset(base)
        f = seed_factor(seed)
        overrides["rho0.amp"] = repr(shipped.rho0.amp * f)
        overrides["A0.amp"] = repr(shipped.A0.amp * f)
    return overrides


def setup_probe(cmd: list[str], ref_s: float) -> dict[str, float]:
    """One cold set-up in a fresh interpreter (see setup_probe.py), with its
    total as a ratio to the reference pass time ``ref_s`` measured just before."""
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    probe = json.loads(done.stdout.strip().splitlines()[-1])
    probe["ratio"] = (probe["import_s"] + probe["config_s"]) / ref_s
    return probe


def one_run(xdiff, write_outputs, cfg, tracer=None) -> dict:
    """One workload run, xdiff.run then write_outputs; wall time covers both."""
    shutil.rmtree(cfg.output_dir, ignore_errors=True)
    gc.collect()
    start = time.perf_counter()
    if tracer is None:
        outcome = xdiff.run(cfg)
        write_outputs(outcome, cfg)
    else:
        with tracer.span("integrator.run"):
            outcome = xdiff.run(cfg)
        with tracer.span("cli.write"):
            write_outputs(outcome, cfg)
    wall = time.perf_counter() - start
    files = [p for p in Path(cfg.output_dir).iterdir() if p.is_file()]
    return {
        "wall": wall,
        "outcome": outcome,
        "sha256": hashlib.sha256((Path(cfg.output_dir) / "series.csv").read_bytes()).hexdigest(),
        "bytes_written": sum(p.stat().st_size for p in files),
    }


def headroom_of(limit: float, measured: float) -> float:
    """``limit / measured``, capped so that a zero measure or an infinite limit stays finite."""
    if measured <= 0 or limit >= HEADROOM_CAP * measured:
        return HEADROOM_CAP
    return limit / measured


def gate(name: str, cfg, res: dict, first_sha: str) -> tuple[list[str], dict[str, float]]:
    """Correctness gate for one run: the problems found and the headroom of each bound.

    Every headroom is reported on every workload; only the bounds a workload
    carries are gated on it.
    """
    from xdiff.cli import check_series
    from xdiff.diagnostics import t_star
    from xdiff.model import blowup_threshold

    _, _, expected, bounds = WORKLOADS[name]
    o = res["outcome"]
    p = cfg.params
    problems = []
    if o.halt_reason.value != expected:
        problems.append(f"halted {o.halt_reason.value}, expected {expected}")
    series_path = os.path.join(cfg.output_dir, "series.csv")
    problems += check_series(series_path, p.beta / (p.alpha * (1.0 - p.mu)))
    if res["sha256"] != first_sha:
        problems.append("series.csv differs from the first run of this invocation")

    # t* is infinite where no blow-up is predicted, so criterion 1 holds with the cap
    limit = BLOWUP_T_FACTOR * t_star(o.series[0].rho_xx_at_0, blowup_threshold(p))
    headroom = {"diagnostics.blowup_t_headroom": headroom_of(limit, o.final_state.t)}
    if "blowup_t" in bounds and not o.final_state.t <= limit:
        problems.append(f"criterion 1: t_halt {o.final_state.t:.6g} > 1.5 t* = {limit:.6g}")
    zs = [r.zero_set_max_rho for r in o.series if r.zero_set_max_rho is not None]
    zero_max = max(zs, default=math.inf)
    headroom["diagnostics.zero_set_headroom"] = headroom_of(ZERO_SET_BOUND, zero_max)
    if "zero_set" in bounds:
        if not zs:
            problems.append("criterion 3: no initial zero set was recorded")
        elif zero_max > ZERO_SET_BOUND:
            problems.append(f"criterion 3: zero-set max {zero_max:.3e} > {ZERO_SET_BOUND:g}")
    initial = o.initial_mass_rho + o.initial_mass_A
    clipped = (o.clipped_mass_rho + o.clipped_mass_A) / initial
    headroom["diagnostics.clip_headroom"] = headroom_of(CLIP_BUDGET, clipped)
    if clipped > CLIP_BUDGET:
        problems.append(f"criterion 6: clipped mass fraction {clipped:.3e} > {CLIP_BUDGET:g}")
    return problems, headroom


def layer_metrics(tracer, run_id: int, res: dict) -> dict[str, float]:
    """Per-layer numbers of one traced run.

    A layer whose hooks are all absent reads as 0 calls and 0 seconds, and is
    named in the report, so the result line still holds every metric.
    """
    layers = tracer.layer_times(run_id)
    o = res["outcome"]

    def total(layer):
        return layers.get(layer, {}).get("total", 0.0)

    def calls(layer):
        return layers.get(layer, {}).get("calls", 0)

    def per(x, n):
        return x / n if n else 0.0

    steps, rhs_calls, ffts = calls("integrator.step"), calls("model.rhs"), tracer.counts.get("grid.fft", 0)
    return {
        "cli.write_s": total("cli.write"),
        "cli.bytes_written": res["bytes_written"],
        "integrator.run_self_s": layers["integrator.run"]["self"],
        "kernel.symbol_s": total("kernel.symbol"),
        "grid.fft_calls": ffts,
        "grid.fft_bytes": tracer.fft_bytes,
        "grid.fft_calls_per_step": per(ffts, steps),
        "model.rhs_calls": rhs_calls,
        "model.rhs_s": total("model.rhs"),
        "model.rhs_us_per_call": per(1e6 * total("model.rhs"), rhs_calls),
        "integrator.rhs_calls_per_sim_time": rhs_calls / o.final_state.t,
        "model.energy_calls": calls("model.energy"),
        "model.energy_s": total("model.energy"),
        "integrator.steps": steps,
        "integrator.us_per_step": per(1e6 * total("integrator.step"), steps),
        # positivity runs only inside the step, and counts as step work here
        "integrator.step_self_s": layers.get("integrator.step", {}).get("self", 0.0)
        + total("integrator.positivity"),
        "integrator.positivity_s": total("integrator.positivity"),
        "integrator.cfl_dt_s": total("integrator.cfl_dt"),
        "diagnostics.record_s": total("diagnostics.record"),
        "diagnostics.support_s": total("diagnostics.support"),
        "diagnostics.curvature_s": total("diagnostics.curvature"),
        "diagnostics.symmetry_s": total("diagnostics.symmetry"),
        "diagnostics.records": calls("diagnostics.record"),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "xdiff" / "__init__.py").is_file():
        raise FileNotFoundError(f"no xdiff sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import xdiff
    from xdiff.cli import write_outputs

    if not Path(xdiff.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"xdiff imported from {xdiff.__file__}, not from {SRC}")

    out_dir = OUT / workload
    overrides = workload_overrides(xdiff, workload, seed, out_dir)
    base = WORKLOADS[workload][0]
    probe_cmd = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), base]
    probe_cmd.append(json.dumps(overrides))
    cfg = xdiff.preset_with_overrides(base, overrides)

    from hooks import Tracer

    # The reference kernel and every run share one core, so both meet the same
    # interference; probes inherit the affinity.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tracer = Tracer()
    runs, setups, problems, headroom, traced = [], [], [], {}, []
    first_sha = None
    begin = time.perf_counter()
    ref_before = reference_pass_s(CAL_MIN_S)
    # With tracing, traced and untraced runs alternate so that both meet the
    # same spells of interference.  No run starts that the last run's length
    # says would end past --seconds, so an invocation ends close to it.
    while True:
        # spread over the invocation, like the runs, so no single slow spell owns them all
        due = len(setups) * seconds / SETUP_PROBES
        while len(setups) < SETUP_PROBES and time.perf_counter() - begin >= due:
            setups.append(setup_probe(probe_cmd, ref_before))
            due = len(setups) * seconds / SETUP_PROBES
        use_tracer = trace and len(runs) % 2 == 1
        if use_tracer:
            tracer.begin_run(len(runs))
            with tracer.installed():
                res = one_run(xdiff, write_outputs, cfg, tracer)
        else:
            res = one_run(xdiff, write_outputs, cfg)
        ref_after = reference_pass_s(max(CAL_MIN_S, CAL_SHARE * res["wall"]))
        res["ratio"] = res["wall"] / (0.5 * (ref_before + ref_after))
        ref_before = ref_after
        res["traced"] = use_tracer
        first_sha = first_sha or res["sha256"]
        found, headroom = gate(workload, cfg, res, first_sha)
        if use_tracer:
            m = layer_metrics(tracer, len(runs), res)
            if traced and any(m.get(k) != traced[0][1].get(k) for k in EXACT_COUNTS):
                found.append("exact counts differ between traced runs")
            traced.append((res["wall"], m))
        res["problems"] = found
        problems += [f"run {len(runs)}: {msg}" for msg in found]
        res.pop("outcome")  # keep only what the report needs
        runs.append(res)
        if time.perf_counter() - begin + res["wall"] > seconds and len(runs) >= 1 + trace:
            break
    while len(setups) < SETUP_PROBES:
        setups.append(setup_probe(probe_cmd, reference_pass_s(CAL_MIN_S)))

    failed = sum(1 for r in runs if r["problems"])
    untraced = [r for r in runs if not r["traced"]]
    if trace:
        # per-layer seconds are raw, from the fastest traced run
        _, metrics = min(traced, key=lambda pair: pair[0])
        metrics["trace_overhead_frac"] = statistics.median(
            r["ratio"] for r in runs if r["traced"]
        ) / statistics.median(r["ratio"] for r in untraced) - 1.0
        metrics["config.build_s"] = min(s["config_s"] for s in setups)
        metrics.update(headroom)
        metrics["failed_runs"] = failed / len(runs)
    else:
        metrics = {
            "wall_s": REF_NOMINAL_S * statistics.median(r["ratio"] for r in untraced),
            "setup_s": REF_NOMINAL_S * statistics.median(s["ratio"] for s in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    level = "per_layer" if trace else "end_to_end"
    missing = sorted(k for k in METRICS if METRICS[k]["level"] == level and k not in metrics)
    not_finite = sorted(k for k, v in metrics.items() if not math.isfinite(v))
    if missing or not_finite:
        raise RuntimeError(f"metrics missing {missing} or not finite {not_finite}")

    if trace:
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        with open(spans_path, "w") as fh:
            for rec in tracer.spans:
                fh.write(json.dumps(rec) + "\n")
    return {
        "workload": workload,
        "seed": seed,
        "amplitude_factor": seed_factor(seed),
        "series_sha256": first_sha,
        "runs": len(runs),
        "untraced_walls_s": [r["wall"] for r in untraced],
        "untraced_ratios": [r["ratio"] for r in untraced],
        "setup_s_raw": [s["import_s"] + s["config_s"] for s in setups],
        "failed": failed,
        "failed_runs": failed / len(runs),
        "problems": problems,
        "absent_layers": tracer.absent,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, ImportError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    print(f"workload {result['workload']}  seed {result['seed']}", end="  ")
    print(f"amplitude x{result['amplitude_factor']!r}")
    print(f"series.csv sha256 {result['series_sha256']}")
    print(f"runs {result['runs']}  failed_runs = {result['failed_runs']!r} share")
    walls = result["untraced_walls_s"]
    print(
        f"uncalibrated wall time of the untraced runs: fastest {min(walls):.4f} s,"
        f" median {statistics.median(walls):.4f} s"
    )
    for msg in result["problems"]:
        print(f"FAIL {msg}")
    for layer, target in result["absent_layers"]:
        print(f"absent layer: {layer} (no {target})")
    for name, value in result["metrics"].items():
        print(f"{name} = {value!r} {METRICS[name]['unit']}")
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["runs"],
                "failed": result["failed"],
                "metrics": {
                    k: {"value": v, "unit": METRICS[k]["unit"]}
                    for k, v in result["metrics"].items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
