import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from xdiff import cli
from xdiff.cli import SERIES_HEADER, check_series, main
from xdiff.config import parse_config
from xdiff.grid import Grid

TINY_CONFIG = """
grid.L = 1.0
grid.N = 16
params.alpha = 1.0
params.mu = 0.5
params.beta = 0.75
params.beta_tilde = 0.5
params.K = 1.0
params.K_tilde = 0.5
params.kernel.kind = box
params.kernel.half_width = 0.05
rho0.kind = constant
rho0.c = 1.0
A0.kind = constant
A0.c = 1.0
run.t_end = {t_end}
run.record_every = 5
run.snapshot_times = {snaps}
run.output_dir = {out}
"""


def write_config(tmp_path, name="run.cfg", t_end="0.0", snaps="0.0", out=None):
    out = out or str(tmp_path / "out")
    path = tmp_path / name
    path.write_text(TINY_CONFIG.format(t_end=t_end, snaps=snaps, out=out))
    return path, out


HUGE_N = 1099511627776  # 2**40 nodes: 8 TiB per float64 array
TOO_BIG = 10**400  # an integer no float can hold
REFUSAL = f"Unable to allocate 8.00 TiB for an array with shape ({HUGE_N},)"


@pytest.fixture
def unallocatable_grid(monkeypatch):
    """Refuse a grid of HUGE_N nodes the way numpy refuses an 8 TiB array,
    wherever the grid is built.

    The test never asks for the memory: with overcommit on, numpy may accept
    such a request and the process would fault later instead.
    """
    real_post_init = Grid.__post_init__

    def post_init(grid):
        if grid.N == HUGE_N:
            raise MemoryError(REFUSAL)
        real_post_init(grid)

    monkeypatch.setattr(Grid, "__post_init__", post_init)


def write_huge_config(tmp_path, name="huge.cfg"):
    path, _ = write_config(tmp_path, name, out=str(tmp_path / "huge"))
    path.write_text(path.read_text().replace("grid.N = 16", f"grid.N = {HUGE_N}"))
    return path


class TestRunCommand:
    def test_zero_step_run_writes_single_record(self, tmp_path):
        path, out = write_config(tmp_path)
        assert main(["run", str(path)]) == 0
        lines = (tmp_path / "out" / "series.csv").read_text().splitlines()
        assert lines[0] == SERIES_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("0,")

    def test_an_empty_support_writes_nan_hull_edges(self, tmp_path):
        path, out = write_config(tmp_path)
        path.write_text(path.read_text().replace("A0.c = 1.0", "A0.c = 0.0"))
        assert main(["run", str(path)]) == 0
        series = tmp_path / "out" / "series.csv"
        row = dict(zip(SERIES_HEADER.split(","), series.read_text().splitlines()[1].split(",")))
        assert (row["supp_A_lo"], row["supp_A_hi"]) == ("nan", "nan")
        assert (row["supp_rho_lo"], row["supp_rho_hi"]) == ("-1", "1")
        assert check_series(str(series)) == []

    def test_an_integer_no_float_can_hold_is_reported_at_its_line(self, tmp_path, capsys):
        path, _ = write_config(tmp_path)
        path.write_text(path.read_text().replace("grid.N = 16", f"grid.N = {TOO_BIG}"))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: line 3: grid.N must be an integer, got {TOO_BIG}\n"

    @pytest.mark.parametrize("n", [2**64, 2**62])
    def test_a_mesh_numpy_cannot_size_is_reported_at_its_line(self, tmp_path, capsys, n):
        # neither size fits numpy's index type, so the grid refuses both
        # before allocating; a size numpy would try to allocate is the
        # unallocatable_grid fixture's MemoryError
        path, _ = write_config(tmp_path)
        path.write_text(path.read_text().replace("grid.N = 16", f"grid.N = {n}"))
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: line 3: grid.N is too large for an array, got {n}\n"

    def test_snapshot_of_constant_state(self, tmp_path):
        path, out = write_config(tmp_path)
        main(["run", str(path)])
        rows = (tmp_path / "out" / "snapshot_0.csv").read_text().splitlines()
        assert rows[0] == "x,A,rho"
        assert len(rows) == 17  # header + one row per node
        assert all(row.split(",")[1] == "1" for row in rows[1:])

    def test_a_rerun_into_one_directory_keeps_only_its_own_snapshots(self, tmp_path):
        # four snapshots, then one: the second run's directory holds one
        # snapshot file, and files of other names stay
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / "notes.txt").write_text("kept")
        (tmp_path / "out" / "snapshot_a.csv").write_text("kept")
        path, _ = write_config(tmp_path, t_end="0.001", snaps="0.0, 2.5e-4, 5e-4, 7.5e-4")
        assert main(["run", str(path)]) == 0
        snapshots = sorted(p.name for p in (tmp_path / "out").glob("snapshot_*.csv"))
        assert snapshots == [f"snapshot_{k}.csv" for k in range(4)] + ["snapshot_a.csv"]
        at_zero = (tmp_path / "out" / "snapshot_0.csv").read_bytes()
        path, _ = write_config(tmp_path, t_end="0.001", snaps="5e-4")
        assert main(["run", str(path)]) == 0
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        kept = ["notes.txt", "outcome.txt", "series.csv", "snapshot_0.csv", "snapshot_a.csv"]
        assert names == kept
        assert (tmp_path / "out" / "snapshot_0.csv").read_bytes() != at_zero

    def test_outcome_file_contains_halt_reason(self, tmp_path):
        path, out = write_config(tmp_path, t_end="0.001")
        assert main(["run", str(path)]) == 0
        text = (tmp_path / "out" / "outcome.txt").read_text()
        assert "halt_reason = reached_t_end" in text
        assert "final_t = " in text

    def test_outcome_file_counts_the_right_sides(self, tmp_path):
        path, out = write_config(tmp_path, t_end="0.001")
        config = parse_config(path.read_text())
        outcome = cli.execute(config)[1]
        assert outcome.rhs_evals >= 2 * outcome.steps > 0  # every step takes 2 stages or more
        text = (tmp_path / "out" / "outcome.txt").read_text()
        assert f"steps = {outcome.steps}\nrhs_evals = {outcome.rhs_evals}\n" in text

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 1

    def test_invalid_config_exits_one(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("grid.N = 15\n")
        assert main(["run", str(path)]) == 1

    def test_unallocatable_grid_is_one_line_error(self, tmp_path, unallocatable_grid, capfd):
        path = write_huge_config(tmp_path)
        assert main(["run", str(path)]) == 1
        assert capfd.readouterr().err == f"memory error: {REFUSAL}\n"
        assert not (tmp_path / "huge").exists()

    def test_numerical_fault_exits_two(self, tmp_path):
        path, out = write_config(tmp_path, t_end="1.0")
        text = path.read_text().replace("rho0.c = 1.0", "rho0.c = 1e160")
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        assert "numerical_fault" in (tmp_path / "out" / "outcome.txt").read_text()

    def test_dt_underflow_exits_four(self, tmp_path):
        path, out = write_config(tmp_path, t_end="1.0")
        # a density this large puts the stability bound below the step floor
        path.write_text(path.read_text().replace("rho0.c = 1.0", "rho0.c = 1e15"))
        assert main(["run", str(path)]) == 4


class TestSampledKernelRun:
    def test_end_to_end_with_kernel_csv(self, tmp_path):
        import numpy as np

        from xdiff.grid import Grid

        g = Grid(1.0, 16)
        gauss = 2.0 * np.exp(-(g.x**2) / 0.05)
        lines = ["x,gamma"] + [f"{float(x)!r},{float(v)!r}" for x, v in zip(g.x, gauss)]
        (tmp_path / "gamma.csv").write_text("\n".join(lines) + "\n")

        path, out = write_config(tmp_path, t_end="0.001")
        text = path.read_text().replace(
            "params.kernel.kind = box\nparams.kernel.half_width = 0.05",
            "params.kernel.kind = sampled\nparams.kernel.csv = gamma.csv",
        )
        path.write_text(text)
        assert main(["run", str(path)]) == 0
        assert (tmp_path / "out" / "series.csv").exists()


    @pytest.mark.parametrize(
        "section, key, row, problem",
        [
            (
                "rho0.kind = constant\nrho0.c = 1.0",
                "rho0.kind = csv\nrho0.path = data.csv",
                "-0.875,abc",
                "could not convert string to float: 'abc'",
            ),
            (
                "params.kernel.kind = box\nparams.kernel.half_width = 0.05",
                "params.kernel.kind = sampled\nparams.kernel.csv = data.csv",
                "-0.875,abc",
                "could not convert string to float: 'abc'",
            ),
            (
                "rho0.kind = constant\nrho0.c = 1.0",
                "rho0.kind = csv\nrho0.path = data.csv",
                "-0.875,0.5,1",
                "expected two columns 'x,value', got ['-0.875', '0.5', '1']",
            ),
        ],
        ids=["initial-data", "kernel", "initial-data-three-columns"],
    )
    def test_a_bad_csv_cell_is_reported_with_file_and_line(
        self, tmp_path, capsys, section, key, row, problem
    ):
        (tmp_path / "data.csv").write_text(f"x,value\n-1.0,0.5\n{row}\n")
        path, out = write_config(tmp_path, t_end="0.001")
        path.write_text(path.read_text().replace(section, key))
        assert main(["run", str(path)]) == 1
        where = f"{tmp_path / 'data.csv'}: line 3: {problem}"
        err = capsys.readouterr().err
        if key.startswith("rho0"):
            assert err == f"error: rho0: {where}\n"
        else:
            assert err == f"error: line 11: params.kernel.csv cannot be loaded: {where}\n"


class TestPresetCommand:
    def test_unknown_preset_exits_one(self, tmp_path):
        assert main(["preset", "fig9", "--out", str(tmp_path / "o")]) == 1

    def test_preset_with_overrides_runs(self, tmp_path):
        out = str(tmp_path / "o")
        code = main(
            [
                "preset",
                "fig2-support",
                "--out",
                out,
                "--override",
                "grid.N=512",
                "--override",
                "run.t_end=1e-05",
                "--override",
                "run.record_every=2",
                "--override",
                "run.snapshot_times=0.0",
            ]
        )
        assert code == 0
        assert os.path.exists(os.path.join(out, "series.csv"))

    def test_an_empty_out_fails_as_the_empty_output_dir_override_does(
        self, tmp_path, monkeypatch, capsys
    ):
        # both spellings ask for the output directory "", which cannot be made
        monkeypatch.chdir(tmp_path)
        small = ["--override", "grid.N=64"]
        assert main(["preset", "fig2-support", "--override", "run.output_dir=", *small]) == 1
        expected = capsys.readouterr().err
        assert main(["preset", "fig2-support", "--out", "", *small]) == 1
        assert capsys.readouterr().err == expected
        assert os.listdir(tmp_path) == []

    def test_bad_override_syntax(self, tmp_path):
        assert main(["preset", "fig2-support", "--override", "oops"]) == 1


# a healthy series row, by column
HEALTHY_ROW = dict(
    zip(SERIES_HEADER.split(","), (0.0, 1.0, 0.0, 0.0, 0.0, -0.5, 0.5, -0.3, 0.3,
                                   1.0, 1.0, 5.0, 3.0, 0.0))
)

# series that break one invariant: the cells that differ from a healthy row,
# one dict per row at t = 0, 1, ..., and the one problem reported
BROKEN_SERIES = {
    "no-records": ([], "series has no records"),
    "negative-area": ([{}, {"min_A": -1e-3}], "min_A drops below zero"),
    "e_tilde-below-1": ([{}, {"e_tilde": 0.5}], "an energy drops below its floor of 1"),
    "e_sqrt-below-1": ([{}, {"e_sqrt": 0.5}], "an energy drops below its floor of 1"),
    "one-nan-density-edge": ([{}, {"supp_rho_lo": "nan"}], "supp_rho endpoints are inconsistent"),
    "crossed-density-edges": ([{}, {"supp_rho_lo": 0.6}], "supp_rho endpoints are inconsistent"),
    "one-nan-area-edge": ([{}, {"supp_A_hi": "nan"}], "supp_A endpoints are inconsistent"),
}


class TestCheckCommand:
    def _series(self, tmp_path, rows):
        path = tmp_path / "series.csv"
        path.write_text("".join(f"{line}\n" for line in [SERIES_HEADER, *rows]))
        return str(path)

    def _row(self, t, **cells):
        """A healthy row at time t with the given cells, keyed by column."""
        row = dict(HEALTHY_ROW, t=t, **cells)
        return ",".join(str(row[name]) for name in HEALTHY_ROW)

    @pytest.mark.parametrize("case", list(BROKEN_SERIES))
    def test_a_failing_invariant_is_named(self, tmp_path, case):
        rows, problem = BROKEN_SERIES[case]
        path = self._series(tmp_path, [self._row(k, **cells) for k, cells in enumerate(rows)])
        assert check_series(path) == [problem]

    def test_usage_error_and_failing_series_exit_apart(self, tmp_path, capsys):
        # argparse exits 2 on a bad command line; a failing series has its own 5
        path = self._series(tmp_path, [self._row(0.0), self._row(0.0)])
        for argv in (["check"], ["check", path, "--rho-linf-bound", "-inf"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "usage: xdiff check" in capsys.readouterr().err
        assert main(["check", path]) == cli.CHECK_FAILED == 5
        assert "FAIL: " in capsys.readouterr().out

    def test_healthy_series_passes(self, tmp_path):
        path = self._series(tmp_path, [self._row(0.0), self._row(1.0)])
        assert check_series(path) == []
        assert main(["check", path]) == 0

    def test_nonmonotone_timestamps_flagged(self, tmp_path):
        path = self._series(tmp_path, [self._row(0.0), self._row(0.0)])
        problems = check_series(path)
        assert any("strictly increasing" in p for p in problems)
        assert main(["check", path]) == 5

    def test_negative_minimum_flagged(self, tmp_path):
        path = self._series(tmp_path, [self._row(0.0, min_rho=-1e-3)])
        assert any("min_rho" in p for p in check_series(path))

    def test_envelope_check_requires_bound(self, tmp_path):
        rows = [self._row(0.0, max_rho=2.0), self._row(1.0, max_rho=2.5)]
        path = self._series(tmp_path, rows)
        assert check_series(path) == []  # not checkable without the bound
        problems = check_series(path, rho_linf_bound=1.5)
        assert any("increases while above" in p for p in problems)

    @pytest.mark.parametrize("bound", ["nan", "inf", "-inf", "0", "-1.5"])
    def test_bound_must_be_positive_and_finite(self, tmp_path, capsys, bound):
        # prev > nan is always false, so a nan bound would pass any series
        rows = [self._row(0.0, max_rho=2.0), self._row(1.0, max_rho=2.01)]
        path = self._series(tmp_path, rows)
        assert main(["check", path, "--rho-linf-bound", "1.5"]) == 5
        assert main(["check", path, f"--rho-linf-bound={bound}"]) == 1
        assert "must be positive and finite" in capsys.readouterr().err
        with pytest.raises(ValueError, match="must be positive and finite"):
            check_series(path, rho_linf_bound=float(bound))

    def test_envelope_cap_flagged(self, tmp_path):
        rows = [self._row(0.0, max_rho=1.0), self._row(1.0, max_rho=1.6)]
        path = self._series(tmp_path, rows)
        problems = check_series(path, rho_linf_bound=1.5)
        assert any("envelope" in p for p in problems)

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("t,stuff\n0.0,1.0\n")
        assert check_series(str(path))

    def test_empty_series_reported(self, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text("")
        assert check_series(str(path)) == ["series has no header"]
        assert main(["check", str(path)]) == 5

    def test_ragged_row_reported(self, tmp_path):
        short = ",".join(self._row(1.0).split(",")[:5])
        path = self._series(tmp_path, [self._row(0.0), short])
        assert check_series(path) == ["row 2 has 5 cells, header has 14"]
        assert main(["check", path]) == 5

    def test_non_numeric_cells_reported(self, tmp_path, capsys):
        cells = self._row(1.0).split(",")
        cells[0], cells[3] = "abc", ""
        path = self._series(tmp_path, [self._row(0.0), ",".join(cells)])
        assert check_series(path) == [
            "row 2 column t: 'abc' is not a number",
            "row 2 column min_A: '' is not a number",
        ]
        assert main(["check", path]) == 5
        assert "FAIL: row 2 column t: 'abc' is not a number" in capsys.readouterr().out

    def test_nonfinite_diagnostic_flagged(self, tmp_path):
        row = self._row(0.0).replace("0.0,1.0,0.0,0.0", "0.0,nan,0.0,0.0", 1)
        path = self._series(tmp_path, [row])
        assert any("non-finite" in p for p in check_series(path))

    def test_infinite_energy_is_allowed(self, tmp_path):
        path = self._series(tmp_path, [self._row(0.0, e_tilde="inf")])
        assert check_series(path) == []


class TestSweepCommand:
    def test_sweep_runs_all_configs(self, tmp_path):
        p1, _ = write_config(tmp_path, "a.cfg", t_end="0.0005", out=str(tmp_path / "o1"))
        p2, _ = write_config(tmp_path, "b.cfg", t_end="0.0005", out=str(tmp_path / "o2"))
        assert main(["sweep", str(p1), str(p2)]) == 0
        assert (tmp_path / "o1" / "series.csv").exists()
        assert (tmp_path / "o2" / "series.csv").exists()

    def test_sweep_propagates_config_errors(self, tmp_path):
        p1, _ = write_config(tmp_path, "a.cfg", t_end="0.0005", out=str(tmp_path / "o1"))
        bad = tmp_path / "bad.cfg"
        bad.write_text("grid.N = 15\n")
        assert main(["sweep", str(p1), str(bad)]) == 1

    def test_sweep_isolates_a_bad_config(self, tmp_path, capfd):
        # the bad file comes first: its error must not stop the run after it
        bad, _ = write_config(tmp_path, "bad.cfg", out=str(tmp_path / "o1"))
        bad.write_text(bad.read_text().replace("grid.N = 16", "grid.N = 15"))
        under, _ = write_config(tmp_path, "under.cfg", t_end="0.01", out=str(tmp_path / "o2"))
        text = under.read_text().replace("grid.N = 16", "grid.N = 1024")
        under.write_text(text.replace("rho0.c = 1.0", "rho0.c = 1e15"))
        assert main(["sweep", str(bad), str(under)]) == 4  # worst code: dt_underflow
        assert f"{bad}: error: line 3: grid.N must be even, got 15" in capfd.readouterr().err
        assert (tmp_path / "o2" / "series.csv").exists()

    def test_sweep_isolates_an_integer_no_float_can_hold(self, tmp_path, capfd):
        # the bad file comes first: its error must not stop the run after it
        bad, _ = write_config(tmp_path, "bad.cfg", out=str(tmp_path / "o1"))
        bad.write_text(bad.read_text().replace("grid.N = 16", f"grid.N = {TOO_BIG}"))
        good, _ = write_config(tmp_path, "good.cfg", t_end="0.0005", out=str(tmp_path / "o2"))
        assert main(["sweep", str(bad), str(good)]) == 1
        err = capfd.readouterr().err
        assert err == f"{bad}: error: line 3: grid.N must be an integer, got {TOO_BIG}\n"
        assert (tmp_path / "o2" / "series.csv").exists()

    def test_sweep_isolates_an_unallocatable_grid(
        self, tmp_path, unallocatable_grid, monkeypatch, capfd
    ):
        # the pool runs its entries in this process, where the refusal is patched in
        class InProcessPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(cli, "_process_pool", InProcessPool)
        huge = write_huge_config(tmp_path)
        good, _ = write_config(tmp_path, "good.cfg", t_end="0.0005", out=str(tmp_path / "o1"))
        assert main(["sweep", str(huge), str(good)]) == 1
        assert capfd.readouterr().err == f"{huge}: error: {REFUSAL}\n"
        assert (tmp_path / "o1" / "series.csv").exists()

    def test_only_sweep_loads_the_process_pool(self, tmp_path):
        # a fresh interpreter, as the benchmark and every non-sweep command use the module
        path, _ = write_config(tmp_path, t_end="0.0005")
        script = (
            "import sys\n"
            "from xdiff import cli, config, run\n"
            f"cfg = config.parse_config(open({str(path)!r}).read())\n"
            "cli.write_outputs(run(cfg), cfg)\n"
            "print(sorted(m for m in ('concurrent.futures.process', 'multiprocessing')"
            " if m in sys.modules))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path_entries = filter(None, [src, os.environ.get("PYTHONPATH")])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path_entries))
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout == "[]\n"
        assert (tmp_path / "out" / "series.csv").exists()


    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """Record the pool size a sweep asks for; no process is started."""
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [0 for _ in items]

        monkeypatch.setattr(cli, "_process_pool", RecordingPool)
        return sizes

    @pytest.mark.parametrize("cpus, expected", [(8, 2), (2, 2), (1, 1)])
    def test_workers_capped_at_usable_cpus_and_config_count(
        self, pool_sizes, monkeypatch, cpus, expected
    ):
        # the affinity mask, not the machine's CPU count, bounds the pool
        mask = set(range(cpus))
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: mask, raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        assert main(["sweep", "a.cfg", "b.cfg"]) == 0
        assert pool_sizes == [expected]

    @pytest.mark.parametrize("cpus, expected", [(8, 2), (1, 1), (None, 1)])
    def test_workers_fall_back_to_the_cpu_count(self, pool_sizes, monkeypatch, cpus, expected):
        # where the platform has no affinity mask, and os.cpu_count may not know
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        assert main(["sweep", "a.cfg", "b.cfg"]) == 0
        assert pool_sizes == [expected]


# seed-0 series.csv SHA-256 of the benchmark's runs and of the mollified
# form at two widths, beside their exact counts (steps, right-side evaluations, records).
# Byte-identical output is part of every change's contract; a change that
# alters these bytes updates the pin and says so.  Other numpy builds may
# round differently, so only the counts are checked there: a re-pinned hash
# with the same counts is a rounding change, not a change to the step rule.
SERIES_PINS = {
    "fig1-blowup": (
        "fig1-blowup",
        {},
        "0db4800dfea291e45f040c363da3827805aa1c1842a9fad753b0a7840df5c109",
        (58, 620, 59),
    ),
    "fig2-support": (
        "fig2-support",
        {},
        "4eca2fd862874663fbb17ba3a7587aec8c1fbba9b780fd4b902960dc6b5c8468",
        (9, 115, 2),
    ),
    "fig2-support-N2048": (
        "fig2-support",
        {"grid.N": "2048"},
        "67417deec0088d50ff74446a8d981545a31a0d09e69e5108db2ac4efbdb7dcda",
        (10, 238, 2),
    ),
    "fig2-support-sqrt-record1": (
        "fig2-support",
        {"mode.kind": "sqrt", "run.record_every": "1"},
        "f0239208b94770122d237affec572775ee38d21e5de4129ade9f109b00011e4b",
        (9, 115, 10),
    ),
    "fig2-support-mollified": (
        "fig2-support",
        {"mode.kind": "regularized", "mode.eps": "1e-6"},
        "991d5b687ebe22f13b7a9c6ccb6d522c6866bd250df128044dfc600a12b2b11f",
        (8, 106, 2),
    ),
    # the mollified form at eps = 0 is the original form: its hash and counts
    "fig2-support-mollified-eps0": (
        "fig2-support",
        {"mode.kind": "regularized", "mode.eps": "0"},
        "4eca2fd862874663fbb17ba3a7587aec8c1fbba9b780fd4b902960dc6b5c8468",
        (9, 115, 2),
    ),
}


# a pin's test id is its key, so entries and ids cannot drift apart
@pytest.fixture(scope="module", params=list(SERIES_PINS.values()), ids=list(SERIES_PINS))
def pinned_run(request, tmp_path_factory):
    """(outcome, series.csv bytes, pinned SHA-256, pinned counts) of one pinned run."""
    from xdiff.config import preset_with_overrides

    preset_name, overrides, sha256, counts = request.param
    out = tmp_path_factory.mktemp("pinned")
    config = preset_with_overrides(preset_name, dict(overrides, **{"run.output_dir": str(out)}))
    _, outcome = cli.execute(config)
    return outcome, (out / "series.csv").read_bytes(), sha256, counts


def test_exact_counts_are_pinned(pinned_run):
    outcome, _, _, counts = pinned_run
    assert (outcome.steps, outcome.rhs_evals, len(outcome.series)) == counts


@pytest.mark.skipif(np.__version__ != "2.4.6", reason="series bytes are pinned under numpy 2.4.6")
def test_series_bytes_are_pinned(pinned_run):
    _, series, sha256, _ = pinned_run
    assert hashlib.sha256(series).hexdigest() == sha256


class TestDeterminism:
    def test_identical_series_bytes_for_repeated_tiny_runs(self, tmp_path):
        path1, out1 = write_config(tmp_path, "a.cfg", t_end="0.002", out=str(tmp_path / "o1"))
        path2, out2 = write_config(tmp_path, "b.cfg", t_end="0.002", out=str(tmp_path / "o2"))
        assert main(["run", str(path1)]) == 0
        assert main(["run", str(path2)]) == 0
        b1 = (tmp_path / "o1" / "series.csv").read_bytes()
        b2 = (tmp_path / "o2" / "series.csv").read_bytes()
        assert b1 == b2

    def test_snapshot_rows_render_each_value_with_seventeen_digits(self, tmp_path):
        from xdiff.grid import Field, Grid
        from xdiff.integrator import HaltReason, RunOutcome
        from xdiff.model import State

        grid = Grid(1.0, 16)
        specials = [-0.0, 5e-324, 0.1, 1.0 / 3.0, -2.5e300, 1e-310, 123456789.0, 1.0]
        a = np.array(specials * 2)
        rho = np.array(specials[::-1] * 2)
        snap = State(t=0.0, A=Field(grid, a), rho=Field(grid, rho))
        outcome = RunOutcome(HaltReason.REACHED_T_END, snap, [], [snap])
        config = parse_config(TINY_CONFIG.format(t_end="0.0", snaps="0.0", out=tmp_path))
        cli.write_outputs(outcome, config)
        rows = ["x,A,rho"] + [
            ",".join(format(v, ".17g") for v in (float(x), float(va), float(vr)))
            for x, va, vr in zip(grid.x, a, rho)
        ]
        expected = ("\n".join(rows) + "\n").encode()
        assert (tmp_path / "snapshot_0.csv").read_bytes() == expected
        for text in (b",-0,", b"4.9406564584124654e-324", b"0.10000000000000001"):
            assert text in expected

    def test_snapshot_files_match_the_row_by_row_rendering(self, tmp_path):
        # the snapshots of a run share one grid, one file format and one row buffer
        from xdiff.grid import Field, Grid
        from xdiff.integrator import HaltReason, RunOutcome
        from xdiff.model import State

        grid = Grid(1.0, 2048)
        rng = np.random.default_rng(0)
        fields = [(rng.random(2048), rng.random(2048) * 10.0**-k) for k in range(4)]
        snaps = [
            State(t=0.1 * k, A=Field(grid, a), rho=Field(grid, r)) for k, (a, r) in enumerate(fields)
        ]
        outcome = RunOutcome(HaltReason.REACHED_T_END, snaps[-1], [], snaps)
        config = parse_config(TINY_CONFIG.format(t_end="0.0", snaps="0.0", out=tmp_path))
        cli.write_outputs(outcome, config)
        x_column = ["%.17g" % x for x in grid.x.tolist()]
        for k, snap in enumerate(snaps):
            rows = zip(x_column, snap.A.values.tolist(), snap.rho.values.tolist())
            expected = "x,A,rho\n" + "".join("%s,%.17g,%.17g\n" % row for row in rows)
            assert (tmp_path / f"snapshot_{k}.csv").read_bytes() == expected.encode()

    def test_seventeen_digit_output(self, tmp_path):
        path, out = write_config(tmp_path, t_end="0.001")
        main(["run", str(path)])
        lines = (tmp_path / "out" / "series.csv").read_text().splitlines()
        # mass of the evolving density keeps full precision
        mass = lines[-1].split(",")[9]
        assert len(mass.replace(".", "").replace("-", "").lstrip("0")) >= 15
