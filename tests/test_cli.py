import hashlib
import os

import numpy as np
import pytest

from xdiff import cli
from xdiff.cli import SERIES_HEADER, check_series, main

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


class TestRunCommand:
    def test_zero_step_run_writes_single_record(self, tmp_path):
        path, out = write_config(tmp_path)
        assert main(["run", str(path)]) == 0
        lines = (tmp_path / "out" / "series.csv").read_text().splitlines()
        assert lines[0] == SERIES_HEADER
        assert len(lines) == 2
        assert lines[1].startswith("0,")

    def test_snapshot_of_constant_state(self, tmp_path):
        path, out = write_config(tmp_path)
        main(["run", str(path)])
        rows = (tmp_path / "out" / "snapshot_0.csv").read_text().splitlines()
        assert rows[0] == "x,A,rho"
        assert len(rows) == 17  # header + one row per node
        assert all(row.split(",")[1] == "1" for row in rows[1:])

    def test_outcome_file_contains_halt_reason(self, tmp_path):
        path, out = write_config(tmp_path, t_end="0.001")
        assert main(["run", str(path)]) == 0
        text = (tmp_path / "out" / "outcome.txt").read_text()
        assert "halt_reason = reached_t_end" in text
        assert "final_t = " in text

    def test_missing_config_file_is_io_error(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 1

    def test_invalid_config_exits_one(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("grid.N = 15\n")
        assert main(["run", str(path)]) == 1

    def test_numerical_fault_exits_two(self, tmp_path):
        path, out = write_config(tmp_path, t_end="1.0")
        text = path.read_text().replace("rho0.c = 1.0", "rho0.c = 1e160")
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        assert "numerical_fault" in (tmp_path / "out" / "outcome.txt").read_text()

    def test_dt_underflow_exits_four(self, tmp_path):
        path, out = write_config(tmp_path, t_end="1.0")
        text = path.read_text().replace("rho0.c = 1.0", "rho0.c = 200.0")
        text += "ctrl.dt_min = 1e-3\nctrl.dt_max = 2e-3\n"
        path.write_text(text)
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

    def test_bad_override_syntax(self, tmp_path):
        assert main(["preset", "fig2-support", "--override", "oops"]) == 1


class TestCheckCommand:
    def _series(self, tmp_path, rows):
        path = tmp_path / "series.csv"
        path.write_text(SERIES_HEADER + "\n" + "\n".join(rows) + "\n")
        return str(path)

    def _row(self, t, max_rho=1.0, min_rho=0.0, min_a=0.0):
        return ",".join(
            str(v)
            for v in (t, max_rho, min_rho, min_a, 0.0, -0.5, 0.5, -0.3, 0.3,
                      1.0, 1.0, 5.0, 3.0, 0.0)
        )

    def test_healthy_series_passes(self, tmp_path):
        path = self._series(tmp_path, [self._row(0.0), self._row(1.0)])
        assert check_series(path) == []
        assert main(["check", path]) == 0

    def test_nonmonotone_timestamps_flagged(self, tmp_path):
        path = self._series(tmp_path, [self._row(0.0), self._row(0.0)])
        problems = check_series(path)
        assert any("strictly increasing" in p for p in problems)
        assert main(["check", path]) == 2

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
        assert main(["check", path, "--rho-linf-bound", "1.5"]) == 2
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
        assert main(["check", str(path)]) == 2

    def test_ragged_row_reported(self, tmp_path):
        short = ",".join(self._row(1.0).split(",")[:5])
        path = self._series(tmp_path, [self._row(0.0), short])
        assert check_series(path) == ["row 2 has 5 cells, header has 14"]
        assert main(["check", path]) == 2

    def test_non_numeric_cells_reported(self, tmp_path, capsys):
        cells = self._row(1.0).split(",")
        cells[0], cells[3] = "abc", ""
        path = self._series(tmp_path, [self._row(0.0), ",".join(cells)])
        assert check_series(path) == [
            "row 2 column t: 'abc' is not a number",
            "row 2 column min_A: '' is not a number",
        ]
        assert main(["check", path]) == 2
        assert "FAIL: row 2 column t: 'abc' is not a number" in capsys.readouterr().out

    def test_nonfinite_diagnostic_flagged(self, tmp_path):
        row = self._row(0.0).replace("0.0,1.0,0.0,0.0", "0.0,nan,0.0,0.0", 1)
        path = self._series(tmp_path, [row])
        assert any("non-finite" in p for p in check_series(path))

    def test_infinite_energy_is_allowed(self, tmp_path):
        row = ",".join(
            str(v)
            for v in (0.0, 1.0, 0.0, 0.0, 0.0, -0.5, 0.5, -0.3, 0.3,
                      1.0, 1.0, "inf", 3.0, 0.0)
        )
        path = self._series(tmp_path, [row])
        assert check_series(path) == []


class TestSweepCommand:
    def test_sweep_runs_all_configs(self, tmp_path, monkeypatch):
        p1, _ = write_config(tmp_path, "a.cfg", t_end="0.0005", out=str(tmp_path / "o1"))
        p2, _ = write_config(tmp_path, "b.cfg", t_end="0.0005", out=str(tmp_path / "o2"))
        monkeypatch.setenv("XDIFF_THREADS", "2")
        assert main(["sweep", str(p1), str(p2)]) == 0
        assert (tmp_path / "o1" / "series.csv").exists()
        assert (tmp_path / "o2" / "series.csv").exists()

    def test_sweep_propagates_config_errors(self, tmp_path, monkeypatch):
        p1, _ = write_config(tmp_path, "a.cfg", t_end="0.0005", out=str(tmp_path / "o1"))
        bad = tmp_path / "bad.cfg"
        bad.write_text("grid.N = 15\n")
        monkeypatch.setenv("XDIFF_THREADS", "1")
        assert main(["sweep", str(p1), str(bad)]) == 1

    def test_sweep_isolates_a_bad_config(self, tmp_path, monkeypatch, capfd):
        # the bad file comes first: its error must not stop the run after it
        bad, _ = write_config(tmp_path, "bad.cfg", out=str(tmp_path / "o1"))
        bad.write_text(bad.read_text().replace("grid.N = 16", "grid.N = 15"))
        under, _ = write_config(tmp_path, "under.cfg", t_end="0.01", out=str(tmp_path / "o2"))
        text = under.read_text().replace("grid.N = 16", "grid.N = 256")
        under.write_text(text + "ctrl.dt_min = 0.001\n")
        monkeypatch.setenv("XDIFF_THREADS", "1")
        assert main(["sweep", str(bad), str(under)]) == 4  # worst code: dt_underflow
        assert f"{bad}: error: line 3: grid.N must be even, got 15" in capfd.readouterr().err
        assert (tmp_path / "o2" / "series.csv").exists()


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

        monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
        return sizes

    @pytest.mark.parametrize("threads, expected", [("500", 2), ("1", 1), ("0", 1), ("", 2)])
    def test_workers_capped_at_config_count(self, pool_sizes, monkeypatch, threads, expected):
        monkeypatch.setenv("XDIFF_THREADS", threads)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
        assert main(["sweep", "a.cfg", "b.cfg"]) == 0
        assert pool_sizes == [expected]

    def test_non_integer_thread_count_named(self, pool_sizes, monkeypatch, capsys):
        monkeypatch.setenv("XDIFF_THREADS", "many")
        assert main(["sweep", "a.cfg", "b.cfg"]) == 1
        assert "XDIFF_THREADS must be an integer, got 'many'" in capsys.readouterr().err
        assert pool_sizes == []


# seed-0 series.csv SHA-256 of the benchmark's runs.  Byte-identical output
# is part of every change's contract; a change that alters these bytes
# updates the pin and says so.  Other numpy builds may round differently.
SERIES_PINS = [
    ("fig1-blowup", {}, "c8acb5060e84f05c8bde4e5e8c8557744620e20e0293c96062b60c7c11d5ad2a"),
    ("fig2-support", {}, "14ec678b37b07c2d65b7d5e7dd21509b9e22f9b303e2d26190d06aa64ad17225"),
    (
        "fig2-support",
        {"grid.N": "2048"},
        "42398e036c1b8dfdfa1f1debae7772f7642ad5092f9977b90c3c5bf5d101bcfd",
    ),
    (
        "fig2-support",
        {"mode.kind": "sqrt", "run.record_every": "1"},
        "7f9aa7a0948be5f638427f101b6e4cdd9cc9db79b9ca10ab782a4d150f915a30",
    ),
]


@pytest.mark.skipif(np.__version__ != "2.4.6", reason="series bytes are pinned under numpy 2.4.6")
@pytest.mark.parametrize(
    "preset_name, overrides, sha256",
    SERIES_PINS,
    ids=["fig1-blowup", "fig2-support", "fig2-support-N2048", "fig2-support-sqrt-record1"],
)
def test_series_bytes_are_pinned(tmp_path, preset_name, overrides, sha256):
    from xdiff.config import preset_with_overrides

    config = preset_with_overrides(preset_name, dict(overrides, **{"run.output_dir": str(tmp_path)}))
    cli.execute(config)
    assert hashlib.sha256((tmp_path / "series.csv").read_bytes()).hexdigest() == sha256


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
        from xdiff.config import parse_config
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

    def test_seventeen_digit_output(self, tmp_path):
        path, out = write_config(tmp_path, t_end="0.001")
        main(["run", str(path)])
        lines = (tmp_path / "out" / "series.csv").read_text().splitlines()
        # mass of the evolving density keeps full precision
        mass = lines[-1].split(",")[9]
        assert len(mass.replace(".", "").replace("-", "").lstrip("0")) >= 15
