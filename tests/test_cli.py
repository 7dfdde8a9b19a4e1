"""End-to-end checks for the command-line interface."""

import math
import re

import pytest

from bsteleport import cli, numerics
from bsteleport.cli import main
from bsteleport.oracle import DEFAULT_VERIFY_TOL
from bsteleport.phase import DEFAULT_PHASE_GRID
from bsteleport.protocol import average_fidelity, classical_baseline
from bsteleport.states import DEFAULT_TAIL_TOL, ResourceParams, cat_coeffs, resource_coeffs


def _read_csv(path):
    with open(path, "r", encoding="ascii") as handle:
        header = handle.readline().strip().split(",")
        rows = [line.strip().split(",") for line in handle if line.strip()]
    return header, rows


class TestInvocations:
    def test_no_command_is_a_usage_error(self, capsys):
        assert main([]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["resource", "--bogus"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_pair(self, capsys):
        assert main(["resource"]) == 1
        assert "resource inputs required" in capsys.readouterr().err

    def test_both_pair_styles_rejected(self, capsys):
        assert main(["resource", "--n-in", "1", "--m-in", "1", "--total", "2", "--m", "0"]) == 1
        assert "not both" in capsys.readouterr().err

    def test_incomplete_pair_rejected(self, capsys):
        assert main(["resource", "--n-in", "1"]) == 1
        assert main(["resource", "--total", "4"]) == 1

    def test_invalid_beta(self, capsys):
        assert main(["resource", "--n-in", "1", "--m-in", "0", "--beta", "-0.5"]) == 1
        assert main(["resource", "--n-in", "1", "--m-in", "0", "--beta", "3.5"]) == 1

    def test_incompatible_sector_pair(self, capsys):
        assert main(["resource", "--total", "4", "--m", "0.5"]) == 1
        assert "incompatible" in capsys.readouterr().err

    def test_infinite_m(self, capsys):
        assert main(["resource", "--total", "4", "--m", "inf"]) == 1
        assert "m=inf is incompatible" in capsys.readouterr().err

    def test_nan_alpha(self, capsys):
        assert main(["fidelity", "--target", "coherent", "--alpha", "nan", "--cutoff", "10",
                     "--total", "2", "--m", "0"]) == 1
        captured = capsys.readouterr()
        assert "--alpha must be finite" in captured.err
        assert captured.out == ""


class TestHelp:
    @pytest.mark.parametrize("command, flag, value", [
        ("fidelity", "--tail-tol", DEFAULT_TAIL_TOL),
        ("sweep", "--tail-tol", DEFAULT_TAIL_TOL),
        ("phase-map", "--phi-grid", DEFAULT_PHASE_GRID),
        ("oracle-check", "--tol", DEFAULT_VERIFY_TOL),
    ])
    def test_defaults_are_the_library_constants(self, command, flag, value, capsys):
        # the help shows the library's value, and a run without the flag uses it
        with pytest.raises(SystemExit):
            main([command, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        shown = re.search(re.escape(flag) + r" [A-Z_]+ [^(]*\(default ([^)]+)\)", text).group(1)
        assert float(shown) == value
        args = cli._build_parser().parse_args([command])
        assert getattr(args, flag[2:].replace("-", "_")) == value


# (arguments, exit code, warning lines before the error), run in an empty
# directory that holds only the file "blocker"
REFUSALS = [
    ([], 1, 0),
    (["frobnicate"], 1, 0),
    (["resource", "--bogus"], 1, 0),
    (["resource", "--n-in", "1.5", "--m-in", "0"], 1, 0),
    (["resource"], 1, 0),
    (["resource", "--n-in", "1", "--m-in", "1", "--total", "2", "--m", "0"], 1, 0),
    (["resource", "--n-in", "1"], 1, 0),
    (["resource", "--n-in", "-1", "--m-in", "0"], 1, 0),
    (["resource", "--n-in", "1", "--m-in", "0", "--beta", "3.5"], 1, 0),
    (["resource", "--n-in", "1", "--m-in", "0", "--beta", "nan"], 1, 0),
    (["resource", "--total", "4", "--m", "0.5"], 1, 0),
    (["resource", "--total", "4", "--m", "inf"], 1, 0),
    (["fidelity", "--total", "3", "--m", "1e308"], 1, 0),
    (["fidelity", "--total", "3", "--m=-1e308"], 1, 0),
    (["fidelity", "--total", "3", "--m", "nan"], 1, 0),
    (["resource", "--total", "100000000", "--m", "0"], 1, 0),
    (["fidelity", "--target", "coherent", "--alpha", "nan", "--total", "2", "--m", "0"], 1, 0),
    (["fidelity", "--tail-tol", "-1", "--total", "2", "--m", "0"], 1, 0),
    (["fidelity", "--cutoff", "10000000000000", "--total", "2", "--m", "0"], 1, 0),
    (["distribution", "--target", "fock", "--k", "3", "--cutoff", "2", "--n-in", "1", "--m-in", "1"], 1, 0),
    (["distribution", "--target", "cat", "--alpha", "1.0", "--cutoff", "6", "--n-in", "1", "--m-in", "1"], 1, 0),
    (["sweep", "--target", "fock"], 1, 0),
    (["sweep", "--target", "fock", "--total", "-1"], 1, 0),
    (["sweep", "--target", "fock", "--total", "2", "--beta-steps", "1"], 1, 0),
    (["sweep", "--target", "fock", "--total", "2", "--workers", "0"], 1, 0),
    (["sweep", "--target", "fock", "--total", "2", "--m-range", "a:b"], 1, 0),
    (["sweep", "--target", "fock", "--total", "2", "--m-range", "0:inf"], 1, 0),
    (["sweep", "--target", "fock", "--total", "100", "--beta-steps", str(10**12)], 1, 0),
    (["phase-map", "--total", "2", "--phi-grid", "8"], 1, 0),
    (["phase-map", "--total", "2", "--phi-grid", str(2**40)], 1, 0),
    (["oracle-check", "--max-total", "61"], 1, 0),
    (["oracle-check", "--betas", "0.2,zebra"], 1, 0),
    (["oracle-check", "--max-total", "1", "--tol", "nan"], 1, 0),
    (["resource", "--config", "absent.cfg"], 1, 0),
    (["resource", "--n-in", "1", "--m-in", "0", "--csv", "blocker/r.csv"], 3, 0),
    (["sweep", "--target", "fock", "--total", "4", "--beta-steps", "3", "--m-range", "0:1:0.5",
      "--csv", "blocker/s.csv"], 3, 1),
    (["sweep", "--target", "fock", "--total", "3", "--beta-steps", "3", "--m-range", "1e308:1e308",
      "--csv", "blocker/s.csv"], 3, 1),
    (["resource", "--n-in", "1", "--m-in", "0", "--beta", "-1e-3"], 1, 0),
]


class TestStderrContract:
    @pytest.mark.parametrize("argv, code, warned", REFUSALS)
    def test_one_error_line_per_refusal(self, argv, code, warned, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "blocker").write_bytes(b"")
        assert main(argv) == code
        captured = capsys.readouterr()
        starts = [line.split(" ", 1)[0] for line in captured.err.splitlines()]
        assert starts == ["warning:"] * warned + ["error:"], captured.err
        assert captured.out == ""
        assert [path.name for path in tmp_path.iterdir()] == ["blocker"]

    def test_overflowing_m_row_warns_once(self, tmp_path, capsys):
        # a row whose 2m overflows is incompatible like any other: NaN, one warning line
        assert main(["sweep", "--target", "fock", "--total", "3", "--beta-steps", "3",
                     "--m-range", "1e308:1e308", "--out-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.err == "warning: m=1e+308 incompatible with total=3; row marked invalid\n"
        assert captured.out.strip().endswith("no valid cells")


class TestResourceCommand:
    def test_stdout_csv(self, capsys):
        assert main(["resource", "--n-in", "1", "--m-in", "0", "--beta", "1.0"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "index,real,imag"
        assert len(lines) == 3
        parsed = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
        assert parsed[0][1] == pytest.approx(0.0, abs=1e-15)
        assert parsed[0][2] == pytest.approx(math.sin(0.5), abs=1e-14)
        assert parsed[1][1] == pytest.approx(math.cos(0.5), abs=1e-14)

    def test_pair_styles_are_equivalent(self, capsys):
        assert main(["resource", "--n-in", "3", "--m-in", "2", "--beta", "1.1"]) == 0
        by_pair = capsys.readouterr().out
        assert main(["resource", "--total", "5", "--m", "0.5", "--beta", "1.1"]) == 0
        by_sector = capsys.readouterr().out
        assert by_pair == by_sector

    def test_memory_budget(self, capsys):
        # a point solve holds 128 bytes per level, so 10^8 levels need ~12 GiB
        assert main(["resource", "--total", "100000000", "--m", "0"]) == 1
        captured = capsys.readouterr()
        assert "MiB limit" in captured.err
        assert captured.out == ""

    def test_lapack_failure_exits_1(self, capsys, monkeypatch):
        stein = numerics._STEIN
        monkeypatch.setattr(numerics, "_STEIN", lambda *args: (stein(*args)[0], 1))
        assert main(["resource", "--total", "40", "--m", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: LAPACK") and captured.err.endswith("info=1\n")
        assert captured.out == ""

    def test_csv_file_output(self, tmp_path, capsys):
        out = tmp_path / "res.csv"
        assert main(["resource", "--n-in", "2", "--m-in", "2", "--csv", str(out)]) == 0
        assert f"wrote {out}" in capsys.readouterr().out
        header, rows = _read_csv(out)
        assert header == ["index", "real", "imag"]
        assert len(rows) == 5


class TestDistributionCommand:
    def test_stdout(self, capsys):
        assert main(["distribution", "--target", "fock", "--k", "2", "--cutoff", "2",
                     "--n-in", "1", "--m-in", "1"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "q,p,f"
        rows = {int(line.split(",")[0]): line.split(",")[1:] for line in lines[1:]}
        assert float(rows[2][0]) == pytest.approx(0.5, abs=1e-14)
        assert float(rows[4][0]) == pytest.approx(0.5, abs=1e-14)
        assert rows[3][1] == "nan"

    def test_fock_above_cutoff(self, capsys):
        assert main(["distribution", "--target", "fock", "--k", "3", "--cutoff", "2",
                     "--n-in", "1", "--m-in", "1"]) == 1

    def test_negative_k(self, capsys):
        assert main(["distribution", "--target", "fock", "--k", "-1",
                     "--n-in", "1", "--m-in", "1"]) == 1

    def test_oversized_cutoff(self, capsys):
        assert main(["distribution", "--target", "coherent", "--cutoff", "100000000",
                     "--total", "2", "--m", "0"]) == 1
        assert "largest supported cutoff" in capsys.readouterr().err

    def test_truncation_failure_is_a_value_error(self, capsys):
        assert main(["distribution", "--target", "cat", "--alpha", "1.0", "--cutoff", "6",
                     "--n-in", "1", "--m-in", "1"]) == 1
        assert "tail" in capsys.readouterr().err


class TestFidelityCommand:
    def test_fock_target_reports_unity(self, capsys):
        assert main(["fidelity", "--target", "fock", "--k", "1", "--cutoff", "1",
                     "--n-in", "1", "--m-in", "1"]) == 0
        out = capsys.readouterr().out
        fields = dict(line.split("=", 1) for line in out.strip().split("\n") if "=" in line)
        # the average inherits the rounding of sum p(q)
        assert float(fields["average_fidelity"]) == pytest.approx(1.0, abs=1e-14)
        assert float(fields["classical_baseline"]) == pytest.approx(1.0, abs=1e-14)

    def test_matches_library_values(self, capsys):
        assert main(["fidelity", "--target", "cat", "--alpha", "1.0", "--cutoff", "6",
                     "--tail-tol", "1e-4", "--total", "6", "--m", "0"]) == 0
        out = capsys.readouterr().out
        fields = dict(line.split("=", 1) for line in out.strip().split("\n") if "=" in line)
        target = cat_coeffs(1.0, 6, tail_tol=1e-4)
        resource = resource_coeffs(ResourceParams(3, 3, math.pi / 2))
        assert float(fields["average_fidelity"]) == average_fidelity(target, resource)
        assert float(fields["classical_baseline"]) == classical_baseline(target)


    def test_oversized_cutoff(self, capsys):
        for extra in (["--target", "fock", "--k", "10000000000"], ["--cutoff", "10000000000000"]):
            assert main(["fidelity", *extra, "--total", "2", "--m", "0"]) == 1
            captured = capsys.readouterr()
            assert "largest supported cutoff" in captured.err
            assert captured.out == ""

    def test_invalid_tail_tolerance(self, capsys):
        # refused with or without a cutoff to suggest
        for value in ("nan", "-1", "inf"):
            for extra in ([], ["--cutoff", "40"]):
                assert main(["fidelity", "--tail-tol", value, *extra, "--total", "2", "--m", "0"]) == 1
                captured = capsys.readouterr()
                assert "must be finite and non-negative" in captured.err
                assert captured.out == ""

    def test_suggested_cutoff_at_the_tail_boundary(self, capsys):
        assert main(["fidelity", "--target", "cat", "--alpha", "3.8544326731278717",
                     "--total", "4", "--m", "0"]) == 0
        assert capsys.readouterr().err == ""

    def test_suggested_cutoff_for_a_large_amplitude(self, capsys):
        # a tail summed as 1 - cumsum never got below 1e-12 here
        assert main(["fidelity", "--target", "cat", "--alpha", "55.5",
                     "--total", "4", "--m", "0"]) == 0
        assert capsys.readouterr().err == ""


class TestSweepCommand:
    def test_requires_total(self, capsys):
        assert main(["sweep", "--target", "fock", "--k", "0"]) == 1
        assert "--total is required" in capsys.readouterr().err
        assert main(["sweep", "--target", "fock", "--k", "0", "--total", "-1"]) == 1
        assert "--total must be non-negative" in capsys.readouterr().err

    def test_beta_steps_floor(self, capsys, tmp_path):
        assert main(["sweep", "--target", "fock", "--k", "0", "--total", "2",
                     "--beta-steps", "1", "--out-dir", str(tmp_path)]) == 1
        assert "at least 2" in capsys.readouterr().err

    def test_small_sweep_outputs(self, tmp_path, capsys):
        code = main(["sweep", "--target", "fock", "--k", "1", "--cutoff", "1",
                     "--total", "4", "--beta-steps", "5", "--workers", "1",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "max=" in out
        header, rows = _read_csv(tmp_path / "fidelity_sweep.csv")
        assert header == ["beta", "m", "value"]
        assert len(rows) == 5 * 3  # beta steps x m in {0, 1, 2}
        pgm = (tmp_path / "fidelity_sweep.pgm").read_bytes()
        assert pgm.startswith(b"P5\n5 3\n255\n")
        assert len(pgm) == len(b"P5\n5 3\n255\n") + 15

    def test_worker_counts_give_identical_files(self, tmp_path):
        args = ["sweep", "--target", "cat", "--alpha", "1.0", "--cutoff", "6",
                "--tail-tol", "1e-4", "--total", "4", "--beta-steps", "5"]
        dir1 = tmp_path / "w1"
        dir2 = tmp_path / "w2"
        assert main(args + ["--workers", "1", "--out-dir", str(dir1)]) == 0
        assert main(args + ["--workers", "2", "--out-dir", str(dir2)]) == 0
        assert (dir1 / "fidelity_sweep.csv").read_bytes() == (dir2 / "fidelity_sweep.csv").read_bytes()
        assert (dir1 / "fidelity_sweep.pgm").read_bytes() == (dir2 / "fidelity_sweep.pgm").read_bytes()

    def test_m_range_option(self, tmp_path, capsys):
        code = main(["sweep", "--target", "fock", "--k", "0", "--total", "4",
                     "--beta-steps", "3", "--m-range", "0:2:0.5", "--workers", "1",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().err == ("warning: m=0.5 incompatible with total=4; row marked invalid\n"
                                           "warning: m=1.5 incompatible with total=4; row marked invalid\n")
        header, rows = _read_csv(tmp_path / "fidelity_sweep.csv")
        ms = sorted({row[1] for row in rows})
        assert ms == ["0", "0.5", "1", "1.5", "2"]
        # half-integer rows are incompatible with an even total
        assert all(row[2] == "nan" for row in rows if row[1] == "0.5")
        assert all(row[2] != "nan" for row in rows if row[1] == "1")

    def test_no_valid_cells(self, tmp_path, capsys):
        # every m row is incompatible: the files are written, all NaN
        code = main(["sweep", "--target", "fock", "--k", "0", "--total", "4",
                     "--m-range", "0.25:0.25", "--beta-steps", "3", "--out-dir", str(tmp_path)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.strip().endswith("no valid cells")
        assert captured.err == "warning: m=0.25 incompatible with total=4; row marked invalid\n"
        header, rows = _read_csv(tmp_path / "fidelity_sweep.csv")
        assert len(rows) == 3
        assert all(row[2] == "nan" for row in rows)

    def test_bad_m_range(self, capsys, tmp_path):
        base = ["sweep", "--target", "fock", "--k", "0", "--total", "2",
                "--out-dir", str(tmp_path)]
        assert main(base + ["--m-range", "2:0"]) == 1
        assert main(base + ["--m-range", "0:2:0"]) == 1
        assert main(base + ["--m-range", "a:b"]) == 1
        assert main(base + ["--m-range", "1"]) == 1

    def test_infinite_m_range(self, capsys, tmp_path):
        assert main(["sweep", "--target", "fock", "--k", "0", "--total", "2",
                     "--m-range", "0:inf", "--out-dir", str(tmp_path)]) == 1
        assert "--m-range must be finite" in capsys.readouterr().err

    def test_memory_budget(self, capsys, tmp_path):
        # each of these would ask for terabytes; all are refused before allocating
        base = ["sweep", "--target", "fock", "--k", "0", "--total", "100", "--out-dir", str(tmp_path)]
        for extra, message in ((["--beta-steps", str(10**12)], "MiB limit"),
                               (["--m-range", "0:1e12"], "MiB limit"),
                               (["--m-range", "0:1e300:1e-300"], "too many points")):
            assert main(base + extra) == 1
            assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_workers_below_one(self, capsys, tmp_path):
        assert main(["sweep", "--target", "fock", "--k", "0", "--total", "2",
                     "--workers", "0", "--out-dir", str(tmp_path)]) == 1
        assert "--workers must be at least 1" in capsys.readouterr().err


class TestPhaseMapCommand:
    def test_center_value(self, tmp_path):
        assert main(["phase-map", "--total", "2", "--beta-steps", "3", "--workers", "1",
                     "--out-dir", str(tmp_path)]) == 0
        header, rows = _read_csv(tmp_path / "phase_map.csv")
        assert header == ["beta", "m", "value"]
        center = [row for row in rows
                  if row[1] == "0" and abs(float(row[0]) - math.pi / 2) < 1e-12]
        assert len(center) == 1
        assert abs(float(center[0][2]) - math.pi / 2) <= 2 * math.pi / 4096

    def test_phi_grid_floor(self, capsys, tmp_path):
        assert main(["phase-map", "--total", "2", "--phi-grid", "8",
                     "--out-dir", str(tmp_path)]) == 1

    def test_negative_phi_grid_names_the_flag(self, capsys, tmp_path):
        # refused before the chunk sizing, which would divide by zero
        assert main(["phase-map", "--total", "1", "--beta-steps", "3", "--phi-grid", "-4",
                     "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err == "error: --phi-grid must be at least 16\n"
        assert not any(tmp_path.iterdir())

    def test_memory_budget(self, capsys, tmp_path):
        # numpy's FFT keeps 16 bytes per point of plan and scratch beside the 20 a
        # one-beta map holds, 144 for a prime K: 2^25 holds ~1.2 GiB, 8388617 ~1.3 GiB
        for grid in (2**40, 2**25, 8388617):
            assert main(["phase-map", "--total", "2", "--phi-grid", str(grid),
                         "--out-dir", str(tmp_path)]) == 1
            assert "MiB limit" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_long_beta_axis_passes_the_budget(self, capsys, tmp_path, monkeypatch):
        # the budget check passes and the grid call is reached (stubbed, not run)
        def reached(total, beta_axis, m_axis, grid_size):
            raise ValueError(f"grid call reached with {len(beta_axis)} x {len(m_axis)}")

        monkeypatch.setattr(cli, "phase_argmax_map", reached)
        assert main(["phase-map", "--total", "100", "--beta-steps", "4000",
                     "--out-dir", str(tmp_path)]) == 1
        assert "grid call reached with 4000 x 51" in capsys.readouterr().err


class TestOutputRouting:
    def test_env_var_sets_directory(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BSTELEPORT_OUT_DIR", str(tmp_path))
        assert main(["resource", "--n-in", "1", "--m-in", "0", "--csv", "r.csv"]) == 0
        assert (tmp_path / "r.csv").exists()

    def test_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        env_dir = tmp_path / "env"
        flag_dir = tmp_path / "flag"
        monkeypatch.setenv("BSTELEPORT_OUT_DIR", str(env_dir))
        assert main(["resource", "--n-in", "1", "--m-in", "0",
                     "--csv", "r.csv", "--out-dir", str(flag_dir)]) == 0
        assert (flag_dir / "r.csv").exists()
        assert not env_dir.exists()

    def test_absolute_path_ignores_out_dir(self, tmp_path, capsys):
        out = tmp_path / "abs.csv"
        assert main(["resource", "--n-in", "1", "--m-in", "0",
                     "--csv", str(out), "--out-dir", str(tmp_path / "other")]) == 0
        assert out.exists()

    def test_write_failure_exits_3(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"")
        assert main(["resource", "--n-in", "1", "--m-in", "0",
                     "--csv", str(blocker / "r.csv")]) == 3
        assert "error" in capsys.readouterr().err

    def test_unwritable_pgm_exits_3(self, tmp_path, capsys):
        # the CSV is written first; no "wrote" line reaches stdout when a later write fails
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"")
        assert main(["sweep", "--target", "fock", "--total", "2", "--beta-steps", "3",
                     "--out-dir", str(tmp_path), "--pgm", str(blocker / "s.pgm")]) == 3
        captured = capsys.readouterr()
        assert [line.split(" ", 1)[0] for line in captured.err.splitlines()] == ["error:"]
        assert captured.out == ""


class TestNegativeValues:
    def test_exponent_notation_m(self, capsys):
        assert main(["fidelity", "--total", "3", "--m", "-5e-1"]) == 0
        exponent = capsys.readouterr().out
        assert main(["fidelity", "--total", "3", "--m", "-0.5"]) == 0
        assert exponent == capsys.readouterr().out

    def test_negative_m_range(self, tmp_path, capsys):
        base = ["sweep", "--target", "fock", "--total", "2", "--beta-steps", "3"]
        assert main(base + ["--m-range", "-1:1", "--out-dir", str(tmp_path / "a")]) == 0
        assert main(base + ["--m-range=-1:1", "--out-dir", str(tmp_path / "b")]) == 0
        for name in ("fidelity_sweep.csv", "fidelity_sweep.pgm"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("total = 3\nm = -5e-1\n")
        assert main(["fidelity", "--config", str(cfg)]) == 0
        with_config = capsys.readouterr().out
        assert main(["fidelity", "--total", "3", "--m", "-0.5"]) == 0
        assert with_config == capsys.readouterr().out

    def test_negative_beta_is_refused_by_value(self, capsys):
        assert main(["resource", "--n-in", "1", "--m-in", "0", "--beta", "-1e-3"]) == 1
        assert capsys.readouterr().err == "error: beta=-0.001 outside [0, pi]\n"


class TestConfigFile:
    def test_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# resource inputs\nn_in = 2\nm_in = 0\nbeta = 1.0\n")
        assert main(["resource", "--config", str(cfg)]) == 0
        with_config = capsys.readouterr().out
        assert main(["resource", "--n-in", "2", "--m-in", "0", "--beta", "1.0"]) == 0
        assert with_config == capsys.readouterr().out

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_in=2\nm_in=0\nbeta=1.0\n")
        assert main(["resource", "--config", str(cfg), "--beta", "2.0"]) == 0
        overridden = capsys.readouterr().out
        assert main(["resource", "--n-in", "2", "--m-in", "0", "--beta", "2.0"]) == 0
        assert overridden == capsys.readouterr().out

    def test_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus=1\n")
        assert main(["resource", "--config", str(cfg)]) == 1

    def test_malformed_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_in 2\n")
        assert main(["resource", "--config", str(cfg)]) == 1
        assert "key=value" in capsys.readouterr().err
        cfg.write_text("=3\n")
        assert main(["resource", "--config", str(cfg)]) == 1
        assert "empty key" in capsys.readouterr().err

    def test_missing_file_is_a_usage_error(self, tmp_path, capsys):
        assert main(["resource", "--config", str(tmp_path / "absent.cfg")]) == 1

    def test_switch_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max_total=2\nverbose=true\n")
        assert main(["oracle-check", "--config", str(cfg)]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_switch_key_rejects_non_boolean(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("verbose=yes\n")
        assert main(["oracle-check", "--config", str(cfg)]) == 1


class TestOracleCheckCommand:
    def test_small_scan_passes(self, capsys):
        assert main(["oracle-check", "--max-total", "6"]) == 0
        out = capsys.readouterr().out
        assert "checks=140 failures=0" in out
        assert out.strip().endswith("PASS")

    def test_custom_betas(self, capsys):
        assert main(["oracle-check", "--max-total", "3", "--betas", "0.2,1.0"]) == 0
        assert "checks=20" in capsys.readouterr().out

    def test_bad_betas(self, capsys):
        assert main(["oracle-check", "--betas", "0.2,zebra"]) == 1
        assert main(["oracle-check", "--betas", ","]) == 1

    def test_max_total_above_the_cap(self, capsys):
        # refused before the scan, which verify_resource would otherwise run unbounded
        for value in ("61", "100000000", "-1"):
            assert main(["oracle-check", "--max-total", value, "--betas", "0.1"]) == 1
            captured = capsys.readouterr()
            assert "--max-total must lie in 0..60" in captured.err
            assert captured.out == ""

    def test_invalid_tolerance(self, capsys):
        for value in ("nan", "-1", "inf"):
            assert main(["oracle-check", "--max-total", "1", "--tol", value]) == 1
            captured = capsys.readouterr()
            assert "must be finite and non-negative" in captured.err
            assert "FAIL" not in captured.out

    def test_impossible_tolerance_fails(self, capsys):
        assert main(["oracle-check", "--max-total", "3", "--tol", "0"]) == 2
        out = capsys.readouterr().out
        assert out.strip().endswith("FAIL")
        # verbose: one line per failing check, 3 input pairs x 5 betas
        assert main(["oracle-check", "--max-total", "1", "--tol", "0", "--verbose"]) == 2
        lines = capsys.readouterr().out.strip().split("\n")
        assert sum(line.startswith("FAIL n_in=") for line in lines) == 15
