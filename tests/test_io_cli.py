"""Tests for serialization (canonical JSON, CSV) and the command line tool.

Round trips must be bit-for-bit: the canonical emitter writes floats with 17
significant digits, which is lossless for IEEE doubles, and keeps insertion
order, so saving a loaded document reproduces the original bytes.  The CLI
tests exercise every exit code: 0 success, 1 failed mathematical assertion,
2 non-convergence, 3 bad usage.
"""

import errno
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import henon_morse.cli as cli
import henon_morse.morse as morse_mod
import henon_morse.verify as verify_mod
from henon_morse import (
    DEFAULT,
    HenonParams,
    NonConvergenceError,
    SchemaError,
    Settings,
    TwoRouteError,
    UsageError,
    assemble_morse,
    build_schrodinger,
    check_lower_bounds,
    negative_spectrum,
    solve_nodal,
)
from henon_morse.io import (
    dumps_canonical,
    morse_document,
    profile_document,
    spectrum_document,
    sweep_csv_text,
)


def save(doc, path):
    """Write a document as the command line writes every artifact."""
    cli._write(dumps_canonical(doc) + "\n", path)


@pytest.fixture(scope="module")
def profile_031():
    return solve_nodal(HenonParams(alpha=0.0, p=3.0, n_nodal=1), DEFAULT)


@pytest.fixture(scope="module")
def profile_032():
    return solve_nodal(HenonParams(alpha=0.0, p=3.0, n_nodal=2), DEFAULT)


class TestCanonicalJson:
    def test_floats_keep_17_significant_digits(self):
        values = [0.1, 1.0 / 3.0, 2.0**-52, 6.02e23, -14.770022613174959]
        text = dumps_canonical(values)
        assert json.loads(text) == values

    def test_negative_zero_survives(self):
        text = dumps_canonical([-0.0])
        assert text == "[-0.0]"
        back = json.loads(text)[0]
        assert back == 0.0 and np.signbit(back)

    def test_floats_never_collapse_to_ints(self):
        # 2.0 must emit a token json reads back as float, or a round trip
        # would silently change the type of every whole-valued float
        assert dumps_canonical(2.0) == "2.0"
        assert dumps_canonical(1e30) == "1e+30"
        assert isinstance(json.loads(dumps_canonical(1e30)), float)

    def test_ints_stay_ints(self):
        assert dumps_canonical({"m": 8}) == '{"m": 8}'
        assert isinstance(json.loads(dumps_canonical(8)), int)

    def test_insertion_order_is_kept(self):
        doc = {"z": 1, "a": 2}
        assert dumps_canonical(doc) == '{"z": 1, "a": 2}'

    def test_arrays_serialize_as_lists(self):
        assert dumps_canonical(np.array([1.5, 2.5])) == "[1.5, 2.5]"

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(SchemaError):
            dumps_canonical({"x": bad})

    def test_non_string_keys_rejected(self):
        with pytest.raises(SchemaError):
            dumps_canonical({1: "x"})

    def test_failed_save_keeps_the_old_file(self, tmp_path):
        path = tmp_path / "doc.json"
        save({"x": 1.0}, path)
        old = path.read_bytes()
        with pytest.raises(SchemaError):
            save({"x": float("nan")}, path)
        assert path.read_bytes() == old

    def test_unsupported_type_rejected(self):
        with pytest.raises(SchemaError):
            dumps_canonical({"x": object()})


class TestProfileRoundTrip:
    def test_bit_for_bit(self, profile_031, tmp_path):
        path = tmp_path / "profile.json"
        doc = profile_document(profile_031)
        save(doc, path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        for field in ("grid", "u", "du", "nodal_radii"):
            assert np.array(loaded[field]).tobytes() == doc[field].tobytes()
        assert loaded["d"] == profile_031.amp
        # saving the loaded profile reproduces the original file exactly
        path2 = tmp_path / "profile2.json"
        save(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()


class TestSpectrumRoundTrip:
    def test_exact_keys_and_round_trip(self, profile_032, tmp_path):
        spectrum = negative_spectrum(build_schrodinger(profile_032), DEFAULT)
        doc = spectrum_document(spectrum)
        assert list(doc) == ["lambdas", "T", "M", "eig_tol"]
        path = tmp_path / "spectrum.json"
        save(doc, path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert np.array(loaded["lambdas"]).tobytes() == spectrum.lambdas.tobytes()
        assert (loaded["T"], loaded["M"], loaded["eig_tol"]) == (
            spectrum.T, spectrum.M, spectrum.eig_tol)


class TestMorseRoundTrip:
    def test_document_and_round_trip(self, profile_032, tmp_path):
        report = assemble_morse(profile_032, DEFAULT)
        bounds = check_lower_bounds(report)
        doc = morse_document(report, bounds)
        assert doc["m_total"] == 8 and doc["route_b_total"] == 8
        assert doc["angular_counts"] == [[1, 2, 3], []]
        assert all(row["pass"] for row in doc["bounds"])
        path = tmp_path / "morse.json"
        save(doc, path)
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded["m_total"] == 8
        assert loaded["m_total"] == loaded["m_rad"] + 2 * sum(
            len(modes) for modes in loaded["angular_counts"])
        assert all(set(row) == {"name", "required", "actual", "pass"}
                   for row in loaded["bounds"])
        path2 = tmp_path / "morse2.json"
        save(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()


class TestSweepCsv:
    ROW = {"alpha": 0.0, "p": 3.0, "n": 2, "m_rad": 2, "m_total": 8,
           "lambdas": [-14.770022613174959, -0.9079707000257039],
           "bounds_pass": True}

    def test_header_and_values(self):
        text = sweep_csv_text([self.ROW])
        lines = text.splitlines()
        assert lines[0] == "alpha,p,n,m_rad,m_total,lambda_1,lambda_2,bounds_pass"
        assert lines[1].startswith("0.0,3.0,2,2,8,-14.770022613174959,")
        assert lines[1].endswith(",true")

    def test_unix_line_endings(self):
        text = sweep_csv_text([self.ROW])
        assert "\r" not in text and text.endswith("\n")

    def test_inconsistent_lambda_count_rejected(self):
        other = dict(self.ROW, lambdas=[-1.0])
        with pytest.raises(SchemaError):
            sweep_csv_text([self.ROW, other])

    def test_empty_rejected(self):
        with pytest.raises(SchemaError):
            sweep_csv_text([])


class TestAlphaSpecParsing:
    def test_range_is_inclusive(self):
        assert cli._parse_alphas("0:2:0.5") == [0.0, 0.5, 1.0, 1.5, 2.0]

    def test_comma_list_sorted_deduplicated(self):
        assert cli._parse_alphas("2,0,1,1") == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("bad", ["", "1:0:1", "0:1:0", "0:1", "a,b", "-1,2"])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(UsageError):
            cli._parse_alphas(bad)

    @pytest.mark.parametrize("bad", ["0:inf:1", "nan:1:1", "0:1:nan"])
    def test_non_finite_range_rejected(self, bad):
        with pytest.raises(UsageError, match="finite"):
            cli._parse_alphas(bad)

    def test_range_size_is_bounded(self, monkeypatch):
        # a refused range must not build its list: range() is never reached
        def no_range(*args):
            raise AssertionError("the range was built")

        monkeypatch.setattr(cli, "range", no_range, raising=False)
        with pytest.raises(UsageError, match="more than 10000 points"):
            cli._parse_alphas("0:1e12:1")
        monkeypatch.undo()
        assert len(cli._parse_alphas("0:9999:1")) == cli._MAX_ALPHA_POINTS
        with pytest.raises(UsageError):
            cli._parse_alphas("0:10000:1")

    def test_huge_sweep_range_is_usage(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        assert cli.main(["sweep", "--p", "3", "--nodes", "1", "--alphas",
                         "0:1e12:1", "--csv", str(csv)]) == 3
        assert "more than 10000 points" in capsys.readouterr().err
        assert not csv.exists()


def _every_subcommand(tmp_path):
    """A complete argument list per subcommand, for tests that expect a
    usage error before any work."""
    point = ["--alpha", "0", "--p", "3", "--nodes", "1"]
    return (["solve", *point], ["spectrum", *point], ["morse", *point],
            ["sweep", "--p", "3", "--nodes", "1", "--alphas", "0,1",
             "--csv", str(tmp_path / "s.csv")],
            ["verify", "--grid", "quick"])


class TestCliExitCodes:
    def test_solve_writes_loadable_profile(self, tmp_path, capsys):
        out = tmp_path / "p.json"
        code = cli.main(["solve", "--alpha", "0", "--p", "3", "--nodes", "1",
                         "--out", str(out)])
        assert code == 0
        loaded = json.loads(out.read_text(encoding="utf-8"))
        assert list(loaded) == ["alpha", "p", "n", "d", "grid", "u", "du",
                                "nodal_radii", "tolerances"]
        assert loaded["n"] == 1
        assert len(loaded["grid"]) == len(loaded["u"]) == len(loaded["du"])
        assert len(loaded["nodal_radii"]) == loaded["n"]
        assert loaded["nodal_radii"][-1] == 1.0

    def test_solve_stdout_is_canonical_json(self, capsys):
        code = cli.main(["solve", "--alpha", "0", "--p", "3", "--nodes", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["n"] == 1 and doc["alpha"] == 0.0

    def test_overflowing_amplitude_is_non_convergence(self, capsys):
        """Near p = 1 the central value overflows: a refusal (exit 2) with
        its evidence, not a traceback under the assertion code 1."""
        code = cli.main(["morse", "--alpha", "0", "--p", "1.001",
                         "--nodes", "1"])
        assert code == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "NonConvergenceError"
        assert diag["context"]["log10_d"] > 308.0

    def test_out_in_a_missing_directory_is_usage(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        code = cli.main(["solve", "--alpha", "0", "--p", "3", "--nodes", "1",
                         "--out", str(out)])
        assert code == 3
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "UsageError"
        assert diag["context"] == {"path": str(out),
                                   "reason": "no such directory"}

    def test_unopenable_out_is_usage(self, tmp_path, capsys):
        # the directory itself: its parent exists, but open() refuses it
        code = cli.main(["solve", "--alpha", "0", "--p", "3", "--nodes", "1",
                         "--out", str(tmp_path)])
        assert code == 3
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "UsageError"
        assert diag["context"] == {"path": str(tmp_path),
                                   "reason": os.strerror(errno.EISDIR)}

    def test_missing_argument_is_usage(self, capsys):
        code = cli.main(["solve", "--alpha", "0", "--p", "3"])
        assert code == 3
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "UsageError"

    def test_invalid_parameter_is_usage(self, capsys):
        code = cli.main(["solve", "--alpha", "-1", "--p", "3", "--nodes", "1"])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "UsageError"

    def test_impossible_tolerance_is_non_convergence(self, capsys):
        # overflowing initial-step norms used to give a NaN step, which
        # the rejection loop never refused: this call did not return
        code = cli.main(["solve", "--alpha", "0", "--p", "3", "--nodes", "1",
                         "--rtol", "0", "--atol", "1e-300"])
        assert code == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "NonConvergenceError"
        assert "context" in diag

    def test_failed_bound_is_verification_failure(self, tmp_path, capsys,
                                                  monkeypatch):
        # force a failing bound: the report must still be written first
        def failing_bounds(report):
            return [{"name": "radial_count", "required": report.m_total + 1,
                     "actual": report.m_total, "pass": False}]

        monkeypatch.setattr(cli, "check_lower_bounds", failing_bounds)
        out = tmp_path / "m.json"
        code = cli.main(["morse", "--alpha", "0", "--p", "3", "--nodes", "1",
                         "--out", str(out)])
        assert code == 1
        assert out.exists(), "artifact must be written before the gate raises"
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "VerificationError"
        assert diag["context"]["failing"] == ["radial_count"]

    def test_removed_radial_mesh_flag_is_usage(self, tmp_path, capsys):
        for flag, value in (("--radial-mesh-cells", "2048"),
                            ("--mode-mesh-ratio", "1.02"),
                            ("--mode-mesh-rmin", "1e-8"),
                            ("--profile-resolution", "4097"),
                            ("--grid-geo-rmin", "1e-10"),
                            ("--grid-geo-step", "0.05"),
                            ("--root-tol", "1e-12"),
                            ("--schrodinger-intervals", "8192"),
                            ("--shoot-tmax", "46"),
                            ("--series-start-radius", "1e-6"),
                            ("--boundary-tol", "1e-9"),
                            ("--residual-tol", "1e-6"),
                            ("--form-tol", "1e-7"),
                            ("--truncation-tol", "1e-10"),
                            ("--quad-rel-tol", "1e-10")):
            for argv in _every_subcommand(tmp_path):
                assert cli.main([*argv, flag, value]) == 3
                err = json.loads(capsys.readouterr().err)
                assert err["error"] == "UsageError"
                assert flag in err["message"]

    def test_bad_tolerance_is_usage_before_any_solve(self, tmp_path, capsys,
                                                      monkeypatch):
        solves = []

        def spy(*args, **kwargs):
            solves.append(args)
            raise AssertionError("a solve started")

        monkeypatch.setattr(cli, "solve_nodal", spy)
        monkeypatch.setattr(morse_mod, "solve_nodal", spy)
        assert [f.name for f in fields(Settings)] == ["rtol", "atol", "eig_tol"]
        for argv in _every_subcommand(tmp_path):
            for f in fields(Settings):
                for value in ("nan", "inf", "-1"):
                    flag = "--" + f.name.replace("_", "-")
                    assert cli.main([*argv, flag, value]) == 3
                    err = json.loads(capsys.readouterr().err)
                    assert err["error"] == "UsageError"
                    assert err["message"].startswith(f.name + " must be")
            # eig_tol is a relative accuracy: float64 cannot meet one below
            # its epsilon, and a subnormal one underflows when divided
            for value in ("5e-324", "1e-17"):
                assert cli.main([*argv, "--eig-tol", value]) == 3
                err = json.loads(capsys.readouterr().err)
                assert err["message"].startswith("eig_tol must be")
                assert err["message"].endswith(f"got {value}")
        assert solves == []
        assert not (tmp_path / "s.csv").exists()

    def test_tiny_atol_moves_the_series_start_in(self, capsys):
        # the start radius follows atol, so no atol is refused for it
        code = cli.main(["solve", "--alpha", "0", "--p", "3", "--nodes", "2",
                         "--atol", "1e-30"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["tolerances"]["atol"] == 1e-30
        for atol in ("1e-30", None):
            argv = ["morse", "--alpha", "1", "--p", "3", "--nodes", "2"]
            code = cli.main(argv + (["--atol", atol] if atol else []))
            assert code == 0
            assert json.loads(capsys.readouterr().out)["m_total"] == 14

    def test_parser_is_built_once(self, capsys, monkeypatch):
        cli._build_parser.cache_clear()
        hints = []
        real_hints = cli.get_type_hints
        monkeypatch.setattr(cli, "get_type_hints",
                            lambda cls: hints.append(cls) or real_hints(cls))
        # a usage error first, then two calls: the override of the first
        # must not leak into the second
        assert cli.main(["spectrum", "--alpha", "0", "--p", "3"]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "UsageError"
        base = ["spectrum", "--alpha", "0", "--p", "3", "--nodes", "1"]
        assert cli.main(base + ["--eig-tol", "1e-6"]) == 0
        assert json.loads(capsys.readouterr().out)["eig_tol"] == 1e-6
        assert cli.main(base) == 0
        assert json.loads(capsys.readouterr().out)["eig_tol"] == DEFAULT.eig_tol
        assert cli._build_parser.cache_info().misses == 1
        assert len(hints) == 1

    def test_settings_flag_reaches_solver(self, capsys):
        code = cli.main(["spectrum", "--alpha", "0", "--p", "3", "--nodes",
                         "1", "--eig-tol", "1e-6"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["eig_tol"] == 1e-6


class TestCliMorseWork:
    """The solves one ``morse`` point costs: its own, whatever alpha; the
    alpha = 0 companion's index comes from the point's own spectrum.  The
    point is solved in process, never through the sweep's task runner."""

    @pytest.fixture
    def solved_alphas(self, monkeypatch):
        alphas = []
        real = morse_mod.solve_nodal

        def spy(params, *args, **kwargs):
            alphas.append(params.alpha)
            return real(params, *args, **kwargs)

        monkeypatch.setattr(morse_mod, "solve_nodal", spy)
        return alphas

    def test_point_runs_no_task_runner(self, solved_alphas, capsys,
                                       monkeypatch):
        def no_runner(*args):
            raise AssertionError("morse went through run_tasks")

        monkeypatch.setattr(cli, "run_tasks", no_runner)
        assert cli.main(["morse", "--alpha", "1", "--p", "3",
                         "--nodes", "1"]) == 0
        assert solved_alphas == [1.0]

    def test_out_in_a_missing_directory_is_usage_before_the_solve(
            self, tmp_path, capsys, monkeypatch):
        def no_solve(*args):
            raise AssertionError("a solve started")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "solve_point", no_solve)
        for flag_value in ("missing/x.json", str(tmp_path / "missing" / "x.json")):
            assert cli.main(["morse", "--alpha", "1", "--p", "3", "--nodes",
                             "1", "--out", flag_value]) == 3
            diag = json.loads(capsys.readouterr().err)
            assert diag["error"] == "UsageError"
            assert diag["context"]["path"] == flag_value

    def test_empty_or_directory_out_is_usage_before_the_solve(
            self, tmp_path, capsys, monkeypatch):
        # the diagnostic is the one the write would have given
        def no_solve(*args):
            raise AssertionError("a solve started")

        monkeypatch.setattr(cli, "solve_point", no_solve)
        for path, code in (("", errno.ENOENT), (str(tmp_path), errno.EISDIR)):
            assert cli.main(["morse", "--alpha", "1", "--p", "3", "--nodes",
                             "2", "--out", path]) == 3
            diag = json.loads(capsys.readouterr().err)
            assert diag == {"error": "UsageError",
                            "message": "cannot write the artifact",
                            "context": {"path": path,
                                        "reason": os.strerror(code)}}

    def test_unweighted_point_is_its_own_companion(self, solved_alphas, capsys):
        assert cli.main(["morse", "--alpha", "0", "--p", "3",
                         "--nodes", "1"]) == 0
        assert solved_alphas == [0.0]

    def test_weighted_point_solves_once(self, solved_alphas, capsys):
        assert cli.main(["morse", "--alpha", "1", "--p", "3",
                         "--nodes", "1"]) == 0
        assert solved_alphas == [1.0]

    def test_failed_point_solves_no_companion(self, solved_alphas, capsys,
                                              monkeypatch):
        def failing(profile, *args, **kwargs):
            raise NonConvergenceError("injected", {"alpha": profile.params.alpha})

        monkeypatch.setattr(morse_mod, "assemble_morse", failing)
        assert cli.main(["morse", "--alpha", "1", "--p", "3",
                         "--nodes", "1"]) == 2
        assert solved_alphas == [1.0]
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "NonConvergenceError"
        assert diag["context"] == {"alpha": 1.0}


class TestWorkerPool:
    """``--jobs`` bounds: never more workers than tasks, and N >= 1.  The
    executor is replaced by a serial fake, so no process starts."""

    @pytest.fixture
    def pools(self, monkeypatch):
        sizes = []

        class FakeExecutor:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(verify_mod, "ProcessPoolExecutor", FakeExecutor)
        return sizes

    def test_workers_capped_at_task_count(self, pools):
        assert verify_mod.run_tasks(abs, [-1, -2, -3, -4], 64) == [1, 2, 3, 4]
        assert verify_mod.run_tasks(abs, [-1, -2, -3, -4], 2) == [1, 2, 3, 4]
        assert pools == [4, 2]

    def test_one_worker_or_one_task_runs_in_process(self, pools):
        assert verify_mod.run_tasks(abs, [-1, -2], None) == [1, 2]
        assert verify_mod.run_tasks(abs, [-1, -2], 1) == [1, 2]
        assert verify_mod.run_tasks(abs, [-1], 8) == [1]
        assert pools == []

    def test_sweep_jobs_capped_at_point_count(self, pools, tmp_path, capsys):
        assert cli.main(["sweep", "--p", "3", "--nodes", "1",
                         "--alphas", "0,1,2", "--csv", str(tmp_path / "s.csv"),
                         "--jobs", "64"]) == 0
        assert pools == [3]

    @pytest.mark.parametrize("command", [
        ["sweep", "--p", "3", "--nodes", "1", "--alphas", "0,1",
         "--csv", "unused.csv"],
        ["verify", "--grid", "quick"],
    ])
    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_usage(self, pools, tmp_path, monkeypatch,
                                     capsys, command, jobs):
        monkeypatch.chdir(tmp_path)
        assert cli.main(command + ["--jobs", jobs]) == 3
        assert json.loads(capsys.readouterr().err)["error"] == "UsageError"
        assert pools == []
        assert not (tmp_path / "unused.csv").exists()


class TestCliSweep:
    def test_artifacts_and_jobs_determinism(self, tmp_path, capsys):
        csv1, csv2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        json1, json2 = tmp_path / "s1.json", tmp_path / "s2.json"
        assert cli.main(["sweep", "--p", "3", "--nodes", "1",
                         "--alphas", "0,1,2", "--csv", str(csv1),
                         "--out", str(json1)]) == 0
        assert cli.main(["sweep", "--p", "3", "--nodes", "1",
                         "--alphas", "0,1,2", "--csv", str(csv2),
                         "--out", str(json2), "--jobs", "2"]) == 0
        assert csv1.read_bytes() == csv2.read_bytes()
        assert json1.read_bytes() == json2.read_bytes()
        header = csv1.read_text().splitlines()[0]
        assert header == "alpha,p,n,m_rad,m_total,lambda_1,bounds_pass"
        doc = json.loads(json1.read_text(encoding="utf-8"))
        assert doc["monotone"] is True
        assert [t["nondecreasing"] for t in doc["transitions"]] == [True, True]

    def test_dash_sends_either_artifact_to_stdout(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = ["sweep", "--p", "3", "--nodes", "1", "--alphas", "0,1"]
        assert cli.main(argv + ["--csv", "s.csv", "--out", "s.json"]) == 0
        capsys.readouterr()
        assert cli.main(argv + ["--csv", "-"]) == 0
        assert capsys.readouterr().out == (tmp_path / "s.csv").read_text()
        assert cli.main(argv + ["--csv", "t.csv", "--out", "-"]) == 0
        assert capsys.readouterr().out == (tmp_path / "s.json").read_text()
        assert (tmp_path / "t.csv").read_bytes() == (tmp_path / "s.csv").read_bytes()
        assert not (tmp_path / "-").exists()

    @pytest.mark.parametrize("csv,out", [("x", "x"), ("x", "./x"), ("-", "-")],
                             ids=["same-name", "same-file", "both-stdout"])
    def test_out_on_the_csv_path_is_usage_before_any_solve(
            self, tmp_path, capsys, monkeypatch, csv, out):
        def no_solve(*args):
            raise AssertionError("a solve started")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "solve_point", no_solve)
        assert cli.main(["sweep", "--p", "3", "--nodes", "1", "--alphas",
                         "0,1", "--csv", csv, "--out", out]) == 3
        captured = capsys.readouterr()
        assert json.loads(captured.err)["error"] == "UsageError"
        assert captured.out == ""
        assert list(tmp_path.iterdir()) == []

    def test_empty_csv_is_usage_before_any_solve(self, capsys, monkeypatch):
        def no_tasks(*args):
            raise AssertionError("the sweep started its points")

        monkeypatch.setattr(cli, "run_tasks", no_tasks)
        assert cli.main(["sweep", "--p", "3", "--nodes", "2", "--alphas",
                         "0,1", "--csv", ""]) == 3
        diag = json.loads(capsys.readouterr().err)
        assert diag["context"] == {"path": "",
                                   "reason": os.strerror(errno.ENOENT)}

    def test_single_alpha_is_usage_error(self, tmp_path, capsys):
        code = cli.main(["sweep", "--p", "3", "--nodes", "1",
                         "--alphas", "1", "--csv", str(tmp_path / "s.csv")])
        assert code == 3

    def test_failing_sweep_still_writes_csv(self, tmp_path, capsys,
                                            monkeypatch):
        def failing_bounds(report):
            return [{"name": "radial_count", "required": 1, "actual": 0,
                     "pass": False}]

        monkeypatch.setattr(cli, "check_lower_bounds", failing_bounds)
        csv = tmp_path / "s.csv"
        code = cli.main(["sweep", "--p", "3", "--nodes", "1",
                         "--alphas", "0,1", "--csv", str(csv)])
        assert code == 1
        assert csv.exists()
        rows = csv.read_text().splitlines()
        assert len(rows) == 3 and rows[1].endswith("false")

    def test_unwritable_rows_keep_the_old_csv(self, tmp_path, capsys,
                                              monkeypatch):
        def failing_csv(rows):
            raise SchemaError("injected", {})

        monkeypatch.setattr(cli, "sweep_csv_text", failing_csv)
        csv = tmp_path / "s.csv"
        csv.write_bytes(b"old rows\n")
        code = cli.main(["sweep", "--p", "3", "--nodes", "1",
                         "--alphas", "0,1", "--csv", str(csv)])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "SchemaError"
        assert csv.read_bytes() == b"old rows\n"


    def test_failing_points_keep_finished_rows(self, tmp_path, capsys,
                                               monkeypatch):
        real = cli.solve_point
        injected = {1.0: NonConvergenceError("injected", {"alpha": 1.0}),
                    2.0: TwoRouteError("injected", {"alpha": 2.0})}

        def flaky(alpha, p, n, settings):
            if alpha in injected:
                raise injected[alpha]
            return real(alpha, p, n, settings)

        monkeypatch.setattr(cli, "solve_point", flaky)
        csv, out = tmp_path / "s.csv", tmp_path / "s.json"
        code = cli.main(["sweep", "--p", "3", "--nodes", "1",
                         "--alphas", "0,1,2,3", "--csv", str(csv),
                         "--out", str(out)])
        # the first failing alpha decides the error and its exit code
        assert code == 2
        diag = json.loads(capsys.readouterr().err)
        assert diag["error"] == "NonConvergenceError"
        assert diag["context"] == {"alpha": 1.0}
        rows = csv.read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["0.0", "3.0"]
        assert all(r.endswith("true") for r in rows[1:])
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert [t["alpha_lo"] for t in doc["transitions"]] == [0.0]

    def test_failed_unweighted_point_keeps_the_others_bounds(
            self, tmp_path, capsys, monkeypatch):
        """A failing alpha = 0 point takes no other point's companion
        bounds with it: each report carries its own companion index."""
        real_solve, real_bounds = cli.solve_point, cli.check_lower_bounds
        names = []

        def failing_at_zero(alpha, p, n, settings):
            if alpha == 0.0:
                raise NonConvergenceError("injected", {"alpha": alpha})
            return real_solve(alpha, p, n, settings)

        def recording(report):
            checks = real_bounds(report)
            names.append({c["name"] for c in checks})
            return checks

        monkeypatch.setattr(cli, "solve_point", failing_at_zero)
        monkeypatch.setattr(cli, "check_lower_bounds", recording)
        csv = tmp_path / "s.csv"
        code = cli.main(["sweep", "--p", "3", "--nodes", "2",
                         "--alphas", "0,1,2", "--csv", str(csv)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["context"] == {"alpha": 0.0}
        assert len(names) == 2
        assert all({"autonomous_companion", "autonomous_gap"} <= n
                   for n in names)
        rows = csv.read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["1.0", "2.0"]


class TestCliVerify:
    def test_quick_battery_passes(self, tmp_path, capsys):
        out = tmp_path / "battery.json"
        code = cli.main(["verify", "--grid", "quick", "--out", str(out)])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        section_lines = [ln for ln in lines
                         if ln.startswith("[gate]") or ln.startswith("[info]")]
        assert len(section_lines) == 9
        assert all(": PASS" in ln for ln in section_lines)
        assert lines[-1].startswith("battery: PASS")
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["pass"] is True
        assert [s["criterion"] for s in doc["sections"]] == list(range(1, 10))

        # worker processes leave the document as it is, apart from timing
        out2 = tmp_path / "battery2.json"
        assert cli.main(["verify", "--grid", "quick", "--out", str(out2),
                         "--jobs", "2"]) == 0
        doc2 = json.loads(out2.read_text(encoding="utf-8"))
        del doc["elapsed_seconds"], doc2["elapsed_seconds"]
        assert dumps_canonical(doc2) == dumps_canonical(doc)

    def test_dash_puts_only_the_document_on_stdout(self, tmp_path, capsys,
                                                   monkeypatch):
        battery = {"grid": "quick", "pass": True, "elapsed_seconds": 0.5,
                   "sections": [{"name": "radial_identity", "criterion": 1,
                                 "gating": True, "pass": True,
                                 "summary": "stub", "rows": [{"pass": True}]}]}
        monkeypatch.setattr(cli, "run_battery", lambda *a, **k: battery)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["verify", "--grid", "quick", "--out", "b.json"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("battery: PASS")
        assert cli.main(["verify", "--grid", "quick", "--out", "-"]) == 0
        captured = capsys.readouterr()
        assert captured.out == (tmp_path / "b.json").read_text()
        assert captured.err.splitlines() == [
            "[gate] criterion 1 radial_identity: PASS - stub",
            "battery: PASS (0.5 s, grid=quick)"]
        assert not (tmp_path / "-").exists()

    def test_unknown_grid_is_usage(self, capsys):
        assert cli.main(["verify", "--grid", "bogus"]) == 3

    def test_failing_battery_still_writes_its_document(self, tmp_path,
                                                       monkeypatch, capsys):
        # a wrong square-well count at M = 8192 leaves no raw error to
        # report; the document records null and the battery exits 1
        real = verify_mod.fd_negative_eigenvalues

        def dropping(problem, M=None):
            lam = real(problem, M)
            return lam[:-1] if M == 8192 else lam

        monkeypatch.setattr(verify_mod, "fd_negative_eigenvalues", dropping)
        out = tmp_path / "battery.json"
        assert cli.main(["verify", "--grid", "quick", "--out", str(out)]) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "VerificationError"
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["pass"] is False
        failing = [s["criterion"] for s in doc["sections"] if not s["pass"]]
        assert failing == [8]
        raw = doc["sections"][7]["rows"][-1]
        assert raw["check"] == "raw_accuracy_M8192"
        assert raw["errors"] is None and raw["pass"] is False

    def test_eigenvalue_count_mismatch_serializes(self):
        # two eigenvalues at alpha = 0 but one at alpha = 2: no relative
        # error exists, so the row carries null and fails
        def point(*lambdas):
            return {"report": morse_mod.MorseReport(
                params=None, d=1.0, lambdas=np.array(lambdas), m_rad=0,
                k_max=0, mode_counts_per_k=(), negative_modes=(), m_total=0,
                route_b_total=0, companion_total=0, tolerances={})}

        points = {(0.0, 3.0, 2): point(-20.0, -2.0),
                  (2.0, 3.0, 2): point(-80.0)}
        section = verify_mod._section_scaling(points, (0.0, 2.0), (3.0,), (2,))
        doc = json.loads(dumps_canonical(section))
        assert doc["pass"] is False
        assert doc["rows"] == [{"alpha": 2.0, "p": 3.0, "n": 2,
                                "max_rel_error": None, "pass": False}]
        assert "worst rel err 0.00e+00" in doc["summary"]


def _point(command, alpha, p, n, *flags):
    return [command, "--alpha", alpha, "--p", p, "--nodes", n, *flags]


def _gate_view(doc):
    """The members of a printed document the point gates read: its own,
    a morse report's tolerances, and a profile's nodal radius count and
    last radius."""
    view = dict(doc)
    if "details" in doc:
        view.update(doc["details"]["tolerances"])
    if "nodal_radii" in doc:
        view.update(radii=len(doc["nodal_radii"]),
                    last_radius=doc["nodal_radii"][-1])
    return view


@pytest.mark.parametrize("argv,code,expected", [
    # at low p the potential is |t - c|^(p - 1) at each nodal corner c, so
    # route A's ladder needs the corners as mesh nodes to stabilize
    (_point("morse", "2", "1.5", "2"), 0,
     {"m_rad": 2, "m_total": 14, "route_b_total": 14}),
    # route A's graded first segment meets eig_tol on the extrapolants of
    # 1024, 2048 and 4096 cells
    (_point("morse", "1", "3", "2"), 0,
     {"m_rad": 2, "m_total": 14, "route_b_total": 14, "spectrum_M": 4096}),
    # a Pruefer angle ends 2.9e-3 rad from a multiple of pi, the smallest
    # margin of the low-p scan, yet route C's coarse rung decides it
    (_point("morse", "4", "1.5", "1"), 0,
     {"m_rad": 1, "m_total": 1, "route_b_total": 1}),
    # route C's coarse rung errs by 2.2e-4 rad, the most of any reporting
    # point measured
    (_point("morse", "0", "3", "6"), 0,
     {"m_rad": 6, "m_total": 106, "route_b_total": 106}),
    # the profile passes its audit at a loose rtol, and route C's rungs
    # are capped at spectrum._LOOSEST
    (_point("morse", "1", "3", "2", "--rtol", "1e-6", "--atol", "1e-8"), 0,
     {"m_rad": 2, "m_total": 14, "route_b_total": 14}),
    # the longest zero hunt of the measured points, then a trial step that
    # overflows and is rejected
    (_point("solve", "0", "50", "3"), 0,
     {"n": 3, "radii": 3, "last_radius": 1.0}),
    (_point("solve", "20", "20", "6"), 0,
     {"n": 6, "radii": 6, "last_radius": 1.0}),
    # refusals: a loose rtol fails the profile audit, a threshold tie
    # survives the tighter ladder, and the central value overflows
    (_point("solve", "0", "3", "2", "--rtol", "1e-3"), 2,
     {"error": "NonConvergenceError"}),
    (_point("morse", "2", "30", "2"), 2, {"error": "ThresholdTieError"}),
    (_point("morse", "0", "1.001", "1"), 2, {"error": "NonConvergenceError"}),
], ids=["low-p-2-1.5-2", "graded-stop-1-3-2", "closest-margin-4-1.5-1",
        "coarse-rung-0-3-6", "loose-rtol-1-3-2", "solve-0-50-3",
        "solve-20-20-6", "audit-refusal", "tie-refusal", "overflow-refusal"])
def test_point_prints_its_gated_document(capsys, argv, code, expected):
    """One point through the command line: a report prints its document on
    stdout; a refusal exits 2, prints nothing on stdout and its diagnostic
    on stderr."""
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    if code == 0:
        doc = json.loads(captured.out)
    else:
        assert captured.out == ""
        doc = json.loads(captured.err)
    view = _gate_view(doc)
    assert {key: view[key] for key in expected} == expected


def test_output_does_not_depend_on_blas_threads():
    """A run prints the same bytes whatever the BLAS thread count: route A
    and the residual audit reduce without multithreaded BLAS."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=path)
        run = subprocess.run(
            [sys.executable, "-m", "henon_morse.cli", "morse", "--alpha", "0",
             "--p", "3", "--nodes", "2"],
            env=env, capture_output=True, text=True, timeout=600, check=True)
        outputs.append(run.stdout)
    assert outputs[0] and outputs[0] == outputs[1]
