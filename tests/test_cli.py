import json
import re

import pytest

from regait.cli import main


def read(path):
    with open(path) as fh:
        return fh.read()


def strict_json(path):
    """The JSON document at ``path``; NaN and Infinity, which Python's
    ``json`` writes but strict parsers reject, raise."""

    def reject(name):
        raise ValueError(f"{path}: non-standard JSON constant {name}")

    return json.loads(read(path), parse_constant=reject)


def metrics_of(out_dir):
    return strict_json(out_dir / "metrics.json")


def run_twice(tmp_path, argv):
    """Run ``argv`` twice into one --out path (the manifest records it),
    moving each output aside; return both directories and their files with
    every ``*_seconds`` value dropped, which must match byte for byte. Each
    run's metrics.json and manifest.json must be strict JSON."""
    timing = re.compile(r'("\w+_seconds": )[^,\n]+')
    outs, files = [tmp_path / "run_a", tmp_path / "run_b"], []
    for moved in outs:
        out = tmp_path / "run"
        assert main([*argv, "--out", str(out)]) == 0
        for name in ("metrics.json", "manifest.json"):
            strict_json(out / name)
        files.append({p.name: timing.sub(r"\1", read(p))
                      for p in out.iterdir()})
        out.rename(moved)
    return outs, files


@pytest.fixture(scope="module")
def crawler_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("crawler_jam1")
    code = main(["crawler", "--jam", "1", "--out", str(out)])
    assert code == 0
    return out


class TestCrawlerCommand:
    def test_outputs_present(self, crawler_run):
        for name in ("reference.csv", "recovered.csv", "baseline.csv",
                     "learned.json", "metrics.json", "manifest.json",
                     "traces.svg"):
            assert (crawler_run / name).exists()
        assert read(crawler_run / "traces.svg").startswith("<svg")

    def test_manifest_fields(self, crawler_run):
        manifest = strict_json(crawler_run / "manifest.json")
        assert manifest["subcommand"] == "crawler"
        assert manifest["seed"] == 0
        assert manifest["params"] is None
        assert manifest["duration_seconds"] > 0.0
        assert len(list(crawler_run.glob("**/manifest.json"))) == 1

    def test_recovery_metrics(self, crawler_run):
        m = metrics_of(crawler_run)
        assert m["jam"] == 1
        assert m["rms_r"] < 1e-6
        assert m["rms_alpha"] < 1e-6
        assert m["max_jam_drift_recovered"] < 1e-9
        assert m["max_foot_residual_recovered"] < 1e-9
        assert m["max_foot_residual_reference"] < 1e-9
        assert m["group_velocity_ratio"] < 0.05

    def test_stage_times(self, crawler_run):
        m = metrics_of(crawler_run)
        stages = [m[f"{stage}_seconds"]
                  for stage in ("reference", "learn", "recover", "baseline")]
        assert all(t > 0.0 for t in stages)
        assert sum(stages) < m["runtime_seconds"]

    def test_run_is_deterministic(self, tmp_path):
        _, files = run_twice(tmp_path, ["crawler", "--jam", "1"])
        assert files[0] == files[1]
        assert {"recovered.csv", "learned.json", "metrics.json",
                "manifest.json"} <= set(files[0])

    def test_no_jam_is_identity(self, tmp_path):
        out = tmp_path / "jam0"
        assert main(["crawler", "--jam", "0", "--out", str(out)]) == 0
        assert (read(out / "recovered.csv")
                == read(out / "reference.csv"))
        assert metrics_of(out)["identical_to_reference"] is True

    def test_jam_out_of_range(self, tmp_path, capsys):
        code = main(["crawler", "--jam", "7", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "--jam" in capsys.readouterr().err

    def test_bad_params_json(self, tmp_path, capsys):
        bad = tmp_path / "params.json"
        bad.write_text("{ not json\n")
        code = main(["crawler", "--params", str(bad),
                     "--out", str(tmp_path / "x")])
        assert code == 4
        assert "line" in capsys.readouterr().err

    def test_unknown_param_key(self, tmp_path, capsys):
        # unknown keys, a top level that is not an object, values of the
        # wrong type or length and values the params dataclass rejects are
        # usage errors; the message names the key where there is one
        bad = tmp_path / "params.json"
        cases = ((("crawler",), '{"l5": 1.0}', "unknown crawler parameter"),
                 (("crawler",), '{"l1": null}', "'l1'"),
                 (("crawler",), '["l1"]', "JSON object"),
                 (("crawler",), '{"l1": "abc"}', "'l1'"),
                 (("crawler",), '{"l1": [2.5, 2.0, 99]}', "'l1'"),
                 (("ctslip", "simulate"), '{"K": null}', "'K'"),
                 (("ctslip", "simulate"), '{"K": "x"}', "'K'"),
                 (("ctslip", "simulate"), '{"L": -1}', "'L'"))
        for argv, text, message in cases:
            bad.write_text(text + "\n")
            code = main([*argv, "--params", str(bad),
                         "--out", str(tmp_path / "x")])
            assert code == 2, text
            assert message in capsys.readouterr().err, text

    def test_missing_params_file(self, tmp_path, capsys):
        code = main(["crawler", "--params", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x")])
        assert code == 4
        assert "cannot read" in capsys.readouterr().err


class TestLearnCommand:
    def test_learn_from_emitted_gait(self, crawler_run, tmp_path, capsys):
        out = tmp_path / "learn"
        code = main(["learn", "--traj", str(crawler_run / "reference.csv"),
                     "--out", str(out)])
        assert code == 0
        assert "True" in capsys.readouterr().out
        assert (out / "learned.json").exists()
        m = metrics_of(out)
        assert m["self_below_fit"] is True
        assert m["self_residual_rms"] < m["fit_residual_max"]

    def test_corrupt_csv_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "traj.csv"
        header = "t," + ",".join(f"q_{i}" for i in range(9))
        good = ",".join(["0.0"] + ["1.0"] * 9)
        for row in ("oops" + ",2.0" * 9,            # unparsable field
                    "0.1,nan" + ",2.0" * 8,         # non-finite state
                    "inf" + ",2.0" * 9):            # non-finite time
            bad.write_text(f"{header}\n{good}\n{row}\n")
            code = main(["learn", "--traj", str(bad),
                         "--out", str(tmp_path / "x")])
            assert code == 4
            assert "line 3" in capsys.readouterr().err

    def test_uneven_time_steps_report_line(self, tmp_path, capsys):
        # a uniform file with the row at t = 0.2 removed
        bad = tmp_path / "traj.csv"
        header = "t," + ",".join(f"q_{i}" for i in range(9))
        rows = [",".join([f"{0.1 * k:.1f}"] + ["1.0"] * 9)
                for k in (0, 1, 3, 4)]
        bad.write_text("\n".join([header, *rows]) + "\n")
        code = main(["learn", "--traj", str(bad),
                     "--out", str(tmp_path / "x")])
        assert code == 4
        err = capsys.readouterr().err
        assert f"{bad}: line 4:" in err and "uniform" in err
        assert not (tmp_path / "x").exists()

    def test_wrong_state_dimension(self, tmp_path, capsys):
        small = tmp_path / "traj.csv"
        small.write_text("t,q_0,q_1\n0.0,1.0,0.0\n0.1,1.0,0.1\n0.2,1.0,0.2\n")
        code = main(["learn", "--traj", str(small),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "state columns" in capsys.readouterr().err

    def test_missing_trajectory(self, tmp_path, capsys):
        code = main(["learn", "--traj", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "x")])
        assert code == 4


class TestRankCommand:
    def test_table_and_bound(self, tmp_path, capsys):
        out = tmp_path / "rank"
        code = main(["rank", "--n", "5", "--k", "3", "--trials", "60",
                     "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "minimal integer N = 3" in text
        table = read(out / "rank_table.csv").splitlines()
        assert table[0] == "N,success_rate,exceeds_bound"
        assert len(table) == 5  # N = 1..4: one past the minimal N
        m = metrics_of(out)
        assert m["minimal_N"] == 3
        assert m["rate_at_minimal"] >= 0.95

    def test_params_flag_rejected(self, tmp_path, capsys):
        # rank reads no parameter file, so it takes no --params flag
        code = main(["rank", "--params", "x.json",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "--params" in capsys.readouterr().err

    def test_invalid_rank_arguments(self, tmp_path, capsys):
        code = main(["rank", "--n", "5", "--k", "5",
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "k < n" in capsys.readouterr().err


class TestCtslipCommand:
    def test_simulate(self, tmp_path):
        out = tmp_path / "sim"
        code = main(["ctslip", "simulate", "--T", "3", "--out", str(out)])
        assert code == 0
        com = read(out / "com.csv").splitlines()
        assert com[0] == "t,x,y,xdot,ydot,zeta,psi,mode"
        assert len(com) == 1502
        assert (out / "energy.csv").exists()
        assert read(out / "hop.svg").startswith("<svg")
        m = metrics_of(out)
        assert m["crashed"] is False
        assert m["strides"] >= 2

    def test_negative_span_fails(self, tmp_path, capsys):
        # a failed run removes the output directory it created, and only
        # that; a negative span is a usage error (see TestHarness), so the
        # numeric failure here is a span off the step grid
        cases = ((("ctslip", "simulate", "--T", "0.0501"),
                  "integer number of steps"),
                 (("crawler", "--dt", "0.3"), "integer number of steps"))
        for argv, message in cases:
            out = tmp_path / "sim"
            assert main([*argv, "--out", str(out)]) == 3
            assert message in capsys.readouterr().err
            assert not out.exists()
        kept = tmp_path / "kept"
        kept.mkdir()
        assert main(["ctslip", "simulate", "--T", "0.0501",
                     "--out", str(kept)]) == 3
        assert "integer number of steps" in capsys.readouterr().err
        assert kept.is_dir()

    def test_non_finite_params_are_usage_errors(self, tmp_path, capsys):
        # Python's json reads NaN and Infinity; the parameter classes
        # reject them before anything is simulated or written
        params, out = tmp_path / "params.json", tmp_path / "x"
        for argv, text, name in (
                (("ctslip", "simulate"), '{"K": NaN}', "K"),
                (("ctslip", "damage"), '{"L": Infinity}', "L"),
                (("ctslip", "simulate"), '{"t_s": NaN}', "t_s"),
                (("ctslip", "simulate"), '{"frequency": Infinity}',
                 "frequency"),
                (("ctslip", "simulate"), '{"sweep_angle": NaN}',
                 "sweep_angle"),
                (("crawler",), '{"l1": [NaN, 1.0]}', "l1")):
            params.write_text(text + "\n")
            assert main([*argv, "--params", str(params),
                         "--out", str(out)]) == 2, text
            assert f"{name} must be finite" in capsys.readouterr().err, text
            assert not out.exists(), text

    def test_bad_step_width_is_a_usage_error(self, tmp_path, capsys):
        # a step width that is not finite and positive never reaches the
        # simulator or the integrator, and no output directory is left
        out = tmp_path / "x"
        for argv in (("ctslip", "simulate", "--T", "12"),
                     ("ctslip", "recover"), ("crawler",), ("manipulator",)):
            for dt in ("inf", "nan", "0", "-1", "abc"):
                assert main([*argv, "--dt", dt, "--out", str(out)]) == 2
                err = capsys.readouterr().err
                assert "--dt" in err and repr(dt) in err, (argv, dt)
                assert not out.exists()

    def test_recover_is_deterministic(self, tmp_path):
        outs, files = run_twice(tmp_path, ["ctslip", "recover", "--T", "3",
                                           "--iters", "1", "--seed", "7"])
        assert files[0] == files[1]
        assert {"cost_trace.csv", "metrics.json",
                "manifest.json"} <= set(files[0])
        m = metrics_of(outs[0])
        assert m["final_cost"] <= m["initial_cost"]
        # the reported start cost is the search's first evaluation
        first = read(outs[0] / "cost_trace.csv").splitlines()[1].split(",")
        assert m["initial_cost"] == float(first[1])
        assert (outs[0] / "recovered_params.json").exists()
        assert read(outs[0] / "cost.svg").startswith("<svg")


class TestManipulatorCommand:
    def test_force_matching_run(self, tmp_path):
        out = tmp_path / "manip"
        code = main(["manipulator", "--T", "0.5", "--out", str(out)])
        assert code == 0
        m = metrics_of(out)
        assert m["tracking_error"] < 1e-6
        assert m["worst_match_residual"] < 1e-9
        assert m["gauge_ok"] is True
        header = read(out / "tracking.csv").splitlines()[0]
        assert header == "t,q0_des,q1_des,q0_red,q1_red"
        assert read(out / "tracking.svg").startswith("<svg")


class TestHarness:
    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert capsys.readouterr().out.strip()

    @pytest.mark.parametrize("argv", [
        ("crawler", "--period", "0"), ("crawler", "--period", "-1"),
        ("crawler", "--period", "nan"), ("crawler", "--order", "-1"),
        ("ctslip", "simulate", "--T", "-1"),
        ("ctslip", "simulate", "--T", "0"),
        ("ctslip", "damage", "--ts", "nan"),
        ("ctslip", "damage", "--ts", "-5"),
        ("ctslip", "damage", "--ts", "inf"),
        ("ctslip", "damage", "--strides", "-3"),
        ("ctslip", "recover", "--iters", "-1"),
        ("manipulator", "--T", "0"), ("manipulator", "--T", "inf"),
        ("learn", "--traj", "traj.csv", "--order", "-2"),
        ("crawler", "--seed", "-1"), ("ctslip", "simulate", "--seed", "-1"),
        ("ctslip", "damage", "--seed", "-1"),
        ("ctslip", "recover", "--seed", "-1"), ("manipulator", "--seed", "-1"),
        ("learn", "--traj", "traj.csv", "--seed", "-1"),
        ("rank", "--seed", "-1")],
        ids=" ".join)
    def test_flag_out_of_range_is_a_usage_error(self, tmp_path, capsys,
                                                 argv):
        # rejected while the arguments are parsed: nothing is run and no
        # output directory is made
        out = tmp_path / "x"
        assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be" in err
        assert repr(argv[-1]) in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ("ctslip", "simulate", "--T", "1"),
        ("ctslip", "damage", "--T", "3", "--strides", "2"),
        ("manipulator", "--T", "0.2"),
        ("rank", "--n", "4", "--k", "2", "--trials", "20")], ids=" ".join)
    def test_repeat_run_gives_same_bytes(self, tmp_path, argv):
        _, files = run_twice(tmp_path, argv)
        assert files[0] == files[1]
        assert {"metrics.json", "manifest.json"} < set(files[0])

    def test_repeat_learn_gives_same_bytes(self, crawler_run, tmp_path):
        _, files = run_twice(tmp_path, ["learn", "--traj",
                                        str(crawler_run / "reference.csv")])
        assert files[0] == files[1]
        assert "learned.json" in files[0]
