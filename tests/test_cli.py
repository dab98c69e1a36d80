import json

import pytest

from regait.cli import main


def read(path):
    with open(path) as fh:
        return fh.read()


def metrics_of(out_dir):
    return json.loads(read(out_dir / "metrics.json"))


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
        manifest = json.loads(read(crawler_run / "manifest.json"))
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
        bad = tmp_path / "params.json"
        bad.write_text('{"l5": 1.0}\n')
        code = main(["crawler", "--params", str(bad),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "unknown crawler parameter" in capsys.readouterr().err

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
        bad.write_text("t,q_0\n0.0,1.0\noops,2.0\n")
        code = main(["learn", "--traj", str(bad),
                     "--out", str(tmp_path / "x")])
        assert code == 4
        assert "line 3" in capsys.readouterr().err

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

    def test_recover_is_deterministic(self, tmp_path):
        outs = []
        for name in ("rec_a", "rec_b"):
            out = tmp_path / name
            code = main(["ctslip", "recover", "--T", "3", "--iters", "1",
                         "--seed", "7", "--out", str(out)])
            assert code == 0
            outs.append(out)
        assert (read(outs[0] / "cost_trace.csv")
                == read(outs[1] / "cost_trace.csv"))
        m = metrics_of(outs[0])
        assert m["final_cost"] <= m["initial_cost"]
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
