import json

import pytest

from pairrank import cli, harness, rank

from conftest import NAMES, boolean_cells, write_dataset


def error_payload(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


class TestErrorJson:
    def test_usage_error(self, capsys):
        assert cli.main(["--error-json", "rank", "--k", "2"]) == 1
        assert error_payload(capsys) == {
            "error": "pairrank rank: the following arguments are required: --obs",
            "category": "usage",
            "exit_code": 1,
        }

    def test_data_error(self, tmp_path, capsys):
        bad = tmp_path / "obs.csv"
        bad.write_text("i,j,comparisons,wins_i\n", encoding="utf-8")
        assert cli.main(["--error-json", "rank", "--obs", str(bad), "--k", "2"]) == 2
        assert error_payload(capsys) == {
            "error": f"{bad}: missing '# n=.. r=.. p=..' metadata line",
            "category": "data",
            "exit_code": 2,
        }

    def test_runtime_error(self, tmp_path, monkeypatch, capsys):
        def disconnected(*args, **kwargs):
            raise rank.DisconnectedGraphError("comparison graph is not connected")

        monkeypatch.setattr(harness, "run_realdata", disconnected)
        argv = ["--error-json", "eval-real", "--obs", "x", "--truth", "y", "--out", "z"]
        assert cli.main(argv) == 3
        assert error_payload(capsys) == {
            "error": "comparison graph is not connected",
            "category": "runtime",
            "exit_code": 3,
        }

    @pytest.mark.parametrize("as_json", [True, False])
    def test_unexpected_exception_is_runtime(self, monkeypatch, capsys, as_json):
        def broken(*args, **kwargs):
            raise TypeError("boom")

        monkeypatch.setattr(harness, "run_realdata", broken)
        argv = ["eval-real", "--obs", "x", "--truth", "y", "--out", "z"]
        assert cli.main(["--error-json"] * as_json + argv) == 3
        if as_json:
            assert error_payload(capsys) == {
                "error": "TypeError: boom", "category": "runtime", "exit_code": 3
            }
        else:
            err = capsys.readouterr().err
            assert "Traceback (most recent call last)" in err
            assert err.rstrip().endswith("pairrank: error: TypeError: boom")


def test_end_to_end(tmp_path, rng):
    def run(*argv):
        assert cli.main([str(a) for a in argv]) == 0

    matrix, obs = tmp_path / "m.csv", tmp_path / "obs.csv"
    run("gen-matrix", "--model", "btl", "--n", 8, "--out", matrix)
    run("simulate", "--matrix", matrix, "--p", 0.5, "--r", 3, "--seed", 4, "--out", obs)
    run("rank", "--obs", obs, "--k", 2, "--out", tmp_path / "rank.json")
    ranked = json.loads((tmp_path / "rank.json").read_text(encoding="utf-8"))
    assert ranked["topk"] == ranked["ranking"][:2]
    assert isinstance(ranked["tie_broken"], bool)
    run("thresholds", "--matrix", matrix, "--k", 2, "--family", "mult:eps=0.5",
        "--out", tmp_path / "th.json")
    assert json.loads((tmp_path / "th.json").read_text(encoding="utf-8"))["delta"] > 0

    config = tmp_path / "bench.cfg"
    config.write_text("model = btl\nn = 10\nk = 3\nr = 2\ntrials = 2\n", encoding="utf-8")
    run("bench", "--config", config, "--out", tmp_path / "bench.csv",
        "--summary", tmp_path / "bench.json")
    summary = json.loads((tmp_path / "bench.json").read_text(encoding="utf-8"))
    assert set(summary["estimators"]) == set(harness.ESTIMATORS)

    obs_path, truth_path = write_dataset(tmp_path, rng)
    outs = [tmp_path / "real-0.csv", tmp_path / "real-1.csv"]
    for out in outs:
        run("eval-real", "--obs", obs_path, "--truth", truth_path, "--q-grid", "0.5,1.0",
            "--trials", 2, "--seed", 1, "--out", out, "--summary", tmp_path / "real.json")
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert boolean_cells(outs[0], ["tie_broken"]) <= {"true", "false"}
    real = json.loads((tmp_path / "real.json").read_text(encoding="utf-8"))
    assert real["items"] == NAMES
