import csv
import dataclasses
import json
import warnings

import numpy as np
import pytest

from pairrank import cli, harness, model, rank

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

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0,1,5,5\n0,1,2,0\n", "5: pair (0, 1) repeated"),
            ("0,1,5\n", "4: expected 4 fields, got 3"),
            ("0,1,5,x\n", "4: fields must be integers, got ['0', '1', '5', 'x']"),
            ("0,1," + "5" * (csv.field_size_limit() + 1) + ",5\n",
             f"4: field larger than field limit ({csv.field_size_limit()})"),
        ],
        ids=["repeated-pair", "field-count", "non-integer", "oversize-field"],
    )
    def test_bad_observation_row_is_a_data_error(self, tmp_path, capsys, rows, message):
        obs = tmp_path / "obs.csv"
        obs.write_text("# n=3 r=5 p=na\ni,j,comparisons,wins_i\n0,2,1,1\n" + rows, encoding="utf-8")
        assert cli.main(["--error-json", "rank", "--obs", str(obs), "--k", "1"]) == 2
        assert error_payload(capsys) == {
            "error": f"{obs}:{message}", "category": "data", "exit_code": 2
        }

    @pytest.mark.parametrize("p", ["7", "0", "-0.5", "nan", "inf", "abc"])
    def test_bad_metadata_p_is_a_data_error(self, tmp_path, capsys, p):
        obs = tmp_path / "obs.csv"
        obs.write_text(f"# n=3 r=5 p={p}\ni,j,comparisons,wins_i\n0,1,2,1\n", encoding="utf-8")
        assert cli.main(["--error-json", "rank", "--obs", str(obs), "--k", "1"]) == 2
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": f"{obs}: metadata p must be a number in (0, 1] or 'na', got {p!r}",
            "category": "data",
            "exit_code": 2,
        }

    def test_empty_matrix_file_is_one_data_error(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        argv = ["--error-json", "thresholds", "--matrix", str(empty), "--k", "1"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.main(argv) == 2
        assert [str(w.message) for w in caught] == []
        lines = capsys.readouterr().err.strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0]) == {
            "error": f"{empty}: matrix file holds no data", "category": "data", "exit_code": 2
        }

    @pytest.mark.parametrize("before", [False, True], ids=["after", "both-sides"])
    def test_error_json_after_the_subcommand(self, tmp_path, capsys, before):
        empty = tmp_path / "empty.csv"
        empty.write_text("", encoding="utf-8")
        argv = ["thresholds", "--matrix", str(empty), "--k", "1", "--error-json"]
        assert cli.main(["--error-json"] * before + argv) == 2
        assert error_payload(capsys) == {
            "error": f"{empty}: matrix file holds no data", "category": "data", "exit_code": 2
        }

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "command",
        [
            "thresholds --matrix m.csv --k 1 --alpha={}",
            "thresholds --matrix m.csv --k 1 --p={}",
            "gen-matrix --model sst_diagonal --n 5 --out x.csv --gap={}",
            "gen-matrix --model btl --n 2 --out x.csv --quality=1,{}",
            "bench --config c.cfg --out b.csv --lam={}",
        ],
    )
    def test_non_finite_flag_is_a_usage_error(self, capsys, command, value):
        argv = command.format(value).split()
        flag, _, text = argv[-1].partition("=")
        assert cli.main(["--error-json"] + argv) == 1
        payload = error_payload(capsys)
        assert payload["category"] == "usage"
        assert payload["error"].startswith(f"pairrank {argv[0]}: argument {flag}: invalid ")
        assert payload["error"].endswith(f" value: {text!r}")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", ["alpha", "p", "quality_spread", "lam"])
    def test_non_finite_config_value_is_a_data_error(self, tmp_path, capsys, key, value):
        config = tmp_path / "bench.cfg"
        config.write_text(f"model = btl\nn = 8\nk = 2\n{key} = {value}\n", encoding="utf-8")
        argv = ["--error-json", "bench", "--config", str(config), "--out", str(tmp_path / "b.csv")]
        assert cli.main(argv) == 2
        assert error_payload(capsys) == {
            "error": f"line 4: configuration key {key!r}: expected a finite number, got {value!r}",
            "category": "data",
            "exit_code": 2,
        }
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("family", ["topband", "mult", "add", "ranksum"])
    def test_non_finite_family_eps_is_a_data_error(self, tmp_path, capsys, family, value):
        matrix = tmp_path / "m.csv"
        model.write_matrix_csv(model.gen_parametric(np.linspace(1.0, -1.0, 6)), matrix)
        spec = f"{family}:eps={value}"
        argv = ["thresholds", "--matrix", str(matrix), "--k", "2", "--family", spec, "--error-json"]
        assert cli.main(argv) == 2
        assert error_payload(capsys) == {
            "error": f"family spec {spec!r}: expected a finite number, got {value!r}",
            "category": "data",
            "exit_code": 2,
        }

    def test_repeated_config_key_is_a_data_error(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_text("model = btl\nn = 8\nk = 2\nr = 2\nn = 9\n", encoding="utf-8")
        argv = ["--error-json", "bench", "--config", str(config), "--out", str(tmp_path / "b.csv")]
        assert cli.main(argv) == 2
        assert error_payload(capsys) == {
            "error": "line 5: repeated configuration key 'n'", "category": "data", "exit_code": 2
        }
        assert not (tmp_path / "b.csv").exists()

    def test_oversize_csv_field_is_a_data_error(self, tmp_path, rng, capsys):
        obs_path, truth_path = write_dataset(tmp_path, rng, records=3)
        with obs_path.open("a", encoding="utf-8") as fh:
            fh.write("\n" + "x" * (csv.field_size_limit() + 1) + ",a,a\n")
        argv = ["--error-json", "eval-real", "--obs", str(obs_path), "--truth", str(truth_path),
                "--out", str(tmp_path / "out.csv")]
        assert cli.main(argv) == 2
        assert error_payload(capsys) == {
            "error": f"{obs_path}:6: field larger than field limit ({csv.field_size_limit()})",
            "category": "data",
            "exit_code": 2,
        }

    def test_zero_trials_is_a_data_error(self, tmp_path, capsys):
        argv = ["--error-json", "eval-real", "--obs", str(tmp_path / "missing.csv"),
                "--truth", str(tmp_path / "missing.txt"), "--trials", "0",
                "--out", str(tmp_path / "out.csv")]
        assert cli.main(argv) == 2
        assert error_payload(capsys) == {
            "error": "trials must be at least 1", "category": "data", "exit_code": 2
        }
        assert not (tmp_path / "out.csv").exists()

    def test_repeated_q_is_a_data_error(self, tmp_path, capsys):
        argv = ["--error-json", "eval-real", "--obs", str(tmp_path / "missing.csv"),
                "--truth", str(tmp_path / "missing.txt"), "--q-grid", "0.2,0.5,0.5",
                "--out", str(tmp_path / "out.csv")]
        assert cli.main(argv) == 2
        assert error_payload(capsys) == {
            "error": "q_grid repeats 0.5", "category": "data", "exit_code": 2
        }
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("grid, bad", [("0", "0"), ("0.5,1.5", "1.5"), ("-0.2", "-0.2")])
    def test_q_outside_unit_interval_is_a_usage_error(self, tmp_path, capsys, grid, bad):
        argv = ["--error-json", "eval-real", "--obs", str(tmp_path / "missing.csv"),
                "--truth", str(tmp_path / "missing.txt"), f"--q-grid={grid}",
                "--out", str(tmp_path / "out.csv")]
        assert cli.main(argv) == 1
        assert error_payload(capsys) == {
            "error": f"--q-grid fractions must lie in (0, 1], got {bad}",
            "category": "usage",
            "exit_code": 1,
        }
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("flags", [["--p", "0.5", "--alpha", "1e308"], ["--p", "1e-320"]])
    def test_unreachable_repetition_count_is_a_data_error(self, btl8, capsys, flags):
        argv = ["--error-json", "thresholds", "--matrix", str(btl8), "--k", "2", *flags]
        assert cli.main(argv) == 2
        assert "more than 2**53" in error_payload(capsys)["error"]

    def test_bench_alpha_past_the_repetition_cap_is_a_data_error(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_text("model = btl\nn = 8\nk = 2\nalpha = 1e150\n", encoding="utf-8")
        argv = ["--error-json", "bench", "--config", str(config), "--out", str(tmp_path / "b.csv")]
        assert cli.main(argv) == 2
        assert "more than 2**53" in error_payload(capsys)["error"]

    @pytest.mark.parametrize("r", [str(2**63), "99999999999999999999999"])
    def test_simulate_r_past_int64_is_a_data_error(self, btl8, tmp_path, capsys, r):
        argv = ["--error-json", "simulate", "--matrix", str(btl8), "--p", "0.5", "--r", r,
                "--seed", "1", "--out", str(tmp_path / "obs.csv")]
        assert cli.main(argv) == 2
        assert error_payload(capsys)["error"] == f"r must be below 2**63, got {r}"

    def test_bench_rejects_an_infinite_separation(self, tmp_path, capsys):
        # thresholds reads k + h == n as delta null; a results CSV must not carry inf
        config = tmp_path / "bench.cfg"
        config.write_text("model = btl\nn = 8\nk = 5\nh = 3\nr = 2\n", encoding="utf-8")
        argv = ["--error-json", "bench", "--config", str(config), "--out", str(tmp_path / "b.csv")]
        assert cli.main(argv) == 2
        assert error_payload(capsys) == {
            "error": "need k + h + 1 <= n, got k=5, h=3, n=8", "category": "data", "exit_code": 2
        }
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("label", ["a,b", "a\nb"])
    def test_bench_label_that_would_split_a_row_is_a_data_error(self, tmp_path, capsys, label):
        config = tmp_path / "bench.cfg"
        config.write_text("model = btl\nn = 8\nk = 2\nr = 2\n", encoding="utf-8")
        argv = ["--error-json", "bench", "--config", str(config), "--out", str(tmp_path / "b.csv"),
                "--label", label]
        assert cli.main(argv) == 2
        assert error_payload(capsys) == {
            "error": f"label must not contain a comma or a line break, got {label!r}",
            "category": "data",
            "exit_code": 2,
        }
        assert not (tmp_path / "b.csv").exists()

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

    def test_stationary_error_is_runtime(self, monkeypatch, capsys):
        def reducible(*args, **kwargs):
            raise rank.StationaryError("the random walk has 2 closed classes")

        monkeypatch.setattr(harness, "run_realdata", reducible)
        argv = ["--error-json", "eval-real", "--obs", "x", "--truth", "y", "--out", "z"]
        assert cli.main(argv) == 3
        assert error_payload(capsys)["category"] == "runtime"

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


def assert_one_data_error(capsys, message, as_json):
    err = capsys.readouterr().err.splitlines()
    if as_json:
        assert [json.loads(line) for line in err] == [
            {"error": message, "category": "data", "exit_code": 2}
        ]
    else:
        assert err == [f"pairrank: error: {message}"]


class TestInputFilesNameTheLine:
    @pytest.mark.parametrize("as_json", [True, False])
    def test_oversize_family_field_is_one_data_error(self, btl8, tmp_path, capsys, as_json):
        sets = tmp_path / "sets.csv"
        sets.write_text("1,2\n1," + "2" * 200_000 + "\n", encoding="utf-8")
        argv = ["thresholds", "--matrix", str(btl8), "--k", "2", "--family", f"explicit:@{sets}"]
        assert cli.main(argv + ["--error-json"] * as_json) == 2
        message = f"{sets}:2: field larger than field limit ({csv.field_size_limit()})"
        assert_one_data_error(capsys, message, as_json)

    @pytest.mark.parametrize("as_json", [True, False])
    @pytest.mark.parametrize(
        "text, message",
        [
            ("0.5,a\n0.5,0.5\n", "1: column 2 holds 'a', not a number"),
            ("# comment\n\n0.5,0.5\n0.5,0.5,\n", "4: column 3 holds '', not a number"),
            ("0.5,0.5\n0.5\n", "2: expected 2 comma-separated values as on line 1, got 1"),
        ],
        ids=["non-number", "empty-value", "short-row"],
    )
    def test_bad_matrix_row_names_the_line(self, tmp_path, capsys, as_json, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text, encoding="utf-8")
        argv = ["thresholds", "--matrix", str(bad), "--k", "1"]
        assert cli.main(argv + ["--error-json"] * as_json) == 2
        assert_one_data_error(capsys, f"{bad}:{message}", as_json)

    @pytest.mark.parametrize("rows", [2, 10_000], ids=["3-lines", "10000-rows"])
    def test_bad_comparisons_header_quotes_its_line_only(self, tmp_path, capsys, rows):
        # the open quote would swallow every later line into one header field
        obs, truth = tmp_path / "cmp.csv", tmp_path / "truth.txt"
        obs.write_text('item_a,item_b,"winner\n' + "a,b,a\n" * rows, encoding="utf-8")
        truth.write_text("a\nb\n", encoding="utf-8")
        out = str(tmp_path / "out.csv")
        assert cli.main(["eval-real", "--obs", str(obs), "--truth", str(truth), "--out", out,
                         "--error-json"]) == 2
        message = f"{obs}:1: expected header 'item_a,item_b,winner', got 'item_a,item_b,\"winner'"
        assert_one_data_error(capsys, message, True)

    @pytest.mark.parametrize("reader", ["truth", "observations", "config", "matrix", "family"])
    def test_non_utf8_byte_names_the_file_and_line(self, btl8, tmp_path, rng, capsys, reader):
        obs_path, truth_path = write_dataset(tmp_path, rng, records=30)
        out = str(tmp_path / "out.csv")
        lines = {
            "truth": NAMES,
            "observations": ["# n=3 r=5 p=na", "i,j,comparisons,wins_i", "0,1,2,1", "1,2,3,3"],
            # 3,000 comment lines put the bad byte past the decoder's first chunk
            "config": ["model = btl", "n = 8", *["# pad"] * 3000, "k = 2", "r = 2"],
            "matrix": btl8.read_text(encoding="utf-8").splitlines(),
            "family": ["1,2", "1,3", "2,3"],
        }[reader]
        line = len(lines) - 1
        bad = tmp_path / f"bad-{reader}"
        bad.write_bytes(
            "\n".join(lines[: line - 1]).encode() + b"\n\xff" + "\n".join(lines[line - 1:]).encode()
        )
        argv = {
            "truth": ["eval-real", "--obs", str(obs_path), "--truth", str(bad), "--out", out],
            "observations": ["rank", "--obs", str(bad), "--k", "1"],
            "config": ["bench", "--config", str(bad), "--out", out],
            "matrix": ["thresholds", "--matrix", str(bad), "--k", "2"],
            "family": ["thresholds", "--matrix", str(btl8), "--k", "2",
                       "--family", f"explicit:@{bad}"],
        }[reader]
        assert cli.main(["--error-json", *argv]) == 2
        assert error_payload(capsys) == {
            "error": f"{bad}:{line}: 'utf-8' codec can't decode byte 0xff: invalid start byte",
            "category": "data",
            "exit_code": 2,
        }


class TestNoThreadPool:
    CONFIG = "model = btl\nn = 8\nk = 2\nr = 2\ntrials = 2\n"

    def test_threads_environment_variable_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PAIRRANK_THREADS", "abc")
        config = tmp_path / "bench.cfg"
        config.write_text(self.CONFIG, encoding="utf-8")
        assert cli.main(["bench", "--config", str(config), "--out", str(tmp_path / "b.csv")]) == 0

    def test_threads_flag_is_a_usage_error(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_text(self.CONFIG, encoding="utf-8")
        argv = ["--error-json", "bench", "--config", str(config), "--out", str(tmp_path / "b.csv")]
        assert cli.main(argv + ["--threads", "2"]) == 1
        assert "--threads" in error_payload(capsys)["error"]


class TestNoUnusedOptions:
    CONFIG = "model = btl\nn = 8\nk = 2\nr = 2\n"

    def test_per_trial_model_is_an_unknown_key(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_text(self.CONFIG + "per_trial_model = true\n", encoding="utf-8")
        argv = ["--error-json", "bench", "--config", str(config), "--out", str(tmp_path / "b.csv")]
        assert cli.main(argv) == 2
        assert error_payload(capsys)["error"] == "line 5: unknown configuration key 'per_trial_model'"

    def test_timing_in_csv_is_a_usage_error(self, tmp_path, capsys):
        config = tmp_path / "bench.cfg"
        config.write_text(self.CONFIG, encoding="utf-8")
        argv = ["--error-json", "bench", "--config", str(config), "--out", str(tmp_path / "b.csv")]
        assert cli.main(argv + ["--timing-in-csv"]) == 1
        assert "--timing-in-csv" in error_payload(capsys)["error"]


def strict_json(text):
    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


@pytest.fixture
def btl8(tmp_path):
    path = tmp_path / "m.csv"
    assert cli.main(["gen-matrix", "--model", "btl", "--n", "8", "--out", str(path)]) == 0
    return path


class TestThresholds:
    def test_unconstrained_family_is_strict_json(self, btl8, capsys):
        argv = ["thresholds", "--matrix", str(btl8), "--k", "2", "--family", "topband:eps=3",
                "--p", "1", "--r", "2"]
        assert cli.main(argv) == 0
        expected = {"alpha_implied": None, "delta": None, "family": "topband(eps=3)",
                    "k": 2, "n": 8, "r_required": 1}
        out = capsys.readouterr().out
        assert strict_json(out) == expected
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("k, h", [(3, 2), (5, 3)])  # k + h == n reads delta null
    def test_h_is_the_hamming_family(self, btl8, capsys, k, h):
        base = ["thresholds", "--matrix", str(btl8), "--k", str(k), "--p", "0.5", "--r", "3"]
        assert cli.main(base + ["--h", str(h)]) == 0
        by_h = capsys.readouterr().out
        assert cli.main(base + ["--family", f"hamming:h={h}"]) == 0
        assert capsys.readouterr().out == by_h
        report = strict_json(by_h)
        assert report["family"] == f"hamming(h={h})"
        assert (report["delta"] is None) == (k + h == 8)

    # without --p the report reads neither --r nor --alpha, and --family
    # replaces --h; each flag is still range-checked
    OUT_OF_RANGE = {
        "--r 0": "--r must be at least 1, got 0",
        "--r -1": "--r must be at least 1, got -1",
        "--alpha 0": "--alpha must be positive, got 0",
        "--alpha -1": "--alpha must be positive, got -1",
        "--h -1 --family exact": "--h must be nonnegative, got -1",
        "--p 0.5 --r 0": "--r must be at least 1, got 0",
        "--p 0 --r 2": "--p must lie in (0, 1], got 0",
        "--p 1.5": "--p must lie in (0, 1], got 1.5",
        # --k is checked against the 8 items read, as rank checks it
        "--k 0": "--k must lie in [1, 8], got 0",
        "--k -1": "--k must lie in [1, 8], got -1",
        "--k 9": "--k must lie in [1, 8], got 9",
        "--k 9 --family exact": "--k must lie in [1, 8], got 9",
    }

    @pytest.mark.parametrize("flags", OUT_OF_RANGE)
    def test_out_of_range_flag_is_a_usage_error(self, btl8, capsys, flags):
        argv = ["--error-json", "thresholds", "--matrix", str(btl8), "--k", "2", *flags.split()]
        assert cli.main(argv) == 1
        assert error_payload(capsys) == {
            "error": self.OUT_OF_RANGE[flags], "category": "usage", "exit_code": 1
        }


class TestSimulate:
    # checked before the matrix is read: the matrix path here does not exist
    OUT_OF_RANGE = {
        "--p 0": "--p must lie in (0, 1], got 0",
        "--p=-0.5": "--p must lie in (0, 1], got -0.5",
        "--p 1.5": "--p must lie in (0, 1], got 1.5",
        "--r 0": "--r must be at least 1, got 0",
        "--r=-1": "--r must be at least 1, got -1",
        "--seed=-1": "--seed must lie in [0, 2**64 - 1], got -1",
        f"--seed {2**64}": f"--seed must lie in [0, 2**64 - 1], got {2**64}",
    }

    @pytest.mark.parametrize("flags", OUT_OF_RANGE)
    def test_out_of_range_flag_is_a_usage_error(self, tmp_path, capsys, flags):
        argv = ["--error-json", "simulate", "--matrix", str(tmp_path / "missing.csv"),
                "--p", "0.5", "--r", "3", "--seed", "1", "--out", str(tmp_path / "obs.csv"),
                *flags.split()]
        assert cli.main(argv) == 1
        assert error_payload(capsys) == {
            "error": self.OUT_OF_RANGE[flags], "category": "usage", "exit_code": 1
        }
        assert not (tmp_path / "obs.csv").exists()

    def test_range_ends_are_accepted(self, btl8, tmp_path):
        argv = ["simulate", "--matrix", str(btl8), "--p", "1", "--r", "1",
                "--seed", str(2**64 - 1), "--out", str(tmp_path / "obs.csv")]
        assert cli.main(argv) == 0


# flags and config keys that build the same matrix; k only reaches planted kinds
GEN_MATRIX_CASES = {
    "btl": {"quality_spread": 4.0},
    "thurstone": {},
    "btl_outlier": {"outlier": 2},
    "sst_diagonal": {"gap": 0.02, "model_seed": 7},
    "btl_mixture": {"lam": 0.9},
    "planted": {"k": 3, "delta": 0.2, "plant_index": 4},
    "adjacent_swap": {"delta0": 0.01, "swap_index": 2},
    "hamming_planted": {"k": 3, "delta0": 0.1, "ordering_seed": 5},
}


class TestOneModelBuilder:
    def test_every_kind_is_covered(self):
        assert set(GEN_MATRIX_CASES) == set(model.MODEL_KINDS) - {"explicit"}

    @pytest.mark.parametrize("kind", sorted(GEN_MATRIX_CASES))
    def test_gen_matrix_equals_config(self, tmp_path, kind):
        keys = GEN_MATRIX_CASES[kind]
        argv = ["gen-matrix", "--model", kind, "--n", "10", "--out", str(tmp_path / "gen.csv")]
        for key, value in keys.items():
            flag = "--seed" if key == "model_seed" else "--" + key.replace("_", "-")
            argv += [flag, str(value)]
        assert cli.main(argv) == 0
        cfg = harness.config_from_mapping({"model": kind, "n": 10, "k": 2, "r": 1, **keys})
        model.write_matrix_csv(model.instantiate(cfg.model, 10), tmp_path / "cfg.csv")
        assert (tmp_path / "gen.csv").read_bytes() == (tmp_path / "cfg.csv").read_bytes()

    def test_missing_parameter_is_one_data_error(self, tmp_path, capsys):
        expected = {"error": "planted model requires k and delta", "category": "data",
                    "exit_code": 2}
        argv = ["--error-json", "gen-matrix", "--model", "planted", "--n", "8", "--k", "2",
                "--out", str(tmp_path / "m.csv")]
        assert cli.main(argv) == 2
        assert error_payload(capsys) == expected
        config = tmp_path / "bench.cfg"
        config.write_text("model = planted\nn = 8\nk = 2\nr = 2\n", encoding="utf-8")
        argv = ["--error-json", "bench", "--config", str(config), "--out", str(tmp_path / "b.csv")]
        assert cli.main(argv) == 2
        assert error_payload(capsys) == expected


def _bench_override_keys():
    bench = cli._build_parser()._subparsers._group_actions[0].choices["bench"]
    return [a.dest for a in bench._actions if a.dest in harness._CONFIG_KEYS]


# a value for each override that differs from the base config and its defaults
OVERRIDE_VALUES = {
    "model": "thurstone", "label": "x", "family": "mult:eps=0.5", "estimators": "copeland",
    "n": 9, "k": 3, "h": 1, "r": 3, "trials": 3, "master_seed": 3, "swap_index": 3,
    "outlier": 3, "plant_index": 3, "model_seed": 3, "ordering_seed": 3, "p": 0.5,
    "alpha": 2.5, "quality_spread": 2.5, "lam": 0.9, "gap": 0.01, "delta": 0.1, "delta0": 0.01,
}


class TestBenchOverrides:
    def test_every_key_but_two_has_a_flag(self):
        assert set(_bench_override_keys()) == set(harness._CONFIG_KEYS) - {"entries_path"}
        assert set(OVERRIDE_VALUES) == set(_bench_override_keys())

    @pytest.mark.parametrize("key", _bench_override_keys())
    def test_flag_lands_in_config(self, tmp_path, monkeypatch, key):
        loaded = []

        def capture(cfg):
            loaded.append(cfg)
            raise RuntimeError("stop before running")

        monkeypatch.setattr(harness, "run_experiment", capture)
        config = tmp_path / "bench.cfg"
        budget = "alpha = 1.0" if key == "alpha" else "r = 2"
        config.write_text(f"model = btl\nn = 8\nk = 2\n{budget}\n", encoding="utf-8")
        value = OVERRIDE_VALUES[key]
        argv = ["bench", "--config", str(config), "--out", str(tmp_path / "b.csv"),
                "--" + key.replace("_", "-"), str(value)]
        assert cli.main(argv) == 3
        (cfg,) = loaded
        if key == "model":
            assert cfg.model.kind == value
        elif key == "estimators":
            assert cfg.estimators == (value,)
        elif key == "model_seed":
            assert cfg.model.seed == value
        elif key == "ordering_seed":
            assert cfg.model.ordering == tuple(np.random.default_rng(value).permutation(8))
        elif key in {f.name for f in dataclasses.fields(harness.ExperimentConfig)}:
            assert getattr(cfg, key) == value
        else:
            assert getattr(cfg.model, key) == value


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
    assert strict_json((tmp_path / "th.json").read_text(encoding="utf-8"))["delta"] > 0

    config = tmp_path / "bench.cfg"
    config.write_text("model = btl\nn = 10\nk = 3\nr = 2\ntrials = 2\n", encoding="utf-8")
    run("bench", "--config", config, "--out", tmp_path / "bench.csv",
        "--summary", tmp_path / "bench.json")
    summary = strict_json((tmp_path / "bench.json").read_text(encoding="utf-8"))
    assert set(summary["estimators"]) == set(harness.ESTIMATORS)

    obs_path, truth_path = write_dataset(tmp_path, rng)
    outs = [tmp_path / "real-0.csv", tmp_path / "real-1.csv"]
    for out in outs:
        run("eval-real", "--obs", obs_path, "--truth", truth_path, "--q-grid", "0.5,1.0",
            "--trials", 2, "--seed", 1, "--out", out, "--summary", tmp_path / "real.json")
    assert outs[0].read_bytes() == outs[1].read_bytes()
    assert boolean_cells(outs[0], ["tie_broken"]) <= {"true", "false"}
    real = strict_json((tmp_path / "real.json").read_text(encoding="utf-8"))
    assert real["items"] == NAMES
