"""Every input file reports a data error as ``path:line: problem``.

The property mutates one of six small valid input files (matrix,
observations, comparisons, truth, explicit family and bench
configuration) by one to four byte inserts, deletes or replacements from
:data:`ALPHABET` and runs the CLI on it in process under
``--error-json``.  Every run must exit 0, 1 or 2 with exactly one JSON
line on stderr for a failure and none for a success, and a data error
must start ``<path>:<line>: `` for a line the file has (or the line
after its last), or ``<path>: `` when the file holds no records or, for
the configuration, when its keys disagree or build no model, and must
name the mutated file.  A mutated file that holds a number above 300 is
skipped, so that no example asks for a large ``n x n`` array.

The example tests pin each reader's errors, and the oracle test checks
that a matrix file :func:`numpy.loadtxt` accepts reads bit for bit as
``loadtxt`` reads it.
"""

import contextlib
import io
import itertools
import json
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from pairrank import cli
from pairrank.model import make_matrix, read_matrix_csv
from pairrank.sample import read_observations_csv

ALPHABET = b',"\n\r\xff\x00 .-e0123456789=#abn\t'

MATRIX = b"0.5,0.75,0.25\n0.25,0.5,0.5\n0.75,0.5,0.5\n"
BASE = {
    "matrix": MATRIX,
    "observations": b"# n=3 r=5 p=na\ni,j,comparisons,wins_i\n0,1,2,1\n0,2,3,3\n1,2,1,0\n",
    "comparisons": b"item_a,item_b,winner\na,b,a\nb,c,b\na,c,c\na,b,a\n",
    "truth": b"a\nb\nc\n",
    "family": b"1,3\n2,3\n",
    "config": b"model = planted\nn = 4\nk = 1\ndelta = 0.1\nr = 1\n",
}
# the error of a reader that found no records, after ``<path>: ``
NO_RECORDS = {
    "matrix file holds no data",
    "no comparison records",
    "no items listed",
    "no position sets found",
}
NUMBER = re.compile(rb"\d+(?:\.\d*)?(?:[eE][-+]?\d+)?")
EXAMPLES = itertools.count()


def argv_for(kind, paths):
    """The command line that reads the file ``kind``, with every other input valid."""
    if kind == "matrix":
        return ["thresholds", "--matrix", paths["matrix"], "--k", "1"]
    if kind == "observations":
        return ["rank", "--obs", paths["observations"], "--k", "1"]
    if kind == "family":
        family = f"explicit:@{paths['family']}"
        return ["thresholds", "--matrix", paths["matrix"], "--k", "2", "--family", family]
    if kind == "config":
        return ["bench", "--config", paths["config"], "--out", paths["out"],
                "--estimators", "copeland"]
    return ["eval-real", "--obs", paths["comparisons"], "--truth", paths["truth"],
            "--q-grid", "1", "--trials", "1", "--out", paths["out"]]


def run(argv):
    """Exit code and stderr lines of ``pairrank --error-json <argv>``, run in process."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--error-json", *argv])
    return code, err.getvalue().splitlines()


@st.composite
def mutated(draw, data: bytes) -> bytes:
    """``data`` after one to four byte inserts, deletes or replacements from ``ALPHABET``."""
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        byte = bytes([draw(st.sampled_from(ALPHABET))])
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        keep = at + (edit != "insert")
        data = data[:at] + (b"" if edit == "delete" else byte) + data[keep:]
    return data


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """A directory holding every file of ``BASE``, and their paths."""
    root = tmp_path_factory.mktemp("inputs")
    paths = {}
    for name, base in BASE.items():
        (root / name).write_bytes(base)
        paths[name] = str(root / name)
    return root, paths


@pytest.mark.parametrize("kind", sorted(BASE))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_file_fails_naming_its_line(valid_files, kind, data):
    text = data.draw(mutated(BASE[kind]))
    assume(all(float(number) <= 300 for number in NUMBER.findall(text)))
    root, paths = valid_files
    # a new name for each example: a file system may sync a truncated file slowly
    example = next(EXAMPLES)
    paths = {**paths, kind: str(root / f"{kind}-{example}"), "out": str(root / f"out-{example}")}
    with open(paths[kind], "wb") as fh:
        fh.write(text)
    code, lines = run(argv_for(kind, paths))
    assert code in (0, 1, 2), (text, lines)
    if code == 0:
        assert lines == [], text
        return
    assert len(lines) == 1, (text, lines)
    payload = json.loads(lines[0])
    assert payload["exit_code"] == code
    if code != 2:
        return
    error = payload["error"]
    assert paths[kind] in error, (text, error)
    named = next(paths[name] for name in BASE if error.startswith(f"{paths[name]}:"))
    rest = error[len(named):]
    where = re.match(r":(\d+): ", rest)
    if where is None:
        assert kind == "config" or rest in {f": {problem}" for problem in NO_RECORDS}, (text, error)
    else:
        with open(named, "rb") as fh:
            last = len(fh.read().splitlines())
        assert 1 <= int(where[1]) <= last + 1, (text, error)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


def data_error(argv):
    code, lines = run(argv)
    assert code == 2, lines
    return json.loads(lines[0])["error"]


class TestObservations:
    def test_oversize_n_is_a_data_error_on_line_1(self, tmp_path):
        path = write(tmp_path, "obs.csv", f"# n={10**9} r=2 p=0.5\ni,j,comparisons,wins_i\n")
        with pytest.raises(ValueError) as exc:
            read_observations_csv(path)
        assert str(exc.value) == f"{path}:1: metadata n={10**9} is too large to allocate"

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_items_is_a_data_error_on_line_1(self, tmp_path, n):
        path = write(tmp_path, "obs.csv", f"# n={n} r=2 p=0.5\ni,j,comparisons,wins_i\n")
        message = f"{path}:1: metadata n must be at least 2, got {n}"
        with pytest.raises(ValueError) as exc:
            read_observations_csv(path)
        assert str(exc.value) == message
        assert data_error(["rank", "--obs", str(path), "--k", "1"]) == message

    def test_r_past_int64_is_a_data_error_on_line_1(self, tmp_path):
        text = f"# n=3 r={2**63} p=na\ni,j,comparisons,wins_i\n0,1,{2**63},1\n"
        path = write(tmp_path, "obs.csv", text)
        with pytest.raises(ValueError) as exc:
            read_observations_csv(path)
        assert str(exc.value) == f"{path}:1: metadata r must be below 2**63, got {2**63}"

    def test_quoted_field_spanning_lines_names_its_first_line(self, tmp_path):
        # "0<LF>" would read as 0, and the bad counts below it as line 4
        text = '# n=3 r=5 p=na\ni,j,comparisons,wins_i\n"0\n",1,2,1\n0,2,9,1\n'
        path = write(tmp_path, "obs.csv", text)
        with pytest.raises(ValueError) as exc:
            read_observations_csv(path)
        assert str(exc.value) == f"{path}:3: quoted field spans lines"

    def test_row_after_blank_lines_names_its_own_line(self, tmp_path):
        text = "# n=3 r=5 p=na\r\ni,j,comparisons,wins_i\r0,1,2,1\n\r\n0,2,9,1\n"
        path = write(tmp_path, "obs.csv", text)
        with pytest.raises(ValueError) as exc:
            read_observations_csv(path)
        assert str(exc.value) == f"{path}:5: counts violate 0 <= wins <= comparisons <= r"

    def test_missing_header_names_line_2(self, tmp_path):
        path = write(tmp_path, "obs.csv", "# n=3 r=5 p=na\n")
        with pytest.raises(ValueError) as exc:
            read_observations_csv(path)
        assert str(exc.value) == f"{path}:2: expected header 'i,j,comparisons,wins_i'"


class TestMatrix:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("0.5,0.75\n\n# c\n0.25,1.5\n", "4: entry (2, 2) is 1.5, outside [0, 1]"),
            ("0.5,nan\n0.5,0.5\n", "1: entry (1, 2) is nan, outside [0, 1]"),
            ("0.5,0.5\n0.5,0.625\n", "2: diagonal entry (2, 2) is 0.625, not 1/2"),
            ("0.5,0.75,0.5\n0.25,0.5,0.5\n0.5,0.25,0.5\n",
             "2: entries (2, 3) and (3, 2) sum to 0.75, not 1"),
            ("0.5,0.5,0.5\n0.5,0.5,0.5\n", "2: expected 3 rows, as many as columns, got 2"),
            ("0.5,0.5\n0.5,0.5\n0.5,0.5\n", "3: expected 2 rows, as many as columns, got more"),
            ("# one item\n0.5\n", "2: need at least 2 items, got a row of 1 value"),
        ],
        ids=["outside", "nan", "diagonal", "sum", "too-few-rows", "too-many-rows", "one-value"],
    )
    def test_rule_error_names_the_row(self, tmp_path, text, message):
        path = write(tmp_path, "m.csv", text)
        with pytest.raises(ValueError) as exc:
            read_matrix_csv(path)
        assert str(exc.value) == f"{path}:{message}"

    @pytest.mark.parametrize("text", ["", "\n# nothing\n\n"], ids=["empty", "comments"])
    def test_file_without_rows_names_the_file(self, tmp_path, text):
        path = write(tmp_path, "m.csv", text)
        assert data_error(["thresholds", "--matrix", str(path), "--k", "1"]) == (
            f"{path}: matrix file holds no data"
        )


@st.composite
def matrix_files(draw):
    """A valid matrix as text, with comments, blank lines, spaces and LF, CRLF or CR endings."""
    n = draw(st.integers(2, 5))
    upper = draw(st.lists(st.floats(0.0, 1.0), min_size=n * n, max_size=n * n))
    grid = np.full((n, n), 0.5)
    for i in range(n):
        for j in range(i + 1, n):
            grid[i, j], grid[j, i] = upper[i * n + j], 1.0 - upper[i * n + j]
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    pad = st.sampled_from(["", " ", "  ", "\t"])
    fmt = draw(st.sampled_from(["{!r}", "{:.17g}", "{:.3e}", "{:.6f}"]))
    lines = []
    for row in grid:
        lines += draw(st.lists(st.sampled_from(["", "# note", "#1,2"]), max_size=2))
        cells = [draw(pad) + fmt.format(float(x)) + draw(pad) for x in row]
        lines.append(",".join(cells) + draw(st.sampled_from(["", " # row", "#"])))
    text = ending.join(lines)
    return text + ending if draw(st.booleans()) else text


class TestMatrixOracle:
    @settings(max_examples=150, deadline=None)
    @given(text=matrix_files())
    def test_reads_as_loadtxt_reads(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("oracle") / "m.csv"
        path.write_bytes(text.encode("ascii"))
        grid = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
        try:
            expected = make_matrix(grid).entries
        except ValueError:  # a rounded value breaks (i, j) + (j, i) = 1
            with pytest.raises(ValueError):
                read_matrix_csv(path)
        else:
            assert read_matrix_csv(path).entries.tobytes() == expected.tobytes()


class TestConfig:
    BASE = "model = btl\nn = 8\nk = 2\nr = 2\n"

    @pytest.mark.parametrize(
        "text, message",
        [
            (BASE + "n 8\n", "5: expected 'key = value', got 'n 8'"),
            (BASE + "\n# x\nsize = 8\n", "7: unknown configuration key 'size'"),
            (BASE + "k = 3\n", "5: repeated configuration key 'k'"),
            ("trials = 2\fx\n" + BASE,
             "1: configuration key 'trials': invalid literal for int() with base 10: '2\\x0cx'"),
            ("model = btl\rn = 8\r\nk = two\n",
             "3: configuration key 'k': invalid literal for int() with base 10: 'two'"),
            (BASE + "p = 0\n", "5: configuration key 'p': must lie in (0, 1], got '0'"),
            ("n = 1\n" + BASE, "1: configuration key 'n': must be at least 2, got '1'"),
            (BASE + "model_seed = -1\n",
             "5: configuration key 'model_seed': must lie in [0, 2**64 - 1], got '-1'"),
            ("model = elo\n",
             "1: configuration key 'model': must be one of btl, "
             "thurstone, btl_outlier, sst_diagonal, btl_mixture, planted, adjacent_swap, "
             "hamming_planted, explicit, got 'elo'"),
        ],
        ids=["no-equals", "unknown-key", "repeated-key", "form-feed-is-no-line-break", "cr-lines",
             "p-zero", "one-item", "negative-seed", "unknown-model"],
    )
    def test_syntax_error_names_the_file_and_line(self, tmp_path, text, message):
        path = write(tmp_path, "bench.cfg", text)
        argv = ["bench", "--config", str(path), "--out", str(tmp_path / "b.csv")]
        assert data_error(argv) == f"{path}:{message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("model = btl\nn = 8\nk = 7\nh = 1\nr = 2\n", "need k + h + 1 <= n, got k=7, h=1, n=8"),
            ("model = planted\nn = 8\nk = 2\nr = 2\n", "planted model requires k and delta"),
            ("model = planted\nn = 8\nk = 2\ndelta = 0.1\nplant_index = 9\nr = 2\n",
             "plant_index must lie in [k-1, n), got 9"),
            ("n = 8\nk = 2\n", "configuration must set 'model'"),
        ],
        ids=["cross-key", "missing-parameter", "model-for-n", "missing-key"],
    )
    def test_keys_that_disagree_name_the_file(self, tmp_path, text, message):
        path = write(tmp_path, "bench.cfg", text)
        argv = ["bench", "--config", str(path), "--out", str(tmp_path / "b.csv")]
        assert data_error(argv) == f"{path}: {message}"

    def test_explicit_matrix_of_the_wrong_size_names_the_matrix_file(self, tmp_path):
        matrix = write(tmp_path, "m2.csv", "0.5,0.5\n0.5,0.5\n")
        path = write(tmp_path, "bench.cfg", f"model = explicit\nentries_path = {matrix}\n"
                     "n = 8\nk = 2\nr = 2\n")
        argv = ["bench", "--config", str(path), "--out", str(tmp_path / "b.csv")]
        assert data_error(argv) == f"{matrix}: matrix file has n=2, expected 8"


class TestFamilyAndTruth:
    def test_family_number_spanning_lines_names_its_first_line(self, tmp_path):
        matrix = write(tmp_path, "m.csv", MATRIX.decode())
        sets = write(tmp_path, "sets.csv", '1,3\n"2\n",3\n')
        argv = ["thresholds", "--matrix", str(matrix), "--k", "2", "--family", f"explicit:@{sets}"]
        assert data_error(argv) == f"{sets}:2: quoted field spans lines"

    def test_id_missing_from_truth_names_both_files(self, tmp_path):
        obs = write(tmp_path, "cmp.csv", "item_a,item_b,winner\na,b,a\n\nb,c,c\n")
        truth = write(tmp_path, "truth.txt", "a\nb\n")
        argv = ["eval-real", "--obs", str(obs), "--truth", str(truth), "--out", str(tmp_path / "o")]
        assert data_error(argv) == (
            f"{obs}:4: item 'c' appears in comparisons but not in the item list {truth}"
        )
