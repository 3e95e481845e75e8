"""Every output file is written through :func:`pairrank._textio.open_output`.

A rewrite must equal a fresh write: each command writes its outputs once
to fresh paths, then again over a longer file, through a symlink, over
one of two hard links and over a file of mode 0600, and every output
must hold the fresh bytes while the link, the twin and the mode stay as
they were.  An output path that cannot be opened is a data error, and a
pipe is written without being cut.  The structural test keeps every
other module of ``src/pairrank`` from opening a file for writing, so a
new writer cannot bring back truncate-on-open.
"""

import ast
import contextlib
import io
import json
import os
import stat
import types
from pathlib import Path

import numpy as np
import pytest

import pairrank
from pairrank import cli, harness

from conftest import write_dataset

SRC = Path(pairrank.__file__).resolve().parent


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("inputs")
    matrix, obs, config = d / "m.csv", d / "obs.csv", d / "b.cfg"
    assert cli.main(["gen-matrix", "--model", "btl", "--n", "8", "--out", str(matrix)]) == 0
    assert cli.main(["simulate", "--matrix", str(matrix), "--p", "0.5", "--r", "3",
                     "--seed", "4", "--out", str(obs)]) == 0
    config.write_text("model = btl\nn = 10\nk = 3\nr = 2\ntrials = 2\n", encoding="utf-8")
    comparisons, truth = write_dataset(d, np.random.default_rng(5), records=120)
    return {"matrix": matrix, "obs": obs, "config": config,
            "comparisons": comparisons, "truth": truth}


# each command's argv without its outputs, and the flags of its outputs
COMMANDS = {
    "gen-matrix": (lambda f: ["gen-matrix", "--model", "thurstone", "--n", "6"], ["--out"]),
    "simulate": (lambda f: ["simulate", "--matrix", f["matrix"], "--p", "1", "--r", "2",
                            "--seed", "1"], ["--out"]),
    "rank": (lambda f: ["rank", "--obs", f["obs"], "--k", "2"], ["--out"]),
    "thresholds": (lambda f: ["thresholds", "--matrix", f["matrix"], "--k", "2"], ["--out"]),
    "bench": (lambda f: ["bench", "--config", f["config"]], ["--out", "--summary"]),
    "eval-real": (lambda f: ["eval-real", "--obs", f["comparisons"], "--truth", f["truth"],
                             "--q-grid", "0.5,1", "--trials", "2"], ["--out", "--summary"]),
}


def write(command, inputs, outs, *options):
    """Run ``pairrank *options command`` in process, its outputs to ``outs``; its exit code."""
    argv, flags = COMMANDS[command]
    pairs = [x for flag, out in zip(flags, outs) for x in (flag, out)]
    return cli.main([*options, *(str(x) for x in argv(inputs) + pairs)])


def prepare(state, path, old):
    """Put ``path`` in ``state``, holding ``old``; the file that must read the new bytes."""
    if state == "longer":
        path.write_bytes(old)
        return path
    twin = path.with_name(path.name + ".twin")
    twin.write_bytes(old)
    if state == "symlink":
        path.symlink_to(twin)
    elif state == "hardlink":
        os.link(twin, path)
    else:
        twin.chmod(0o600)
        twin.rename(path)
        return path
    return twin


@pytest.mark.parametrize("state", ["longer", "symlink", "hardlink", "mode-0600"])
@pytest.mark.parametrize("command", COMMANDS)
def test_a_rewrite_equals_a_fresh_write(inputs, tmp_path, monkeypatch, command, state):
    # the bench summary holds estimator timings; a fixed clock makes its bytes repeatable
    monkeypatch.setattr(harness, "time", types.SimpleNamespace(perf_counter_ns=lambda: 0))
    flags = COMMANDS[command][1]
    fresh = [tmp_path / f"fresh{i}" for i in range(len(flags))]
    assert write(command, inputs, fresh) == 0
    outs = [tmp_path / f"out{i}" for i in range(len(flags))]
    targets = [
        prepare(state, out, b"old line\n" * (1 + len(new.read_bytes()) // 4))
        for out, new in zip(outs, fresh)
    ]
    assert write(command, inputs, outs) == 0
    for out, target, new in zip(outs, targets, fresh):
        assert target.read_bytes() == new.read_bytes()
        assert out.read_bytes() == new.read_bytes()
        assert out.is_symlink() == (state == "symlink")
        if state == "hardlink":
            assert os.stat(out).st_nlink == 2
        if state == "mode-0600":
            assert stat.S_IMODE(os.stat(out).st_mode) == 0o600


@pytest.mark.parametrize("as_json", [True, False])
@pytest.mark.parametrize("where", ["directory", "missing-directory"])
@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, (_, flags) in COMMANDS.items() for flag in flags
])
def test_an_output_path_that_cannot_be_opened_is_a_data_error(
    inputs, tmp_path, command, flag, where, as_json
):
    bad = tmp_path if where == "directory" else tmp_path / "missing" / "out"
    flags = COMMANDS[command][1]
    outs = [bad if f == flag else tmp_path / f"ok{i}" for i, f in enumerate(flags)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = write(command, inputs, outs, *(["--error-json"] if as_json else []))
    err = err.getvalue().splitlines()
    assert code == 2
    assert len(err) == 1, err
    message = json.loads(err[0])["error"] if as_json else err[0]
    assert str(bad) in message
    assert "Traceback" not in message


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("command", ["rank", "thresholds"])
def test_a_pipe_is_written_and_not_cut(inputs, tmp_path, command):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    # a reader that is already open lets the writer open at once; the JSON fits the pipe
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        assert write(command, inputs, [fifo]) == 0
        text = os.read(reader, 1 << 16)
    finally:
        os.close(reader)
    assert json.loads(text)["k"] == 2


# calls that write a file by a path of their own: the methods, and ``open``
# by any name (``open``, ``io.open``, ``Path.open``, ``os.open``)
WRITERS = {"write_text", "write_bytes"}
MODULES = {"builtins", "codecs", "io", "os"}
WRITE_FLAGS = {"O_WRONLY", "O_RDWR", "O_CREAT", "O_TRUNC", "O_APPEND"}


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


def write_calls(source):
    """Line numbers of the calls in ``source`` that open a file for writing.

    ``open`` counts when its mode is not a constant without ``w``, ``a``,
    ``x`` or ``+`` (the mode of ``os.open`` is its flags), and
    ``savetxt`` when its first argument is a path rather than the name of
    a ``with _textio.open_output(...)`` handle.
    """
    tree = ast.parse(source)
    handles = {
        item.optional_vars.id
        for node in ast.walk(tree) if isinstance(node, ast.With)
        for item in node.items
        if isinstance(item.context_expr, ast.Call)
        and _name(item.context_expr.func) == "open_output"
        and isinstance(item.optional_vars, ast.Name)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = _name(node.func)
        if name in WRITERS:
            found.append(node.lineno)
        elif name == "savetxt":
            if not (node.args and _name(node.args[0]) in handles):
                found.append(node.lineno)
        elif name == "open":
            # a module's open takes the path first; a ``Path`` method takes the mode first
            owner = _name(getattr(node.func, "value", None))
            module = isinstance(node.func, ast.Name) or owner in MODULES
            mode = [kw.value for kw in node.keywords if kw.arg in ("mode", "flags")]
            mode = (mode or (node.args[1:2] if module else node.args[:1]) or [None])[0]
            if owner == "os":
                if {_name(n) for n in ast.walk(mode)} & WRITE_FLAGS:
                    found.append(node.lineno)
            elif mode is not None and not (
                isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set("wax+") & set(mode.value)
            ):
                found.append(node.lineno)
    return found


@pytest.mark.parametrize("source, lines", [
    ("Path(p).write_text('x')", [1]),
    ("p.write_bytes(b'x')", [1]),
    ("np.savetxt(path, a)", [1]),
    ("with _textio.open_output(p) as fh:\n    np.savetxt(fh, a)", []),
    ("open(p, 'w')", [1]),
    ("open(p, mode='a')", [1]),
    ("open(p, m)", [1]),
    ("open(p)\nopen(p, 'r', newline='')", []),
    ("Path(p).open('w')", [1]),
    ("Path(p).open(newline='', encoding='utf-8')", []),
    ("io.open(p, 'r+')", [1]),
    ("os.open(p, os.O_WRONLY | os.O_CREAT)", [1]),
    ("os.open(p, os.O_RDONLY)", []),
])
def test_the_scan_finds_each_way_to_write(source, lines):
    assert write_calls(source) == lines


def test_only_textio_opens_a_file_for_writing():
    writers = {
        path.name: write_calls(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py"))
    }
    assert writers.pop("_textio.py") != []
    assert writers == {name: [] for name in writers}
