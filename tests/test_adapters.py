"""Subprocess toolchain adapters and digest-keyed replay mocks."""

import gc
import os
import tempfile
import time

import pytest

from j2cj.adapters import (
    CommandCompiler,
    CommandRunner,
    MockCompiler,
    MockRunner,
    RunOutcome,
    ToolchainError,
)
from j2cj.jsonl import text_digest
from j2cj.repair_engine import normalize_output


def test_command_compiler_success_and_failure():
    compiler = CommandCompiler(
        ["sh", "-c", 'grep -q MAGIC {source} || { echo "missing MAGIC token" >&2; exit 1; }']
    )
    good = compiler.compile("let x = 1 // MAGIC\n")
    assert good.ok
    assert good.diagnostics == ""
    bad = compiler.compile("let x = 1\n")
    assert not bad.ok
    assert "missing MAGIC token" in bad.diagnostics


def test_command_compiler_requires_source_placeholder():
    with pytest.raises(ToolchainError):
        CommandCompiler(["true"])


def test_command_compiler_missing_executable_is_toolchain_error():
    compiler = CommandCompiler(["definitely-not-a-compiler-xyz", "{source}"])
    with pytest.raises(ToolchainError):
        compiler.compile("x")


def test_command_compiler_keeps_artifacts_until_collected(tmp_path, monkeypatch):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    compiler = CommandCompiler(["cp", "{source}", "{artifact}"])
    artifacts = [compiler.compile(f"let x = {i}\n").artifact for i in range(2)]
    assert all(os.path.isfile(a) for a in artifacts)  # the runner still needs them
    del compiler
    gc.collect()
    assert list(tmp_path.iterdir()) == []


def test_command_runner_pipes_stdin_and_captures_stdout():
    runner = CommandRunner(["sh", "-c", "cat"])
    outcome = runner.run("ignored", "ping\n")
    assert outcome.output == "ping\n"
    assert not outcome.timed_out


@pytest.mark.parametrize(
    "script,output",
    [("echo 6; exit 3", "6\n<exit 3>\n"), ("printf 6; exit 1", "6\n<exit 1>\n")],
    ids=["line-ended", "unterminated"],
)
def test_command_runner_output_ends_with_a_nonzero_exit_code(script, output):
    outcome = CommandRunner(["sh", "-c", script]).run("x", "3\n")
    assert outcome == RunOutcome(output, False)
    assert normalize_output(outcome.output) != normalize_output("6\n")


def test_command_runner_timeout_counts_as_timed_out():
    runner = CommandRunner(["sh", "-c", "sleep 5"], timeout=0.2)
    outcome = runner.run("ignored", "")
    assert outcome.timed_out


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:  # a killed child waiting to be reaped by init counts as gone
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return True


@pytest.mark.parametrize("adapter", ["compiler", "runner"])
def test_timeout_kills_the_whole_process_group(tmp_path, adapter):
    pidfile = tmp_path / "grandchild.pid"
    script = f"sleep 20 & echo $! > {pidfile}; wait"
    if adapter == "compiler":
        with pytest.raises(ToolchainError, match="timed out"):
            CommandCompiler(["sh", "-c", script, "{source}"], timeout=0.5).compile("x")
    else:
        assert CommandRunner(["sh", "-c", script], timeout=0.5).run("ignored", "").timed_out
    pid = int(pidfile.read_text(encoding="ascii"))
    deadline = time.monotonic() + 5
    while _alive(pid) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _alive(pid)


def test_mock_compiler_replays_by_digest():
    mock = MockCompiler({})
    digest = mock.add("candidate a", ok=False, diagnostics="error: bad type")
    outcome = mock.compile("candidate a")
    assert not outcome.ok
    assert outcome.diagnostics == "error: bad type"
    assert outcome.artifact == digest == text_digest("candidate a")
    with pytest.raises(ToolchainError):
        mock.compile("unknown candidate")


def test_mock_runner_replays_by_digest_and_input():
    mock = MockRunner({})
    mock.add("candidate a", "3\n", "6\n")
    digest = text_digest("candidate a")
    assert mock.run(digest, "3\n").output == "6\n"
    with pytest.raises(ToolchainError):
        mock.run(digest, "4\n")


def test_mock_scripts_round_trip_files(tmp_path):
    compiler = MockCompiler({})
    compiler.add("src one", ok=True)
    compiler.add("src two", ok=False, diagnostics="boom")
    compiler_path = tmp_path / "compiler.jsonl"
    compiler.save(compiler_path)
    assert MockCompiler.load(compiler_path).script == compiler.script

    runner = MockRunner({})
    runner.add("src one", "in", "out")
    runner_path = tmp_path / "runner.jsonl"
    runner.save(runner_path)
    assert MockRunner.load(runner_path).script == runner.script
