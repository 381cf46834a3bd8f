"""Compiler and runner adapters: subprocess toolchains and replay mocks.

Compiler contract: a command template receives the candidate source file
path; exit code 0 means success and captured stderr is the diagnostics.
Runner contract: the compiled program is invoked once per test case with
the test input on stdin and its stdout captured; a non-zero exit code N
adds a final ``<exit N>`` line to that output. Mock variants replay
script files keyed by the candidate's content digest.
"""

from __future__ import annotations

import math
import os
import shutil
import signal
import subprocess
import tempfile
import weakref
from dataclasses import dataclass

from .jsonl import STRING, fields, read_jsonl, text_digest, write_jsonl


class ToolchainError(RuntimeError):
    """Toolchain invocation failed (distinct from a compile failure)."""


def _expand(part: str, **values: str) -> str:
    # Plain replacement, not str.format: command templates may contain
    # literal shell braces.
    for key, value in values.items():
        part = part.replace("{" + key + "}", value)
    return part


def _run(argv: list[str], timeout: float, stdin_text: str | None = None, cwd: str | None = None):
    """``subprocess.run`` in a new session; on timeout the whole process
    group is killed, so children of a wrapper script do not outlive it."""
    with subprocess.Popen(
        argv, stdin=subprocess.PIPE if stdin_text is not None else None,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=cwd, start_new_session=True,
    ) as proc:
        try:
            stdout, stderr = proc.communicate(stdin_text, timeout=timeout)
        except BaseException:  # timeout or interrupt
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            raise
    return proc.returncode, stdout, stderr


@dataclass(frozen=True)
class CompileOutcome:
    ok: bool
    diagnostics: str
    artifact: str  # path of the built program, or the candidate digest for mocks


@dataclass(frozen=True)
class RunOutcome:
    output: str
    timed_out: bool


class CommandCompiler:
    """Compile by running a command template against a written source file.

    The template is a list of argv strings where ``{source}`` and
    ``{artifact}`` expand to the candidate path and the output path.
    Each compile gets its own directory under one temporary root, because
    the runner executes the artifact after ``compile`` returns; the root is
    removed when the compiler is garbage-collected or the process exits.
    """

    def __init__(self, command: list[str], timeout: float = 60.0):
        if not command:
            raise ToolchainError("compiler command must be non-empty")
        if not any("{source}" in part for part in command):
            raise ToolchainError("compiler command must reference {source}")
        if not 0 < timeout < math.inf:
            raise ToolchainError("compiler timeout must be a positive finite number of seconds")
        self.command = list(command)
        self.timeout = timeout
        self._root = tempfile.mkdtemp(prefix="j2cj-compile-")
        weakref.finalize(self, shutil.rmtree, self._root, True)

    def compile(self, source: str) -> CompileOutcome:
        workdir = tempfile.mkdtemp(dir=self._root)
        src_path = os.path.join(workdir, "candidate.cj")
        artifact = os.path.join(workdir, "candidate.bin")
        with open(src_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(source)
        argv = [_expand(part, source=src_path, artifact=artifact) for part in self.command]
        try:
            returncode, _, stderr = _run(argv, self.timeout, cwd=workdir)
        except FileNotFoundError as exc:
            raise ToolchainError(f"compiler executable not found: {argv[0]}") from exc
        except subprocess.TimeoutExpired as exc:
            raise ToolchainError(f"compiler timed out after {self.timeout}s") from exc
        return CompileOutcome(returncode == 0, stderr, artifact)


class CommandRunner:
    """Run a compiled program per test case; ``{artifact}`` names the binary."""

    def __init__(self, command: list[str] | None = None, timeout: float = 10.0):
        if not 0 < timeout < math.inf:
            raise ToolchainError("runner timeout must be a positive finite number of seconds")
        self.command = list(command) if command else ["{artifact}"]
        self.timeout = timeout

    def run(self, artifact: str, stdin_text: str) -> RunOutcome:
        argv = [_expand(part, artifact=artifact) for part in self.command]
        try:
            returncode, stdout, _ = _run(argv, self.timeout, stdin_text=stdin_text)
        except FileNotFoundError as exc:
            raise ToolchainError(f"program not found: {argv[0]}") from exc
        except subprocess.TimeoutExpired:
            return RunOutcome("", True)
        if returncode:  # the exit code joins the output, so a failing program fails its test case
            stdout += ("\n" if stdout and not stdout.endswith("\n") else "") + f"<exit {returncode}>\n"
        return RunOutcome(stdout, False)


_STATUS = ('"success" or "fail"', lambda v: v in ("success", "fail"))


class MockCompiler:
    """Replay compile outcomes from a digest-keyed script.

    Script records: ``{"digest": ..., "status": "success"|"fail",
    "diagnostics": ...}``. The returned artifact is the candidate digest so
    a paired MockRunner can key on it.
    """

    def __init__(self, script: dict[str, dict]):
        self.script = dict(script)

    @classmethod
    def load(cls, path) -> "MockCompiler":
        def entry(record: dict):
            digest, status, diagnostics = fields(
                {"diagnostics": "", **record}, digest=STRING, status=_STATUS, diagnostics=STRING
            )
            return digest, {"status": status, "diagnostics": diagnostics}

        return cls(dict(read_jsonl(path, entry)))

    def save(self, path) -> None:
        write_jsonl(path, ({"digest": digest, **entry} for digest, entry in self.script.items()))

    def add(self, source: str, ok: bool, diagnostics: str = "") -> str:
        digest = text_digest(source)
        self.script[digest] = {"status": "success" if ok else "fail", "diagnostics": diagnostics}
        return digest

    def compile(self, source: str) -> CompileOutcome:
        digest = text_digest(source)
        entry = self.script.get(digest)
        if entry is None:
            raise ToolchainError(f"mock compiler script has no entry for digest {digest}")
        return CompileOutcome(entry["status"] == "success", entry.get("diagnostics", ""), digest)


class MockRunner:
    """Replay program outputs from a (digest, input)-keyed script.

    Script records: ``{"digest": ..., "input": ..., "output": ...}``.
    """

    def __init__(self, script: dict[tuple[str, str], str]):
        self.script = dict(script)

    @classmethod
    def load(cls, path) -> "MockRunner":
        entries = read_jsonl(path, lambda r: fields(r, digest=STRING, input=STRING, output=STRING))
        return cls({(digest, stdin_text): output for digest, stdin_text, output in entries})

    def save(self, path) -> None:
        write_jsonl(path, (
            {"digest": digest, "input": stdin_text, "output": output}
            for (digest, stdin_text), output in self.script.items()
        ))

    def add(self, source: str, stdin_text: str, output: str) -> None:
        self.script[(text_digest(source), stdin_text)] = output

    def run(self, artifact: str, stdin_text: str) -> RunOutcome:
        key = (artifact, stdin_text)
        if key not in self.script:
            raise ToolchainError(f"mock runner script has no entry for {key!r}")
        return RunOutcome(self.script[key], False)
