import os
import subprocess
import sys
from contextlib import ExitStack
from pathlib import Path

import pytest
from support import ScriptedServer

import j2cj
from j2cj import repair_engine

# Library classes whose names start with Test are not test containers.
repair_engine.TestCase.__test__ = False
repair_engine.TestResult.__test__ = False

_SRC = str(Path(j2cj.__file__).resolve().parents[1])
_PRELUDE = "import resource, sys\nresource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"


@pytest.fixture
def run_isolated():
    """Run Python code in a child interpreter capped at 1 GiB of address
    space, so code that never returns fails the test instead of hanging it."""

    def run(code: str, *args: str, stdin: str | None = None, timeout: float = 30):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
        return subprocess.run(
            [sys.executable, "-c", _PRELUDE + code, *args],
            input=stdin, capture_output=True, text=True, timeout=timeout, env=env,
        )

    return run


@pytest.fixture
def serve(monkeypatch):
    """Start a ``ScriptedServer`` for a list of script steps and return it;
    every server started is shut down when the test ends. Requests to it
    bypass any proxy that ``http_proxy`` names."""
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    with ExitStack() as stack:
        yield lambda steps: stack.enter_context(ScriptedServer(steps))
