"""The benchmark's tracer wraps functions at the module attributes their
callers look up; this runs its restore test so that renaming or bypassing
one of those functions fails here, not only in the benchmark."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_tracer_still_wraps_every_function():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "bench/selftest.py::test_traced_run_restores_wrapped_functions"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
