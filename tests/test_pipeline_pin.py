"""The whole pipeline on the benchmark generator's inputs.

Its outputs are pinned: every workload runs at small size on seeds 1-10
through ``j2cj.cli.main``, in this process. One sha256 per workload, over
the per-seed output digests of ``bench/worker.py`` (traces, outcomes,
report, datasets and the saved repository), must equal the value recorded
here. The digest also covers the generated replay transcript: every
completion call has to match one of its prompts, so the prompts whose text
reaches no output (chapter reconstruction, snippet annotation) are pinned
through it. A change that moves outputs on purpose updates the value in
the same commit and says why.
"""

import gc
import hashlib
import importlib.util
import json
import sys
import weakref
from pathlib import Path

import pytest

from j2cj import cli
from j2cj.cli import main

BENCH = Path(__file__).resolve().parents[1] / "bench"

PIPELINE_DIGESTS = {
    "translate-mix": "05a6d98ab5d3ce4ec646af261fdb960697c0f81fcc8dc4d61aa1b98b1f9ba6a2",
    "translate-rag": "53001b992fd64608b0a7a56daa15cb3027ed07c41e338077e900fd9b062f1218",
    "corpus-build": "743c2a06f996ca5b988aa9183b3ec645ebf69aeabd6a5edbc5dbaa0de1f4a5b1",
}


def _load_bench(name: str):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault(name, module)
    spec.loader.exec_module(module)
    return module


make_synthetic = _load_bench("make_synthetic")
worker = _load_bench("worker")


def _run_plan(out: Path, monkeypatch, jobs: str | None = None) -> str:
    """Run the plan's commands in ``out``; return the digests of its outputs and its transcript."""
    monkeypatch.chdir(out)
    plan = json.loads((out / "plan.json").read_text(encoding="utf-8"))
    for command in plan["commands"]:
        argv = list(command["argv"])
        if jobs is not None and "--jobs" in argv:
            argv[argv.index("--jobs") + 1] = jobs
        assert main(argv) == 0, command["name"]
    transcript = hashlib.sha256((out / "transcript.jsonl").read_bytes()).hexdigest()
    return f"{worker.digest(out)} {transcript}"


# translate-mix runs with --jobs 2; with --jobs 1 its outputs must not change.
@pytest.mark.parametrize("workload,jobs", [
    ("translate-mix", None), ("translate-mix", "1"), ("translate-rag", None), ("corpus-build", None),
])
def test_pipeline_outputs_are_pinned(workload, jobs, tmp_path, monkeypatch):
    digest = hashlib.sha256()
    for seed in range(1, 11):
        out = tmp_path / str(seed)
        make_synthetic.generate(workload, seed, out, small=True)
        digest.update(f"{seed} {_run_plan(out, monkeypatch, jobs)}\n".encode("utf-8"))
    assert digest.hexdigest() == PIPELINE_DIGESTS[workload]


def test_translate_keeps_no_finished_unit(tmp_path, monkeypatch):
    """Each unit is finished where it runs, so none is alive when the run saves its recording."""
    units, alive = [], []
    run_repair_loop, save_recording = cli.run_repair_loop, cli.save_recording

    def run_and_watch(*args):
        unit = run_repair_loop(*args)
        units.append(weakref.ref(unit))
        return unit

    def count_and_save(*args):
        gc.collect()
        alive.append(sum(ref() is not None for ref in units))
        save_recording(*args)

    monkeypatch.setattr(cli, "run_repair_loop", run_and_watch)
    monkeypatch.setattr(cli, "save_recording", count_and_save)
    make_synthetic.generate("translate-mix", 3, tmp_path, small=True)
    _run_plan(tmp_path, monkeypatch)
    assert len(units) == 14
    assert alive == [0]
