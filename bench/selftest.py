"""Self-tests of the benchmark harness (not part of the repository's suite).

    python3 -m pytest bench/selftest.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import make_synthetic  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

TRANSLATE = ("translate-mix", "translate-rag")


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", make_synthetic.WORKLOADS)
def test_generator_output_is_byte_identical_per_seed(workload, tmp_path):
    make_synthetic.generate(workload, 5, tmp_path / "a", small=True)
    make_synthetic.generate(workload, 5, tmp_path / "b", small=True)
    make_synthetic.generate(workload, 6, tmp_path / "c", small=True)
    first = _files(tmp_path / "a")
    assert first == _files(tmp_path / "b")
    assert first != _files(tmp_path / "c")


@pytest.mark.parametrize("workload", make_synthetic.WORKLOADS)
def test_small_run_reaches_every_scripted_outcome(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "4",
         "--seconds", "1", "--trace", "0", "--small"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    assert set(result["metrics"]) == declared

    plan = json.loads(run.inputs_for(workload, 4, small=True).joinpath("plan.json").read_text())
    if workload in TRANSLATE:
        units = plan["units"].values()
        assert {u["status"] for u in units} == {"accepted", "stagnated", "budget_exhausted"}
        no_repository = {"rag_repair"} if workload == "translate-mix" else set()
        assert {b for u in units for b in u["branches"]} == set(spans.BRANCHES) - no_repository
        assert {u["compiled"] for u in units} == {True, False}
    else:
        stats = plan["corpus_stats"]
        assert set(stats["snippets_rejected"]) == {"too_short", "incomplete", "disallowed_import"}
        assert stats["snippets_retained"] > 0 and stats["parallel_pairs"] > 0


def _patch_targets():
    from j2cj import adapters, cli, corpus, llm, metrics, repair_engine, repair_repo

    owners = (adapters.MockCompiler, adapters.MockRunner, cli, corpus, llm.MockBackend, llm.PromptTemplate,
              llm.Transcript, metrics, repair_engine, repair_repo, repair_repo.Repository)
    return {(owner, name): value for owner in owners for name, value in vars(owner).items()}


def test_traced_run_restores_wrapped_functions(tmp_path, monkeypatch):
    from j2cj.cli import main

    make_synthetic.generate("translate-rag", 2, tmp_path / "in", small=True)
    shutil.copytree(tmp_path / "in", tmp_path / "work")
    monkeypatch.chdir(tmp_path / "work")
    plan = json.loads(Path("plan.json").read_text())
    before = _patch_targets()

    with spans.Tracer(0.5, worker._unit_of_java()) as tracer:
        assert _patch_targets() != before
        for command in plan["commands"]:
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(command["argv"]) == 0
    after = _patch_targets()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    attempted, failed, problems = worker.check(plan, {c["name"]: 0 for c in plan["commands"]})
    assert (failed, problems) == (0, [])
    layers = tracer.metrics()
    assert layers["repair_repo.retrieve.calls"] == sum(len(u["retrievals"]) for u in plan["units"].values())
    rag = sum(u["retrievals"].count("rag") for u in plan["units"].values())
    assert layers["repair_engine.run_repair_loop.rag_share"] == rag / layers["repair_repo.retrieve.calls"]
    assert layers["repair_engine.run_repair_loop.iterations"] == sum(
        len(u["branches"]) for u in plan["units"].values())
    tracer.write_spans(tmp_path / "spans.jsonl")
    records = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert len(records) == len(tracer.spans)
    assert all(r["parent"] is None or r["parent"] < len(records) for r in records)


def test_benchmark_json_names_every_reported_metric():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert per_layer == spans.metric_units()
    assert [w["name"] for w in declared["workloads"]] == list(make_synthetic.WORKLOADS)
    assert "setup_s" in {m["name"] for m in declared["end_to_end"]}


def test_run_refuses_a_directory_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "translate-mix", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
