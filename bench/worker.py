"""One measured step of the benchmark, in a fresh interpreter.

    python3 bench/worker.py setup --inputs DIR
    python3 bench/worker.py run --inputs DIR --work DIR [--spans FILE]

``setup`` times what a user pays before the first unit: importing
``j2cj.cli``, loading the config, building the model, compiler and runner
adapters and loading the repair repository. ``run`` copies the generated
inputs to a fresh work directory, runs the plan's commands through
``j2cj.cli.main`` in this process, checks every output against the scripted
outcomes and prints one JSON line: wall time per command, peak RSS, the
number of operations attempted and failed, and a digest of the outputs.
With ``--spans`` the commands run under the tracer and the per-layer
metrics are added. ``j2cj`` is imported only inside the functions, so the
set-up probe times the import.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

DIGESTED = ("traces", "reports", "datasets", "repo.jsonl")


def setup(inputs: Path) -> dict:
    os.chdir(inputs)
    started = time.perf_counter()
    from j2cj.config import build_compiler, build_llm, build_runner, load_config
    from j2cj.repair_repo import Repository
    import j2cj.cli  # noqa: F401  (the entry point a user imports)

    config = load_config("config.yaml")
    build_llm(config)
    if config.compiler:
        build_compiler(config)
        build_runner(config)
    if config.path("repository") is not None:
        Repository.load(config.path("repository"))
    return {"setup_s": time.perf_counter() - started}


def run(inputs: Path, work: Path, spans_path: Path | None) -> dict:
    shutil.copytree(inputs, work)
    os.chdir(work)
    plan = json.loads(Path("plan.json").read_text(encoding="utf-8"))
    from j2cj.cli import main

    tracer = None
    if spans_path is not None:
        from j2cj.config import load_config
        from spans import Tracer

        tracer = Tracer(load_config("config.yaml").repair.threshold, _unit_of_java())
    walls, codes = {}, {}
    with tracer or contextlib.nullcontext():
        for command in plan["commands"]:
            sink = io.StringIO()
            started = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                codes[command["name"]] = main(list(command["argv"]))
            walls[command["name"]] = time.perf_counter() - started
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted, failed, problems = check(plan, codes)
    result = {
        "walls": walls,
        "rss_mb": rss_mb,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:10],
        "digest": digest(Path(".")),
    }
    if tracer is not None:
        tracer.write_spans(spans_path)
        result["layers"] = tracer.metrics()
        result["shares"] = tracer.shares()
    return result


def _unit_of_java() -> dict[str, str]:
    units = Path("units")
    if not units.is_dir():
        return {}
    return {p.read_text(encoding="utf-8"): p.stem for p in sorted(units.glob("*.java"))}


# --- correctness ----------------------------------------------------------------

def check(plan: dict, codes: dict) -> tuple[int, int, list[str]]:
    """Operations attempted, those that failed or differ from the script,
    and a description of each difference."""
    attempted = sum(c["items"] for c in plan["commands"])
    problems: list[str] = []
    for command in plan["commands"]:
        if codes.get(command["name"]) != 0:
            problems.append(f"{command['name']} exited with {codes.get(command['name'])}")
    if "units" in plan:
        failed = _check_translation(plan, problems)
    else:
        failed = _check_corpus(plan, problems)
    if problems and not failed:
        failed = attempted
    return attempted, min(failed, attempted), problems


def _jsonl(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def _check_translation(plan: dict, problems: list[str]) -> int:
    failed = 0
    outcomes = {r["unit_id"]: r for r in _jsonl(Path("reports/outcomes.jsonl"))}
    report = _jsonl(Path("reports/report.jsonl"))
    scored = {r["unit_id"]: r for r in report if r.get("type") == "unit"}
    for uid, want in sorted(plan["units"].items()):
        passed = want["status"] == "accepted"
        got = outcomes.get(uid)
        trace_file = Path("traces") / f"{uid}.trace.json"
        branches = (
            [it["branch"] for it in json.loads(trace_file.read_text(encoding="utf-8"))["iterations"]]
            if trace_file.exists() else None
        )
        if (
            got is None
            or got["status"] != want["status"]
            or got["compiled"] != want["compiled"]
            or got["all_tests_passed"] != passed
            or branches != want["branches"]
        ):
            failed += 1
            problems.append(f"translate {uid}: expected {want}, got {got and got['status']} {branches}")
        score = scored.get(uid)
        if score is None or score["compiled"] != want["compiled"] or score["all_tests_passed"] != passed:
            failed += 1
            problems.append(f"evaluate {uid}: unexpected report record {score}")
    aggregate = next((r for r in report if r.get("type") == "aggregate"), None)
    got_fractions = {k: aggregate[k]["exact"] for k in ("fe", "csr", "cfe")} if aggregate else None
    if got_fractions != plan["fractions"]:
        problems.append(f"evaluate: fractions {got_fractions} != scripted {plan['fractions']}")
    if "repository_cases" in plan:
        cases = len(_jsonl(Path("repo.jsonl")))
        if cases != plan["repository_cases"]:
            problems.append(f"repository holds {cases} cases, expected {plan['repository_cases']}")
    return failed


def _check_corpus(plan: dict, problems: list[str]) -> int:
    stats_file = Path("datasets/stats.json")
    stats = json.loads(stats_file.read_text(encoding="utf-8")) if stats_file.exists() else None
    if stats != plan["corpus_stats"]:
        problems.append(f"build-corpus: stats {stats} != scripted {plan['corpus_stats']}")
    return 0


def digest(root: Path) -> str:
    """SHA-256 over the relative path and bytes of every output file."""
    h = hashlib.sha256()
    for name in DIGESTED:
        top = root / name
        files = sorted(top.rglob("*")) if top.is_dir() else [top] if top.exists() else []
        for path in files:
            if path.is_file():
                h.update(str(path.relative_to(root)).encode("utf-8") + b"\0")
                h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)
    inputs = args.inputs.resolve()
    if args.mode == "setup":
        result = setup(inputs)
    else:
        spans = args.spans.resolve() if args.spans else None
        result = run(inputs, args.work.resolve(), spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
