"""Command-line entry point for the translation pipeline.

Subcommands: build-corpus, summarize-ast, translate, repair,
repo add|search, evaluate, report. Exit codes: 0 success,
1 configuration/input error, 2 partial failures (some units errored).

``translate --jobs N`` runs its units in up to N worker processes. With one job
they run in this process: starting a worker, and building its adapters
again, would only add to a run that has nothing to run beside it, so the
pool module is imported only when N > 1.
"""

from __future__ import annotations

import argparse
import signal
import sys
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from pathlib import Path

from . import ast_summary, corpus, metrics
from .adapters import ToolchainError
from .config import SETTINGS, PipelineConfig, build_compiler, build_llm, build_runner, load_config, save_recording
from .javaparse import parse as parse_java
from .jsonl import read_json, read_jsonl, read_text, string_fields, write_jsonl
from .llm import CompletionError
from .repair_engine import (
    Branch,
    CompileStatus,
    EngineDeps,
    IterationRecord,
    RepairEngineError,
    TestCase,
    TranslationUnit,
    UnitStatus,
    harvest_cases,
    run_repair_loop,
    translate,
    write_trace,
)
from .repair_repo import (
    DuplicateCaseError,
    ErrorQuery,
    RepairCase,
    Repository,
    retrieve,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARTIAL = 2


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_CONFIG


def _overrides(args) -> dict:
    """The settings given as flags: each flag that sets a setting has its dotted key as dest."""
    return {key: value for key, value in vars(args).items() if key in SETTINGS and value is not None}


# --- build-corpus ------------------------------------------------------------

def cmd_build_corpus(args) -> int:
    config = load_config(args.config, _overrides(args))
    inputs = {name: config.path(name) for name in ("chapters", "snippets", "pairs")}
    out_dir = config.required_path("datasets")
    if not any(inputs.values()):
        return _fail("no input directories configured")
    for name, directory in inputs.items():
        if directory is not None and not directory.is_dir():
            return _fail(f"{name} directory does not exist: {directory}")
    llm = build_llm(config)
    try:
        stats = corpus.build_corpus(
            *inputs.values(), out_dir, llm, allowlist=config.allowlist, retained=config.retained_categories
        )
    finally:
        save_recording(config, getattr(llm, "recorder", None))
    for key in sorted(stats):
        if key != "errors":
            print(f"{key}: {stats[key]}")
    for problem in stats["errors"]:
        print(f"problem: {problem}", file=sys.stderr)
    return EXIT_PARTIAL if stats["errors"] else EXIT_OK


# --- summarize-ast -----------------------------------------------------------

def cmd_summarize_ast(args) -> int:
    config = load_config(args.config, _overrides(args))
    summary = ast_summary.summarize(parse_java(read_text(args.file)), config.retained_categories)
    if args.tokens:
        vocab = ast_summary.default_vocab(config.retained_categories)
        print(" ".join(ast_summary.tokenize_structure(summary, vocab)))
    else:
        for category in summary:
            print(category)
    return EXIT_OK


# --- translate / repair --------------------------------------------------------

def _load_tests(path) -> list[TestCase]:
    records = read_json(path)
    if not isinstance(records, list) or not all(
        isinstance(r, dict) and isinstance(r.get("input"), str) and isinstance(r.get("expected_output"), str)
        for r in records
    ):
        raise ValueError(f"{path}: expected a list of {{input, expected_output}} string objects")
    return [TestCase(r["input"], r["expected_output"]) for r in records]


def _build_deps(config: PipelineConfig) -> EngineDeps:
    """Adapters and the repair repository (when its file exists) for one run."""
    llm, compiler, runner = build_llm(config), build_compiler(config), build_runner(config)
    repo_path = config.path("repository")
    repo = Repository.load(repo_path) if repo_path is not None and repo_path.exists() else None
    return EngineDeps(llm=llm, compiler=compiler, runner=runner, repo=repo)


@dataclass(frozen=True)
class UnitResult:
    """A finished unit: its status or ``error: ...`` text, outcome row (None on error),
    harvest and the (prompt, reply) pairs it recorded in ``llm.record`` mode, in call order."""

    unit_id: str
    status: str
    record: dict | None
    cases: list[RepairCase]
    exchanges: list[tuple[str, str]]


def run_unit(java_file: Path, *, config: PipelineConfig, deps: EngineDeps, redact: bool, harvest: bool) -> UnitResult:
    """Translate and repair the unit of ``NAME.java`` and write its trace; a failure
    of the unit's own files, the model or the toolchain is its ``error: ...`` result.
    An exception that escapes carries the unit's recorded pairs as ``exchanges``."""
    exchanges: list[tuple[str, str]] = []
    if getattr(deps.llm, "recorder", None) is not None:
        deps.llm.recorder = exchanges  # a recording backend records into this unit's own list
    try:
        status, record, cases = _run_unit(java_file, config, deps, redact, harvest)
    except BaseException as exc:  # the parent saves what the unit paid for all the same
        exc.exchanges = exchanges
        raise
    return UnitResult(java_file.stem, status, record, cases, exchanges)


def _run_unit(
    java_file: Path, config: PipelineConfig, deps: EngineDeps, redact: bool, harvest: bool
) -> tuple[str, dict | None, list[RepairCase]]:
    unit_id = java_file.stem
    tests_file = java_file.with_name(f"{unit_id}.tests.json")
    ref_file = java_file.with_name(f"{unit_id}.ref.cj")
    try:
        java = read_text(java_file)
        tests = _load_tests(tests_file) if tests_file.exists() else []
        reference = read_text(ref_file) if ref_file.exists() else ""
        initial = translate(java, deps.llm, retained=config.retained_categories)
        unit = TranslationUnit(java_source=java, test_suite=tests, candidates=[initial], unit_id=unit_id)
        unit = run_repair_loop(unit, config.repair, deps)
    except (ToolchainError, RepairEngineError, CompletionError, ValueError, OSError) as exc:
        return f"error: {type(exc).__name__}: {exc}", None, []
    traces_dir = config.path("traces")
    if traces_dir is not None:
        write_trace(unit, traces_dir / f"{unit_id}.trace.json", redact=redact)
    final = unit.candidates[-1]
    accepted = unit.status is UnitStatus.ACCEPTED
    record = {
        "unit_id": unit_id,
        "status": unit.status.value,
        "compiled": final.compile_status is CompileStatus.SUCCESS,
        "all_tests_passed": accepted,
        "candidate": final.candidate,
        "reference": reference,
    }
    return unit.status.value, record, harvest_cases(unit) if harvest and accepted else []


# In a worker process: run_unit bound to the worker's own adapters, or the
# error that building them raised, which each task raises again.
_worker_unit = None
# Units per pool task, at most: each task is a round trip through the parent,
# which shares the cores with the workers. A run too small to give each worker
# this many tasks gets smaller ones, so that the workers finish close together.
_TASK_UNITS = 8


def _start_worker(config: PipelineConfig, redact: bool, harvest: bool) -> None:
    """Build a worker's adapters once. Ctrl-C reaches a worker only while it runs units."""
    global _worker_unit
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        _worker_unit = partial(run_unit, config=config, deps=_build_deps(config), redact=redact, harvest=harvest)
    except Exception as exc:
        _worker_unit = exc


def _run_in_worker(java_files: list[Path]) -> list:
    """The results of a task's units, in order, until one raises: its exception ends the list."""
    if isinstance(_worker_unit, Exception):
        raise _worker_unit
    outcomes = []
    signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        for java_file in java_files:
            outcomes.append(_worker_unit(java_file))
    except BaseException as exc:  # handed back with the results before it
        outcomes.append(exc)
    finally:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    return outcomes


def _pooled(java_files: list[Path], config: PipelineConfig, redact: bool, harvest: bool):
    """Each unit's result, in unit order, from ``min(jobs, units)`` worker processes.

    An exception ends the run once the units already running have finished,
    and carries the recorded pairs of the units not yet handed on as
    ``exchanges``. A worker that dies is a ``ChildProcessError``."""
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    workers = min(config.jobs, len(java_files))
    size = max(1, min(_TASK_UNITS, len(java_files) // (_TASK_UNITS * workers)))
    pool = ProcessPoolExecutor(workers, initializer=_start_worker, initargs=(config, redact, harvest))
    futures, handed_on = [], 0
    try:
        futures += (pool.submit(_run_in_worker, java_files[i:i + size]) for i in range(0, len(java_files), size))
        for future in futures:
            for outcome in future.result():
                if isinstance(outcome, BaseException):
                    raise outcome
                handed_on += 1
                yield outcome
    except BaseException as exc:
        pool.shutdown(cancel_futures=True)
        finished = [o for f in futures if not f.cancelled() and not f.exception() for o in f.result()]
        if isinstance(exc, BrokenProcessPool):
            exc = ChildProcessError(str(exc))
        exc.exchanges = [pair for outcome in finished[handed_on:] for pair in getattr(outcome, "exchanges", [])]
        raise exc
    finally:
        pool.shutdown()


def cmd_translate(args) -> int:
    config = load_config(args.config, _overrides(args))
    benchmark = config.required_path("benchmark")
    if not benchmark.is_dir():
        return _fail(f"benchmark directory does not exist: {benchmark}")
    traces_dir = config.path("traces")
    reports_dir = config.path("reports")
    repo_path = config.required_path("repository") if args.harvest else None
    if repo_path is not None and not repo_path.parent.is_dir():
        return _fail(f"repository directory does not exist: {repo_path.parent}")
    deps = _build_deps(config) if config.jobs == 1 else None  # each worker builds its own

    # Unit order is stem order, which is not always path order ("a-b.java" < "a.java").
    java_files = sorted(benchmark.glob("*.java"), key=attrgetter("stem"))
    if not java_files:
        return _fail(f"no units (*.java) in {benchmark}")
    if traces_dir is not None:
        traces_dir.mkdir(parents=True, exist_ok=True)

    if deps is None:
        units = _pooled(java_files, config, args.redact, args.harvest)
    else:
        units = map(partial(run_unit, config=config, deps=deps, redact=args.redact, harvest=args.harvest), java_files)
    results: list[UnitResult] = []
    unfinished: list[tuple[str, str]] = []  # recorded by the unit that raised, and by units running beside it
    try:
        for result in units:
            results.append(result)
    except BaseException as exc:
        unfinished = getattr(exc, "exchanges", [])
        raise
    finally:  # the one writer of the recording, in unit order
        save_recording(config, [pair for result in results for pair in result.exchanges] + unfinished)

    if reports_dir is not None:
        reports_dir.mkdir(parents=True, exist_ok=True)
        write_jsonl(reports_dir / "outcomes.jsonl", (result.record for result in results if result.record))

    if args.harvest:
        repo = Repository.load(repo_path) if repo_path.exists() else Repository()
        before = len(repo)
        for result in results:
            for case in result.cases:
                with suppress(DuplicateCaseError):
                    repo.add_case(case)
        repo.save(repo_path)
        print(f"harvested {len(repo) - before} repair case(s) into {repo_path}")

    counts = Counter()
    for result in results:
        print(f"{result.unit_id}: {result.status}", file=sys.stdout if result.record else sys.stderr)
        counts[result.status if result.record else "errored"] += 1
    print(
        f"accepted={counts['accepted']} stagnated={counts['stagnated']} "
        f"budget_exhausted={counts['budget_exhausted']} errored={counts['errored']}"
    )
    return EXIT_PARTIAL if counts["errored"] else EXIT_OK


def cmd_repair(args) -> int:
    config = load_config(args.config, _overrides(args))
    unit = TranslationUnit(
        java_source=read_text(args.java),
        test_suite=_load_tests(args.tests) if args.tests else [],
        candidates=[IterationRecord(k=0, candidate=read_text(args.candidate), branch=Branch.INITIAL)],
        unit_id=Path(args.candidate).stem,
    )
    deps = _build_deps(config)
    try:
        unit = run_repair_loop(unit, config.repair, deps)
    except (ToolchainError, RepairEngineError, CompletionError) as exc:
        print(f"{unit.unit_id}: error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL
    finally:
        save_recording(config, getattr(deps.llm, "recorder", None))
    if args.out:
        write_trace(unit, args.out, redact=args.redact)
    print(f"{unit.unit_id}: {unit.status.value}")
    final = unit.candidates[-1]
    print(final.candidate)
    return EXIT_OK


# --- repo ---------------------------------------------------------------------

def cmd_repo_add(args) -> int:
    repo_path = Path(args.repo)
    repo = Repository.load(repo_path) if repo_path.exists() else Repository()
    payload = read_json(args.file)
    for record in payload if isinstance(payload, list) else [payload]:
        repo.add_case(RepairCase.from_record(record))
    repo.save(repo_path)
    print(f"repository now holds {len(repo)} case(s)")
    return EXIT_OK


def cmd_repo_search(args) -> int:
    config = load_config(args.config, _overrides(args))
    repo = Repository.load(config.required_path("repository"))
    error_info = args.error or (read_text(args.error_file) if args.error_file else "")
    if not error_info.strip():
        return _fail("provide --error or --error-file")
    fragment = read_text(args.fragment_file) if args.fragment_file else ""
    tags = tuple(t for t in (args.tags or "").split(",") if t)
    ranked = retrieve(ErrorQuery(error_info, fragment, tags), repo, config.repair.rag_top_k, config.repair.weights)
    for case, breakdown in ranked:
        scores = " ".join(f"s{j + 1}={s:.3f}" for j, s in enumerate(breakdown.scores))
        print(f"{case.id}\ttotal={breakdown.total:.4f}\t{scores}")
    return EXIT_OK


# --- evaluate / report -----------------------------------------------------------

def cmd_evaluate(args) -> int:
    refs_dir = Path(args.refs) if args.refs else None

    def outcome(record: dict) -> metrics.UnitOutcome:
        unit_id, candidate, reference = string_fields(
            {"candidate": "", "reference": "", **record}, "unit_id", "candidate", "reference"
        )
        for flag in ("compiled", "all_tests_passed"):
            if not isinstance(record[flag], bool):
                raise ValueError(f"field {flag!r} must be a boolean")
        if not reference and refs_dir is not None:
            if "/" in unit_id or unit_id in ("", ".", ".."):
                raise ValueError(f"unit id {unit_id!r} is not a file name in --refs")
            ref_file = refs_dir / f"{unit_id}.cj"
            if ref_file.exists():
                reference = read_text(ref_file)
        if not reference:
            raise ValueError(f"no reference for unit {unit_id!r}")
        return metrics.UnitOutcome(
            unit_id=unit_id,
            compiled=record["compiled"],
            all_tests_passed=record["all_tests_passed"],
            candidate=candidate,
            reference=reference,
        )

    outcomes = read_jsonl(args.outcomes, outcome)
    report = metrics.evaluate(outcomes)
    if args.out:
        metrics.write_report(args.out, outcomes, report)
    print(metrics.render_table(report))
    return EXIT_OK


def cmd_report(args) -> int:
    def aggregate(record: dict) -> metrics.EvalReport | None:
        if record.get("type") != "aggregate":
            return None
        return metrics.EvalReport.from_counts(
            record["n_total"], record["n_compiled"], record["n_cf"], record["bleu"]["value"]
        )

    reports = [r for r in read_jsonl(args.report, aggregate) if r is not None]
    if not reports:
        return _fail(f"no aggregate record in {args.report}")
    print(metrics.render_table(reports[-1]))
    return EXIT_OK


# --- parser ---------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """A usage error raises, so that main turns it into exit 1 and one line."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    """Each flag that sets a setting stores it under the setting's dotted key (see ``_overrides``)."""
    parser = _Parser(prog="j2cj", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    configured = _Parser(add_help=False)
    configured.add_argument("--config")
    repairing = _Parser(add_help=False, parents=[configured])
    repairing.add_argument("--redact", action="store_true", help="store prompt/reply digests instead of full text")
    repairing.add_argument("--threshold", dest="repair.threshold", metavar="T", type=float)
    repairing.add_argument("--max-iterations", dest="repair.max_iterations", metavar="N", type=int)

    p = sub.add_parser("build-corpus", parents=[configured], help="build the three training datasets")
    for name in ("chapters", "snippets", "pairs"):
        p.add_argument(f"--{name}", dest=f"paths.{name}", metavar="DIR")
    p.add_argument("--out", dest="paths.datasets", metavar="DIR")
    p.set_defaults(func=cmd_build_corpus)

    p = sub.add_parser("summarize-ast", parents=[configured], help="print the structural summary of a Java file")
    p.add_argument("file")
    p.add_argument("--tokens", action="store_true", help="print structural tokens instead of categories")
    p.set_defaults(func=cmd_summarize_ast)

    p = sub.add_parser("translate", parents=[repairing], help="translate and iteratively repair a benchmark directory")
    p.add_argument("--benchmark", dest="paths.benchmark", metavar="DIR")
    p.add_argument("--traces", dest="paths.traces", metavar="DIR")
    p.add_argument("--no-repair", action="store_const", const=1, dest="repair.max_iterations",
                   help="evaluate only the initial candidate")
    p.add_argument("--harvest", action="store_true", help="append harvested repair cases to the repository")
    p.add_argument("--jobs", metavar="N", type=int)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("repair", parents=[repairing], help="run the repair loop on an existing candidate")
    p.add_argument("--java", required=True)
    p.add_argument("--candidate", required=True)
    p.add_argument("--tests")
    p.add_argument("--out")
    p.set_defaults(func=cmd_repair)

    p = sub.add_parser("repo", help="manage the error-repair repository")
    repo_sub = p.add_subparsers(dest="repo_command", required=True)
    pa = repo_sub.add_parser("add", help="add case records from a JSON file")
    pa.add_argument("--repo", required=True)
    pa.add_argument("--file", required=True)
    pa.set_defaults(func=cmd_repo_add)
    ps = repo_sub.add_parser("search", parents=[configured], help="rank cases against a query error")
    ps.add_argument("--repo", dest="paths.repository", metavar="FILE")
    ps.add_argument("--error")
    ps.add_argument("--error-file")
    ps.add_argument("--fragment-file")
    ps.add_argument("--tags")
    ps.add_argument("--top-k", dest="repair.rag_top_k", metavar="K", type=int)
    ps.set_defaults(func=cmd_repo_search)

    p = sub.add_parser("evaluate", help="compute FE/CSR/CFE/BLEU over an outcomes file")
    p.add_argument("--outcomes", required=True)
    p.add_argument("--refs")
    p.add_argument("--out")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("report", help="render the table for an existing report file")
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    # The one place where bad input, usage errors included, becomes exit 1;
    # only a unit's own files give exit 2.
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, CompletionError, ToolchainError) as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
