"""End-to-end CLI runs over replay fixtures."""

import argparse
import json
import pickle
import re
from dataclasses import asdict, replace
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from support import completion, transcript_of

from j2cj.adapters import MockCompiler, MockRunner
from j2cj.ast_summary import default_vocab, render_structured_prompt, summarize, tokenize_structure
from j2cj.cli import _build_deps, _overrides, _run_in_worker, build_parser, main, run_unit
from j2cj.config import _SETTINGS, load_config
from j2cj.javaparse import parse
from j2cj.jsonl import read_jsonl
from j2cj.llm import (
    DOC_RECONSTRUCTION_TEMPLATE,
    REPAIR_APPLY_COMPILE_TEMPLATE,
    REPAIR_GUIDANCE_COMPILE_TEMPLATE,
    SEMANTIC_ANNOTATION_TEMPLATE,
    TRANSLATE_INSTRUCTION,
    Transcript,
)
from j2cj.repair_repo import RepairCase, Repository

JAVA = "class A { static int f(int x) { return x + 1; } }"
C0 = "func f(x: Int64): Int64 { x - 1 }"
C1 = "func f(x: Int64): Int64 { x + 1 }"
DIAG = "error: operator mismatch in body"
GUIDANCE = "Flip the subtraction to an addition."
CLI_MAIN = "from j2cj.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def translation_prompt(java: str) -> str:
    tokens = tokenize_structure(summarize(parse(java)), default_vocab())
    return render_structured_prompt(tokens, java, TRANSLATE_INSTRUCTION)


@pytest.fixture
def pipeline(tmp_path):
    """A benchmark of one unit that compiles on the second attempt."""
    benchmark = tmp_path / "bench"
    benchmark.mkdir()
    (benchmark / "unit1.java").write_text(JAVA, encoding="utf-8")
    (benchmark / "unit1.tests.json").write_text(
        json.dumps([{"input": "1\n", "expected_output": "2\n"}]), encoding="utf-8"
    )
    (benchmark / "unit1.ref.cj").write_text(C1, encoding="utf-8")

    transcript = Transcript()
    transcript.add(translation_prompt(JAVA), f"```\n{C0}\n```")
    guidance_prompt = REPAIR_GUIDANCE_COMPILE_TEMPLATE.render(
        {"java": JAVA, "candidate": C0, "errors": DIAG}
    )
    transcript.add(guidance_prompt, GUIDANCE)
    apply_prompt = REPAIR_APPLY_COMPILE_TEMPLATE.render(
        {"java": JAVA, "candidate": C0, "errors": DIAG, "guidance": GUIDANCE}
    )
    transcript.add(apply_prompt, f"```\n{C1}\n```")
    transcript_path = tmp_path / "transcript.jsonl"
    transcript.save(transcript_path)

    compiler = MockCompiler({})
    compiler.add(C0, ok=False, diagnostics=DIAG)
    compiler.add(C1, ok=True)
    compiler_path = tmp_path / "compiler.jsonl"
    compiler.save(compiler_path)

    runner = MockRunner({})
    runner.add(C1, "1\n", "2\n")
    runner_path = tmp_path / "runner.jsonl"
    runner.save(runner_path)

    config = {
        "paths": {
            "benchmark": str(benchmark),
            "traces": str(tmp_path / "traces"),
            "reports": str(tmp_path / "reports"),
            "repository": str(tmp_path / "repo.jsonl"),
        },
        "llm": {"mode": "mock", "transcript": str(transcript_path)},
        "compiler": {"mode": "mock", "script": str(compiler_path)},
        "runner": {"mode": "mock", "script": str(runner_path)},
    }
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(config), encoding="utf-8")
    return tmp_path, config_path


def test_translate_accepts_after_one_repair(pipeline, capsys):
    tmp_path, config_path = pipeline
    code = main(["translate", "--config", str(config_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "unit1: accepted" in out
    assert "accepted=1" in out

    trace = json.loads((tmp_path / "traces" / "unit1.trace.json").read_text(encoding="utf-8"))
    assert trace["status"] == "accepted"
    assert [it["branch"] for it in trace["iterations"]] == ["initial", "self_analysis"]
    assert trace["iterations"][1]["guidance"] == GUIDANCE

    outcomes = (tmp_path / "reports" / "outcomes.jsonl").read_text(encoding="utf-8").splitlines()
    record = json.loads(outcomes[0])
    assert record["compiled"] and record["all_tests_passed"]
    assert record["candidate"] == C1
    assert record["reference"] == C1


def test_translate_no_repair_evaluates_only_c0(pipeline, capsys):
    tmp_path, config_path = pipeline
    code = main(["translate", "--config", str(config_path), "--no-repair"])
    out = capsys.readouterr().out
    assert code == 0
    assert "unit1: budget_exhausted" in out
    trace = json.loads((tmp_path / "traces" / "unit1.trace.json").read_text(encoding="utf-8"))
    assert len(trace["iterations"]) == 1


def test_translate_harvest_appends_to_repository(pipeline, capsys):
    tmp_path, config_path = pipeline
    assert main(["translate", "--config", str(config_path), "--harvest"]) == 0
    repo = Repository.load(tmp_path / "repo.jsonl")
    assert len(repo) == 1
    case = repo.cases()[0]
    assert case.error_info == DIAG
    assert case.repair_suggestion == GUIDANCE


def test_a_unit_task_and_its_result_survive_pickle(pipeline):
    """What the pool sends, once per worker (the config a worker builds its
    adapters from) and with each unit, and the result that comes back,
    harvested cases and recorded exchanges included."""
    tmp_path, config_path = pipeline
    config = load_config(config_path)
    initargs = (config, True, True)
    assert pickle.loads(pickle.dumps(initargs)) == initargs
    java_file = tmp_path / "bench" / "unit1.java"
    assert pickle.loads(pickle.dumps((_run_in_worker, [java_file]))) == (_run_in_worker, [java_file])

    (tmp_path / "traces").mkdir()
    result = run_unit(java_file, config=config, deps=_build_deps(config), redact=True, harvest=True)
    assert result.status == "accepted" and len(result.cases) == 1
    result = replace(result, exchanges=[("prompt", "reply"), ("prompt 2", "reply 2")])
    assert pickle.loads(pickle.dumps(result)) == result


def test_importing_the_cli_imports_no_process_pool(run_isolated):
    """A one-job run starts no process, so the CLI does not import the pool modules."""
    code = "import j2cj.cli\nprint(sorted({'multiprocessing', 'concurrent.futures.process'} & sys.modules.keys()))\n"
    result = run_isolated(code)
    assert (result.returncode, result.stdout, result.stderr) == (0, "[]\n", "")


def test_translate_rerun_is_byte_identical(pipeline):
    tmp_path, config_path = pipeline
    main(["translate", "--config", str(config_path)])
    first = (tmp_path / "traces" / "unit1.trace.json").read_bytes()
    outcomes_first = (tmp_path / "reports" / "outcomes.jsonl").read_bytes()
    main(["translate", "--config", str(config_path)])
    assert (tmp_path / "traces" / "unit1.trace.json").read_bytes() == first
    assert (tmp_path / "reports" / "outcomes.jsonl").read_bytes() == outcomes_first


def test_translate_parallel_jobs_match_serial_output(pipeline):
    tmp_path, config_path = pipeline
    main(["translate", "--config", str(config_path)])
    serial_trace = (tmp_path / "traces" / "unit1.trace.json").read_bytes()
    serial_outcomes = (tmp_path / "reports" / "outcomes.jsonl").read_bytes()
    main(["translate", "--config", str(config_path), "--jobs", "4"])
    assert (tmp_path / "traces" / "unit1.trace.json").read_bytes() == serial_trace
    assert (tmp_path / "reports" / "outcomes.jsonl").read_bytes() == serial_outcomes


def _copy_unit(root: Path, stem: str) -> None:
    for suffix in (".java", ".tests.json", ".ref.cj"):
        (root / "bench" / f"{stem}{suffix}").write_bytes((root / "bench" / f"unit1{suffix}").read_bytes())


def _outputs(root: Path) -> dict[str, bytes]:
    """The traces, outcomes and report of a run, by path, removed once read."""
    files = sorted(p for name in ("traces", "reports") for p in (root / name).rglob("*") if p.is_file())
    outputs = {p.relative_to(root).as_posix(): p.read_bytes() for p in files}
    for p in files:
        p.unlink()
    return outputs


START_METHOD_MAIN = "import multiprocessing\nmultiprocessing.set_start_method(sys.argv.pop(1))\n" + CLI_MAIN


@pytest.mark.parametrize("method", ["forkserver", "spawn"])
def test_worker_processes_write_what_one_job_writes_under_each_start_method(pipeline, run_isolated, method):
    """Workers build their adapters from the config alone, so a start method
    that copies nothing from the parent gives the same outputs."""
    tmp_path, config_path = pipeline
    for stem in ("unit2", "unit3", "unit4"):
        _copy_unit(tmp_path, stem)
    report = ["evaluate", "--outcomes", str(tmp_path / "reports" / "outcomes.jsonl"),
              "--out", str(tmp_path / "reports" / "report.jsonl")]
    assert main(["translate", "--config", str(config_path)]) == 0
    assert main(report) == 0
    serial = _outputs(tmp_path)
    assert len(serial) == 6

    result = run_isolated(START_METHOD_MAIN, method, "translate", "--config", str(config_path), "--jobs", "2")
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.splitlines()[:4] == [f"unit{i}: accepted" for i in range(1, 5)]
    assert main(report) == 0
    assert _outputs(tmp_path) == serial


def test_translate_orders_units_by_stem_not_path(pipeline, capsys):
    tmp_path, config_path = pipeline
    for stem in ("a", "a-b"):  # path order puts "a-b.java" before "a.java"
        for suffix in (".java", ".tests.json", ".ref.cj"):
            (tmp_path / "bench" / f"{stem}{suffix}").write_bytes((tmp_path / "bench" / f"unit1{suffix}").read_bytes())
    assert main(["translate", "--config", str(config_path)]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == ["a: accepted", "a-b: accepted", "unit1: accepted"]
    outcomes = (tmp_path / "reports" / "outcomes.jsonl").read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["unit_id"] for line in outcomes] == ["a", "a-b", "unit1"]


def test_translate_redact_hides_prompt_bodies(pipeline):
    tmp_path, config_path = pipeline
    main(["translate", "--config", str(config_path), "--redact"])
    trace = (tmp_path / "traces" / "unit1.trace.json").read_text(encoding="utf-8")
    assert "prompt_digest" in trace
    assert TRANSLATE_INSTRUCTION not in trace


def test_translate_missing_toolchain_script_is_config_error(pipeline, capsys):
    _, config_path = pipeline
    raw = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    del raw["compiler"]["script"]
    config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["translate", "--config", str(config_path)]) == 1


def test_translate_mock_miss_marks_unit_errored(pipeline, capsys):
    tmp_path, config_path = pipeline
    raw = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    empty_transcript = tmp_path / "empty.jsonl"
    Transcript().save(empty_transcript)
    raw["llm"]["transcript"] = str(empty_transcript)
    config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    code = main(["translate", "--config", str(config_path)])
    assert code == 2
    assert "errored=1" in capsys.readouterr().out


def test_compiler_timeout_errors_the_unit_without_traceback(pipeline, capsys):
    tmp_path, config_path = pipeline
    raw = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    raw["compiler"] = {"mode": "command", "command": ["sh", "-c", "sleep 5", "{source}"], "timeout": 0.2}
    config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    code = main(["translate", "--config", str(config_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == "unit1: error: ToolchainError: compiler timed out after 0.2s\n"
    assert "errored=1" in captured.out
    assert (tmp_path / "reports" / "outcomes.jsonl").read_text(encoding="utf-8") == ""


def test_unknown_config_key_rejected(pipeline):
    _, config_path = pipeline
    raw = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    raw["lmm"] = {"mode": "mock"}
    config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    assert main(["translate", "--config", str(config_path)]) == 1


_REPAIR = ["repair", "--java", "A.java", "--candidate", "c.cj"]


@pytest.mark.parametrize("argv,key,value", [
    (["translate", "--threshold", "0.25"], "repair.threshold", 0.25),
    (["translate", "--max-iterations", "3"], "repair.max_iterations", 3),
    (["translate", "--no-repair"], "repair.max_iterations", 1),
    (["translate", "--max-iterations", "3", "--no-repair"], "repair.max_iterations", 1),
    (["translate", "--no-repair", "--max-iterations", "3"], "repair.max_iterations", 3),
    (["translate", "--jobs", "4"], "jobs", 4),
    (["translate", "--benchmark", "flag"], "paths.benchmark", "flag"),
    (["translate", "--traces", "flag"], "paths.traces", "flag"),
    ([*_REPAIR, "--threshold", "0.25"], "repair.threshold", 0.25),
    ([*_REPAIR, "--max-iterations", "3"], "repair.max_iterations", 3),
    (["build-corpus", "--chapters", "flag"], "paths.chapters", "flag"),
    (["build-corpus", "--snippets", "flag"], "paths.snippets", "flag"),
    (["build-corpus", "--pairs", "flag"], "paths.pairs", "flag"),
    (["build-corpus", "--out", "flag"], "paths.datasets", "flag"),
    (["repo", "search", "--repo", "flag"], "paths.repository", "flag"),
    (["repo", "search", "--top-k", "2"], "repair.rag_top_k", 2),
])
def test_a_flag_that_sets_a_setting_overrides_the_config_file(tmp_path, argv, key, value):
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump({
        "jobs": 2,
        "paths": dict.fromkeys(_SETTINGS["paths"], "file"),
        "repair": {"threshold": 0.75, "max_iterations": 7, "rag_top_k": 5},
    }), encoding="utf-8")
    args = build_parser().parse_args([*argv, "--config", str(config_path)])
    config = load_config(args.config, _overrides(args))
    section, _, name = key.rpartition(".")
    holder = getattr(config, section) if section else config
    assert (holder[name] if isinstance(holder, dict) else getattr(holder, name)) == value


@pytest.mark.parametrize("argv,message", [
    (["translate", "--jobs", "x"], "j2cj translate: argument --jobs: invalid int value: 'x'"),
    ([], "j2cj: the following arguments are required: command"),
    (["translate", "--bogus"], "j2cj: unrecognized arguments: --bogus"),
    (["evaluate"], "j2cj evaluate: the following arguments are required: --outcomes"),
], ids=["jobs-not-an-int", "no-subcommand", "unknown-flag", "evaluate-without-outcomes"])
def test_usage_error_exits_1_with_one_line(capsys, argv, message):
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(SystemExit) as help_exit:
        main([*argv[:1], "--help"])
    assert help_exit.value.code == 0


def test_summarize_ast_outputs_categories_and_tokens(tmp_path, capsys):
    java_file = tmp_path / "A.java"
    java_file.write_text(JAVA, encoding="utf-8")
    assert main(["summarize-ast", str(java_file)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "class_declaration"
    assert main(["summarize-ast", str(java_file), "--tokens"]) == 0
    assert capsys.readouterr().out.startswith("<STRUCT:CLASS_DECLARATION>")


def _long_options(parser: argparse.ArgumentParser, words: tuple[str, ...] = ()):
    """(subcommand, its long options) for every subcommand that takes no further subcommand."""
    subcommands = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    if not subcommands:
        yield " ".join(words), {o for a in parser._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
    for action in subcommands:
        for name, subparser in action.choices.items():
            yield from _long_options(subparser, (*words, name))


def test_readme_cli_synopsis_names_each_subcommands_long_options():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    synopsis = readme.split("## CLI\n\n```text\n", 1)[1].split("```", 1)[0]
    documented: dict[str, set[str]] = {}
    for line in synopsis.splitlines():
        if line.startswith("j2cj "):
            words = line.split()
            command = " ".join(words[1:3] if words[1] == "repo" else words[1:2])
        documented.setdefault(command, set()).update(re.findall(r"--[a-z][a-z-]*", line))
    assert documented == dict(_long_options(build_parser()))


def test_repo_add_and_search(tmp_path, capsys):
    repo_path = tmp_path / "repo.jsonl"
    case = RepairCase("c1", ("E1",), "error: type mismatch on Int", "use Int64", "let x: Int = 1", "let x: Int64 = 1")
    case_file = tmp_path / "case.json"
    case_file.write_text(json.dumps(asdict(case)), encoding="utf-8")
    assert main(["repo", "add", "--repo", str(repo_path), "--file", str(case_file)]) == 0
    assert "1 case" in capsys.readouterr().out

    assert main(["repo", "search", "--repo", str(repo_path), "--error", "error: type mismatch on Int", "--top-k", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("c1\t")

    # duplicate id rejected
    assert main(["repo", "add", "--repo", str(repo_path), "--file", str(case_file)]) == 1


def test_repo_search_top_k_defaults_to_rag_top_k(tmp_path, capsys):
    repo_path = tmp_path / "repo.jsonl"
    Repository(
        [RepairCase(f"c{i}", ("E1",), f"error: type mismatch {i}", "use Int64", "let x: Int = 1", "let x: Int64 = 1")
         for i in range(3)]
    ).save(repo_path)
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump({"repair": {"rag_top_k": 1}}), encoding="utf-8")
    argv = ["repo", "search", "--config", str(config_path), "--repo", str(repo_path), "--error", "error: type mismatch"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1
    assert main(argv + ["--top-k", "2"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_evaluate_and_report_round_trip(tmp_path, capsys):
    outcomes_path = tmp_path / "outcomes.jsonl"
    refs_dir = tmp_path / "refs"
    refs_dir.mkdir()
    records = []
    for i in range(165):
        compiled = i < 118
        passed = i < 105
        records.append(
            {"unit_id": f"u{i}", "compiled": compiled, "all_tests_passed": passed, "candidate": "a b"}
        )
        (refs_dir / f"u{i}.cj").write_text("a b", encoding="utf-8")
    outcomes_path.write_text("\n".join(json.dumps(r) for r in records) + "\n", encoding="utf-8")

    report_path = tmp_path / "report.jsonl"
    assert main(["evaluate", "--outcomes", str(outcomes_path), "--refs", str(refs_dir), "--out", str(report_path)]) == 0
    table = capsys.readouterr().out
    assert "63.64" in table and "71.52" in table and "88.98" in table

    assert main(["report", "--report", str(report_path)]) == 0
    assert "63.64" in capsys.readouterr().out


def test_evaluate_missing_reference_names_unit(tmp_path, capsys):
    outcomes_path = tmp_path / "outcomes.jsonl"
    outcomes_path.write_text(
        json.dumps({"unit_id": "ghost", "compiled": True, "all_tests_passed": True, "candidate": "x"}) + "\n",
        encoding="utf-8",
    )
    assert main(["evaluate", "--outcomes", str(outcomes_path)]) == 1
    assert "ghost" in capsys.readouterr().err


@pytest.mark.parametrize("field,text", [("candidate", ""), ("candidate", "   "), ("reference", " \n\t ")])
def test_evaluate_untokenizable_pair_names_unit(tmp_path, capsys, field, text):
    records = [
        {"unit_id": "a", "compiled": True, "all_tests_passed": True, "candidate": "x", "reference": "x"},
        {"unit_id": "b", "compiled": True, "all_tests_passed": False, "candidate": "y", "reference": "y"},
    ]
    records[1][field] = text
    outcomes_path = tmp_path / "outcomes.jsonl"
    outcomes_path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    report_path = tmp_path / "report.jsonl"
    assert main(["evaluate", "--outcomes", str(outcomes_path), "--out", str(report_path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: unit 'b': candidate and references must tokenize to at least one token\n"
    assert not report_path.exists()


def test_build_corpus_cli(tmp_path, capsys):
    chapters = tmp_path / "chapters"
    chapters.mkdir()
    entry = {
        "id": "e1",
        "title": "T",
        "tags": [],
        "typical_questions": ["q?"],
        "description": "d",
        "code_examples": [],
    }
    chapter_text = "# One"
    (chapters / "one.md").write_text(chapter_text, encoding="utf-8")
    transcript = transcript_of(
        [(DOC_RECONSTRUCTION_TEMPLATE.render({"chapter": chapter_text}), json.dumps([entry]))]
    )
    transcript_path = tmp_path / "t.jsonl"
    transcript.save(transcript_path)
    config_path = tmp_path / "config.yaml"
    config_path.write_text(
        yaml.safe_dump({"llm": {"mode": "mock", "transcript": str(transcript_path)}}),
        encoding="utf-8",
    )
    out_dir = tmp_path / "datasets"
    code = main([
        "build-corpus", "--config", str(config_path),
        "--chapters", str(chapters), "--out", str(out_dir),
    ])
    assert code == 0
    assert (out_dir / "cpt.jsonl").exists()
    assert "entries: 1" in capsys.readouterr().out


def test_build_corpus_structure_block_follows_retained_categories(tmp_path, capsys):
    pairs = tmp_path / "pairs"
    pairs.mkdir()
    java_file = pairs / "A.java"
    java_file.write_text("class A { int f(int x) { if (x > 0) { return 1; } return 0; } }", encoding="utf-8")
    (pairs / "A.cj").write_text(C1, encoding="utf-8")
    transcript_path = tmp_path / "t.jsonl"
    Transcript().save(transcript_path)
    config_path = tmp_path / "config.yaml"
    config_path.write_text(
        yaml.safe_dump({
            "llm": {"mode": "mock", "transcript": str(transcript_path)},
            "retained_categories": ["if_statement"],
        }),
        encoding="utf-8",
    )
    assert main(["summarize-ast", str(java_file), "--config", str(config_path), "--tokens"]) == 0
    tokens = capsys.readouterr().out.split()
    assert tokens == ["<STRUCT:IF_STATEMENT>"]
    out_dir = tmp_path / "datasets"
    assert main(["build-corpus", "--config", str(config_path), "--pairs", str(pairs), "--out", str(out_dir)]) == 0
    [sample] = read_jsonl(out_dir / "parallel.jsonl")
    assert sample["structure_block"] == tokens


def test_build_corpus_missing_dir_is_error(tmp_path):
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump({"llm": {"mode": "mock", "transcript": "x"}}), encoding="utf-8")
    assert main([
        "build-corpus", "--config", str(config_path),
        "--chapters", str(tmp_path / "missing"), "--out", str(tmp_path / "out"),
    ]) == 1


def test_repair_command_runs_loop_on_existing_candidate(pipeline, capsys, tmp_path):
    fixture_root, config_path = pipeline
    java_file = tmp_path / "A.java"
    java_file.write_text(JAVA, encoding="utf-8")
    candidate_file = tmp_path / "cand.cj"
    candidate_file.write_text(C0, encoding="utf-8")
    tests_file = tmp_path / "tests.json"
    tests_file.write_text(json.dumps([{"input": "1\n", "expected_output": "2\n"}]), encoding="utf-8")
    code = main([
        "repair", "--config", str(config_path),
        "--java", str(java_file), "--candidate", str(candidate_file),
        "--tests", str(tests_file), "--out", str(tmp_path / "trace.json"),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "accepted" in out
    assert C1 in out


def _record_over_http(config_path, serve, replies):
    """Switch the config to a recording http model that a loopback server answers
    with ``replies`` in order, then refuses; return the recording's path."""
    raw = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    record = config_path.parent / "rec.jsonl"
    server = serve([completion(reply) for reply in replies])
    raw["llm"] = {"mode": "http", "endpoint": server.url, "model": "m", "record": str(record)}
    config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return record


@pytest.mark.parametrize("answered,code", [(2, 0), (1, 2)], ids=["accepted", "completion-error"])
def test_repair_saves_its_recording(pipeline, serve, capsys, tmp_path, answered, code):
    _, config_path = pipeline
    replies = [GUIDANCE, f"```\n{C1}\n```"][:answered]
    record = _record_over_http(config_path, serve, replies)
    (tmp_path / "cand.cj").write_text(C0, encoding="utf-8")
    argv = ["repair", "--config", str(config_path), "--java", str(tmp_path / "bench" / "unit1.java"),
            "--candidate", str(tmp_path / "cand.cj"), "--tests", str(tmp_path / "bench" / "unit1.tests.json")]
    assert main(argv) == code
    assert sorted(Transcript.load(record).entries.values()) == sorted(replies)


# With --jobs 2 the unit runs in a worker process; a fork start copies this process's patches into it.
@pytest.mark.parametrize("jobs", ["1", "2"])
def test_translate_keeps_its_recording_when_a_trace_write_fails(pipeline, serve, capsys, jobs):
    tmp_path, config_path = pipeline
    replies = [f"```\n{C0}\n```", GUIDANCE, f"```\n{C1}\n```"]
    record = _record_over_http(config_path, serve, replies)
    (tmp_path / "traces" / "unit1.trace.json").mkdir(parents=True)
    assert main(["translate", "--config", str(config_path), "--jobs", jobs]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(Transcript.load(record).entries.values()) == sorted(replies)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_translate_keeps_its_recording_when_interrupted(pipeline, serve, monkeypatch, jobs):
    _, config_path = pipeline
    replies = [f"```\n{C0}\n```"]
    record = _record_over_http(config_path, serve, replies)

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr("j2cj.cli.run_repair_loop", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["translate", "--config", str(config_path), "--jobs", jobs])
    assert list(Transcript.load(record).entries.values()) == replies


def _serve_units_over_http(root: Path, config_path: Path, serve, count: int) -> list[str]:
    """Add ``count`` units, each translated right the first time, and switch the
    config to a recording http model whose server answers by prompt digest, from
    the fixture's transcript and the new units' replies; return the digests of
    the prompts in unit order (the new units sort before ``unit1``)."""
    transcript = Transcript.load(root / "transcript.jsonl")
    unit1 = list(transcript.entries)
    for i in range(count):
        java = f"class B{i} {{ static int g(int x) {{ return x + 1; }} }}"
        (root / "bench" / f"unit0_{i:02d}.java").write_text(java, encoding="utf-8")
        for suffix in (".tests.json", ".ref.cj"):
            (root / "bench" / f"unit0_{i:02d}{suffix}").write_bytes((root / "bench" / f"unit1{suffix}").read_bytes())
        transcript.add(translation_prompt(java), f"```\n{C1}\n```")
    server = serve(lambda body: completion(transcript.lookup(body["messages"][0]["content"])))
    raw = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    raw["llm"] = {"mode": "http", "endpoint": server.url, "model": "m", "record": str(root / "rec.jsonl")}
    config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    return [*list(transcript.entries)[len(unit1):], *unit1]


def test_translate_records_the_same_bytes_for_any_jobs(pipeline, serve):
    """The parent writes the recording from the units' results, in unit order,
    whichever unit's replies arrive first; 40 units make pool tasks of several units."""
    tmp_path, config_path = pipeline
    in_unit_order = _serve_units_over_http(tmp_path, config_path, serve, 40)
    recordings = []
    for jobs in ("1", "2", "3"):
        assert main(["translate", "--config", str(config_path), "--jobs", jobs]) == 0
        recordings.append((tmp_path / "rec.jsonl").read_bytes())
        (tmp_path / "rec.jsonl").unlink()
    assert recordings[0] == recordings[1] == recordings[2]
    digests = [json.loads(line)["digest"] for line in recordings[0].splitlines()]
    assert digests == in_unit_order


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_translate_records_what_every_unit_received_when_one_fails(pipeline, serve, capsys, jobs):
    tmp_path, config_path = pipeline
    in_unit_order = _serve_units_over_http(tmp_path, config_path, serve, 40)
    (tmp_path / "traces" / "unit0_17.trace.json").mkdir(parents=True)
    assert main(["translate", "--config", str(config_path), "--jobs", jobs]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")
    recorded = list(Transcript.load(tmp_path / "rec.jsonl").entries)
    assert recorded == in_unit_order[:len(recorded)]  # none skipped
    assert len(recorded) >= 18  # up to the unit whose trace could not be written, and any finished beside it


FORKED_MAIN = """import multiprocessing, os
multiprocessing.set_start_method("fork")
import j2cj.cli
j2cj.cli.run_repair_loop = lambda *args: os._exit(3)
code = j2cj.cli.main(sys.argv[1:])
print(multiprocessing.active_children())
sys.exit(code)
"""


def test_a_worker_that_dies_gives_one_error_line(pipeline, run_isolated):
    tmp_path, config_path = pipeline
    _copy_unit(tmp_path, "unit2")
    result = run_isolated(FORKED_MAIN, "translate", "--config", str(config_path), "--jobs", "2")
    assert result.returncode == 1
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr
    assert result.stdout == "[]\n"


def test_bad_tests_file_errors_only_its_own_unit(pipeline, capsys):
    tmp_path, config_path = pipeline
    (tmp_path / "bench" / "unit0.java").write_text(JAVA, encoding="utf-8")
    tests_file = tmp_path / "bench" / "unit0.tests.json"
    # Not a list of records; a list nested deeper than the interpreter's stack.
    for text, reason in [('{"input": "1\\n"}', "expected a list"), ("[" * 200_000 + "]" * 200_000, "invalid JSON")]:
        tests_file.write_text(text, encoding="utf-8")
        code = main(["translate", "--config", str(config_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"unit0: error: ValueError: {tests_file}: {reason}")
        assert captured.err.count("\n") == 1
        assert "unit1: accepted" in captured.out
        assert (tmp_path / "traces" / "unit1.trace.json").exists()
        outcomes = (tmp_path / "reports" / "outcomes.jsonl").read_text(encoding="utf-8").splitlines()
        assert [json.loads(line)["unit_id"] for line in outcomes] == ["unit1"]


_AGGREGATE = {"type": "aggregate", "n_total": 3, "n_compiled": 2, "n_cf": 1, "bleu": {"value": 0.5}}
_CASE = asdict(RepairCase(
    "c1", ("type_mismatch",), "error: expected String, found Int64", "Convert with toString().",
    'let s: String = 1', 'let s: String = "1"',
))

# name -> (file written under the fixture root, its text, the bad line, argv)
_MALFORMED_INPUTS = {
    "transcript-line": ("transcript.jsonl", "\nnot json\n", 2, ["translate", "--config", "{config}"]),
    "compiler-record-without-status": (
        "compiler.jsonl", '{"digest": "d", "diagnostics": ""}\n', 1, ["translate", "--config", "{config}"],
    ),
    "outcomes-line": (
        "outcomes.jsonl",
        json.dumps({"unit_id": "u", "compiled": True, "all_tests_passed": True, "reference": "a"}) + "\n{\n",
        2,
        ["evaluate", "--outcomes", "{file}"],
    ),
    "outcome-without-compiled": (
        "outcomes.jsonl",
        json.dumps({"unit_id": "u", "all_tests_passed": False, "reference": "a"}) + "\n",
        1,
        ["evaluate", "--outcomes", "{file}"],
    ),
    "report-line": ("report.jsonl", "[1, 2]\n", 1, ["report", "--report", "{file}"]),
    "report-zero-units": (
        "report.jsonl",
        json.dumps({**_AGGREGATE, "n_total": 0, "n_compiled": 0, "n_cf": 0}) + "\n",
        1,
        ["report", "--report", "{file}"],
    ),
    "report-missing-counts": (
        "report.jsonl",
        json.dumps({"type": "unit"}) + "\n" + json.dumps({"type": "aggregate", "n_total": 3}) + "\n",
        2,
        ["report", "--report", "{file}"],
    ),
    "repo-add-invalid-json": (
        "case.json", "{not json}\n", 1, ["repo", "add", "--repo", "{root}/repo.jsonl", "--file", "{file}"],
    ),
    "transcript-reply-an-int": (
        "transcript.jsonl", '{"digest": "d", "reply": 5}\n', 1, ["translate", "--config", "{config}"],
    ),
    "compiler-status-misspelled": (
        "compiler.jsonl", '{"digest": "d", "status": "succes"}\n', 1, ["translate", "--config", "{config}"],
    ),
    "compiler-diagnostics-an-int": (
        "compiler.jsonl", '{"digest": "d", "status": "fail", "diagnostics": 5}\n', 1,
        ["translate", "--config", "{config}"],
    ),
    "runner-output-an-int": (
        "runner.jsonl", '{"digest": "d", "input": "1\\n", "output": 5}\n', 1, ["translate", "--config", "{config}"],
    ),
    "repository-error-info-an-int": (
        "repo.jsonl",
        json.dumps({**_CASE, "error_info": 5}) + "\n",
        1,
        ["translate", "--config", "{config}"],
    ),
    "outcome-candidate-an-int": (
        "outcomes.jsonl",
        json.dumps({"unit_id": "u", "compiled": True, "all_tests_passed": True, "candidate": 5, "reference": "a"}),
        1,
        ["evaluate", "--outcomes", "{file}"],
    ),
    "outcome-compiled-a-string": (
        "outcomes.jsonl",
        json.dumps({"unit_id": "u", "compiled": "false", "all_tests_passed": False, "reference": "a"}),
        1,
        ["evaluate", "--outcomes", "{file}"],
    ),
    "outcome-passed-a-string": (
        "outcomes.jsonl",
        json.dumps({"unit_id": "u", "compiled": True, "all_tests_passed": "no", "reference": "a"}),
        1,
        ["evaluate", "--outcomes", "{file}"],
    ),
    "outcomes-line-nested-too-deep": (
        "outcomes.jsonl", "[" * 200_000 + "]" * 200_000 + "\n", 1, ["evaluate", "--outcomes", "{file}"],
    ),
    "outcome-unit-id-an-int": (
        "outcomes.jsonl",
        json.dumps({"unit_id": 7, "compiled": True, "all_tests_passed": True, "reference": "a"}),
        1,
        ["evaluate", "--outcomes", "{file}"],
    ),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_INPUTS))
def test_malformed_input_exits_1_with_one_line(pipeline, capsys, name):
    root, config_path = pipeline
    file_name, text, line, argv = _MALFORMED_INPUTS[name]
    bad = root / file_name
    bad.write_text(text, encoding="utf-8")
    code = main([a.format(config=config_path, file=bad, root=root) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith(f"error: {bad}:{line}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


_TRANSLATE = ["translate", "--config", "{config}"]
_COMMAND_COMPILER = {"compiler.mode": "command", "compiler.command": ["cjc", "{source}"]}

# name -> (config settings changed (a string value may name the fixture root as {root}),
#          files written under the fixture root (None: a directory), argv,
#          the start of the stderr line after "error: ")
_MALFORMED_SETUPS = {
    "config-weights-an-int": ({"repair.weights": 5}, {}, _TRANSLATE, "repair.weights must be a list of numbers"),
    "config-threshold-a-list": ({"repair.threshold": [1]}, {}, _TRANSLATE, "repair.threshold must be a number"),
    "config-temperature-null": ({"decoding.temperature": None}, {}, _TRANSLATE, "decoding.temperature must be a number"),
    "config-timeout-not-a-number": (
        {**_COMMAND_COMPILER, "compiler.timeout": "abc"}, {}, _TRANSLATE, "compiler.timeout must be a number",
    ),
    "config-command-a-string": (
        {"compiler.mode": "command", "compiler.command": "cjc"}, {}, _TRANSLATE,
        "compiler.command must be a list of strings",
    ),
    "config-weights-nan": (
        {"repair.weights": [float("nan"), 1, 1, 1, 1, 1]}, {}, _TRANSLATE,
        "invalid repair settings: weights must be non-negative and finite",
    ),
    "config-weights-inf": (
        {"repair.weights": [float("inf")] * 6}, {}, _TRANSLATE,
        "invalid repair settings: weights must be non-negative and finite",
    ),
    "config-temperature-nan": (
        {"decoding.temperature": float("nan")}, {}, _TRANSLATE,
        "invalid decoding settings: temperature must be non-negative and finite",
    ),
    "config-temperature-inf": (
        {"decoding.temperature": float("inf")}, {}, _TRANSLATE,
        "invalid decoding settings: temperature must be non-negative and finite",
    ),
    "config-compiler-timeout-nan": (
        {**_COMMAND_COMPILER, "compiler.timeout": float("nan")}, {}, _TRANSLATE,
        "compiler timeout must be a positive finite number of seconds",
    ),
    "config-runner-timeout-negative": (
        {"runner.mode": "command", "runner.timeout": -1}, {}, _TRANSLATE,
        "runner timeout must be a positive finite number of seconds",
    ),
    "config-runner-timeout-zero": (
        {"runner.mode": "command", "runner.timeout": 0}, {}, _TRANSLATE,
        "runner timeout must be a positive finite number of seconds",
    ),
    "translate-harvest-without-repository": (
        {"paths.repository": None}, {}, _TRANSLATE + ["--harvest"], "paths.repository is not set\n",
    ),
    "translate-harvest-into-missing-directory": (
        {"paths.repository": "{root}/nodir/repo.jsonl"}, {}, _TRANSLATE + ["--harvest"],
        "repository directory does not exist: {root}/nodir\n",
    ),
    "translate-without-benchmark": ({"paths.benchmark": None}, {}, _TRANSLATE, "paths.benchmark is not set\n"),
    "repo-search-without-repository": (
        {"paths.repository": None}, {}, ["repo", "search", "--config", "{config}", "--error", "x"],
        "paths.repository is not set\n",
    ),
    "build-corpus-without-datasets": (
        {}, {}, ["build-corpus", "--config", "{config}", "--pairs", "{root}"], "paths.datasets is not set\n",
    ),
    "config-transcript-an-int": ({"llm.transcript": 5}, {}, _TRANSLATE, "llm.transcript must be a string"),
    "config-llm-mode-unknown": ({"llm.mode": "mokc"}, {}, _TRANSLATE, "llm.mode must be 'mock' or 'http'"),
    "config-compiler-mode-unknown": ({"compiler.mode": "mokc"}, {}, _TRANSLATE, "compiler.mode must be 'mock' or 'command'"),
    "config-runner-mode-unknown": ({"runner.mode": "mokc"}, {}, _TRANSLATE, "runner.mode must be 'mock' or 'command'"),
    "config-reports-a-list": ({"paths.reports": ["out"]}, {}, _TRANSLATE, "paths.reports must be a string"),
    "config-unknown-keys-of-mixed-types": (
        {}, {"config.yaml": "1: x\nb: y\nrepair: {2: z}"}, _TRANSLATE,
        "unknown configuration keys at top level: [1, 'b']",
    ),
    "config-not-yaml": (
        {}, {"config.yaml": "a: [1"}, _TRANSLATE,
        "config file is not valid YAML: while parsing a flow sequence in \"{root}/config.yaml\", line 1, column 4 ",
    ),
    "config-nested-too-deep": (
        {}, {"config.yaml": "[" * 5_000 + "]" * 5_000}, _TRANSLATE,
        "config file is not valid YAML: maximum recursion depth exceeded",
    ),
    "repo-add-nested-too-deep": (
        {}, {"case.json": "[" * 200_000 + "]" * 200_000},
        ["repo", "add", "--repo", "{root}/repo.jsonl", "--file", "{root}/case.json"],
        "{root}/case.json: invalid JSON: maximum recursion depth exceeded",
    ),
    "config-a-directory": (
        {}, {"conf.d": None}, ["translate", "--config", "{root}/conf.d"], "[Errno 21] Is a directory: '{root}/conf.d'",
    ),
    "evaluate-out-a-directory": (
        {}, {"outcomes.jsonl": json.dumps({"unit_id": "u", "compiled": True, "all_tests_passed": True,
                                           "candidate": "a", "reference": "a"}), "out": None},
        ["evaluate", "--outcomes", "{root}/outcomes.jsonl", "--out", "{root}/out"],
        "[Errno 21] Is a directory: '{root}/out'",
    ),
    "outcomes-a-directory": (
        {}, {"reports/outcomes.jsonl": None}, _TRANSLATE,
        "[Errno 21] Is a directory: '{root}/reports/outcomes.jsonl'",
    ),
    "repo-search-top-k-zero": (
        {}, {}, ["repo", "search", "--config", "{config}", "--error", "e", "--top-k", "0"],
        "invalid repair settings: rag_top_k must be positive\n",
    ),
    "config-retained-category-unknown": (
        {"retained_categories": ["class_decl", "block"]}, {},
        ["summarize-ast", "{root}/bench/unit1.java", "--tokens", "--config", "{config}"],
        "retained_categories names no parser category: ['class_decl']\n",
    ),
}
# Values of another kind, for each kind of setting, and two values that
# loaded truncated or unchecked before every setting's kind was checked.
_WRONG = {
    "a string": [5, True, ["x"]],
    "an integer": [True, 2.0, "3", None, [1]],
    "a number": [True, "1", None, [0.5]],
    "a list of strings": ["x", [1, None], [None], None, {"a": "b"}],
    "a list of numbers": ["123456", [1, None], [True] * 6, None, 5],
    "'mock' or 'http'": [5, True, ["x"], None, "Mock"],
    "'mock' or 'command'": [5, True, ["x"], None, "Mock"],
}
_COERCED = {"repair.max_iterations": [2.7], "repair.threshold": ["0.3"]}
# Every setting given each wrong value of its kind, unless a case above gives it already.
_GIVEN = {json.dumps(changes) for changes, *_ in _MALFORMED_SETUPS.values()}
for section, kinds in _SETTINGS.items():
    for key, (kind, _) in kinds.items():
        dotted = f"{section}.{key}".lstrip(".")
        for value in _WRONG[kind] + _COERCED.get(dotted, []):
            if json.dumps({dotted: value}) not in _GIVEN:
                _MALFORMED_SETUPS[f"config-{dotted}={json.dumps(value)}"] = (
                    {dotted: value}, {}, _TRANSLATE, f"{dotted} must be {kind}",
                )


@pytest.mark.parametrize("name", sorted(_MALFORMED_SETUPS))
def test_malformed_setup_exits_1_with_one_line(pipeline, capsys, name):
    root, config_path = pipeline
    changes, files, argv, message = _MALFORMED_SETUPS[name]
    raw = yaml.safe_load(config_path.read_text(encoding="utf-8"))
    for dotted, value in changes.items():
        *section, key = dotted.split(".")
        (raw.setdefault(section[0], {}) if section else raw)[key] = value.format(root=root) if isinstance(value, str) else value
    config_path.write_text(yaml.safe_dump(raw), encoding="utf-8")
    for file_name, text in files.items():
        path = root / file_name
        if text is None:
            path.mkdir(parents=True)
        else:
            path.write_text(text + "\n", encoding="utf-8")
    code = main([a.format(config=config_path, root=root) for a in argv])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: " + message.format(root=root))
    assert err.count("\n") == 1 and "Traceback" not in err


def test_unreadable_unit_file_errors_only_its_own_unit(pipeline, capsys):
    root, config_path = pipeline
    (root / "bench" / "unit0.java").write_text(JAVA, encoding="utf-8")
    (root / "bench" / "unit0.tests.json").mkdir()
    code = main(["translate", "--config", str(config_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"unit0: error: IsADirectoryError: [Errno 21] Is a directory: '{root}/bench/unit0.tests.json'\n"
    assert "unit1: accepted" in captured.out


UNPARSEABLE_JAVA = {
    "stray-semicolon": "class A { static int f(int x) { return g(1;); } }",
    "deep-nesting": "class B { void f() " + "{" * 600 + "}" * 600 + " }",
    # A childless ERROR node (the missing initializer) and an ERROR token ('#').
    "empty-initializer": "class A { int x = ; }",
    "stray-character": "class A { int x = 1 # 2; }",
}


@pytest.mark.parametrize("name", sorted(UNPARSEABLE_JAVA))
def test_unparseable_unit_errors_only_its_own_unit(pipeline, run_isolated, name):
    tmp_path, config_path = pipeline
    (tmp_path / "bench" / "unit0.java").write_text(UNPARSEABLE_JAVA[name], encoding="utf-8")
    result = run_isolated(CLI_MAIN, "translate", "--config", str(config_path), timeout=60)
    assert result.returncode == 2, result.stderr
    assert result.stderr == "unit0: error: ValueError: java source does not parse cleanly\n"
    assert "unit1: accepted" in result.stdout


@pytest.mark.parametrize("name", sorted(UNPARSEABLE_JAVA))
def test_build_corpus_reports_unparseable_pair_and_keeps_the_rest(tmp_path, run_isolated, name):
    pairs = tmp_path / "pairs"
    pairs.mkdir()
    (pairs / "A.java").write_text(UNPARSEABLE_JAVA[name], encoding="utf-8")
    (pairs / "B.java").write_text(JAVA, encoding="utf-8")
    for stem in "AB":
        (pairs / f"{stem}.cj").write_text(C1, encoding="utf-8")
    transcript_path = tmp_path / "t.jsonl"
    Transcript().save(transcript_path)
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump({"llm": {"mode": "mock", "transcript": str(transcript_path)}}), encoding="utf-8")
    out_dir = tmp_path / "datasets"
    argv = ["build-corpus", "--config", str(config_path), "--pairs", str(pairs), "--out", str(out_dir)]
    result = run_isolated(CLI_MAIN, *argv, timeout=60)
    assert result.returncode == 2, result.stderr
    assert result.stderr == "problem: A.java: java source does not parse cleanly\n"
    [sample] = read_jsonl(out_dir / "parallel.jsonl")
    assert sample["java_source"] == JAVA


SNIPPET = "func add(a: Int64, b: Int64): Int64 {\n    let total = a + b\n    println(total)\n    return total\n}\n"

# name -> (a file build-corpus reads, its text (None: a directory in its place), its flag,
#          the problem line after "problem: ", text in stdout)
_FAILING_CORPUS_FILES = {
    "pair-target": ("pairs/B.cj", None, "--pairs", "B.java: [Errno 21] Is a directory: '{file}'", "parallel_skipped: 1"),
    "snippet": ("snippets/s.cj", None, "--snippets", "s.cj: [Errno 21] Is a directory: '{file}'", "snippets_seen: 0"),
    "chapter": ("chapters/c.md", None, "--chapters", "c.md: [Errno 21] Is a directory: '{file}'", "entries: 0"),
    "snippet-annotation-blank": (
        "snippets/good.cj", SNIPPET, "--snippets", "good.cj: annotation reply is empty", "monolingual_samples: 0",
    ),
}


@pytest.mark.parametrize("name", sorted(_FAILING_CORPUS_FILES))
def test_build_corpus_reports_an_unreadable_file_and_keeps_the_rest(pipeline, capsys, name):
    """A file that cannot be read, or whose text the model annotates with a
    blank reply, is one problem line naming it; the other files still run."""
    root, config_path = pipeline
    file_name, text, flag, problem, out_line = _FAILING_CORPUS_FILES[name]
    (root / "pairs").mkdir()
    (root / "pairs" / "B.java").write_text(JAVA, encoding="utf-8")
    path = root / file_name
    if text is None:
        path.mkdir(parents=True)
    else:
        path.parent.mkdir(parents=True)
        path.write_text(text, encoding="utf-8")
        transcript = Transcript.load(root / "transcript.jsonl")
        transcript.add(SEMANTIC_ANNOTATION_TEMPLATE.render({"code": text}), " \n")
        transcript.save(root / "transcript.jsonl")
    argv = ["build-corpus", "--config", str(config_path), flag, str(path.parent), "--out", str(root / "out")]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"problem: {problem.format(file=path)}\n"
    assert out_line in captured.out


@pytest.mark.parametrize("unit_id", ["../x", "a/b", "/abs/x"])
def test_evaluate_refs_reads_only_file_names_inside_refs(tmp_path, capsys, unit_id):
    refs = tmp_path / "refs"
    (refs / "a").mkdir(parents=True)
    for ref_file in (tmp_path / "x.cj", refs / "a" / "b.cj"):
        ref_file.write_text("a b", encoding="utf-8")
    outcomes = tmp_path / "outcomes.jsonl"
    record = {"unit_id": unit_id, "compiled": True, "all_tests_passed": True, "candidate": "a b"}
    outcomes.write_text(json.dumps(record) + "\n", encoding="utf-8")
    assert main(["evaluate", "--outcomes", str(outcomes), "--refs", str(refs)]) == 1
    assert capsys.readouterr().err == f"error: {outcomes}:1: unit id {unit_id!r} is not a file name in --refs\n"


# name -> (file under the fixture root rewritten as Latin-1, argv, exit code, stderr, text in stdout)
_NOT_UTF8 = {
    "config": ("config.yaml", ["translate", "--config", "{file}"], 1, "error: config file is not UTF-8: {file}", ""),
    "translate-java": (
        "bench/unit0.java", ["translate", "--config", "{config}"], 2,
        "unit0: error: ValueError: {file}: not UTF-8: invalid continuation byte at byte 6", "unit1: accepted",
    ),
    "translate-reference": (
        "bench/unit1.ref.cj", ["translate", "--config", "{config}"], 2,
        "unit1: error: ValueError: {file}: not UTF-8: invalid continuation byte at byte 6", "unit0: accepted",
    ),
    "evaluate-outcomes": (
        "outcomes.jsonl", ["evaluate", "--outcomes", "{file}"], 1,
        "error: {file}:1: not UTF-8: byte 0xc9", "",
    ),
    "evaluate-refs": (
        "refs/u.cj", ["evaluate", "--outcomes", "{root}/outcomes.jsonl", "--refs", "{root}/refs"], 1,
        "error: {root}/outcomes.jsonl:1: {file}: not UTF-8: invalid continuation byte at byte 6", "",
    ),
    "repo-search-error-file": (
        "error.txt", ["repo", "search", "--repo", "{root}/repo.jsonl", "--error-file", "{file}"], 1,
        "error: {file}: not UTF-8: invalid continuation byte at byte 6", "",
    ),
    "summarize-ast": (
        "A.java", ["summarize-ast", "{file}"], 1, "error: {file}: not UTF-8: invalid continuation byte at byte 6", "",
    ),
    "repair-candidate": (
        "cand.cj", ["repair", "--config", "{config}", "--java", "{root}/bench/unit1.java", "--candidate", "{file}"], 1,
        "error: {file}: not UTF-8: invalid continuation byte at byte 6", "",
    ),
    "build-corpus-pair-target": (
        "pairs/A.cj",
        ["build-corpus", "--config", "{config}", "--pairs", "{root}/pairs", "--out", "{root}/datasets"], 2,
        "problem: A.java: {file}: not UTF-8: invalid continuation byte at byte 6", "parallel_skipped: 1",
    ),
    "build-corpus-snippet": (
        "snippets/bad.cj",
        ["build-corpus", "--config", "{config}", "--snippets", "{root}/snippets", "--out", "{root}/datasets"], 2,
        "problem: bad.cj: {file}: not UTF-8: invalid continuation byte at byte 6", "snippets_seen: 1",
    ),
    "build-corpus-chapter": (
        "chapters/bad.md",
        ["build-corpus", "--config", "{config}", "--chapters", "{root}/chapters", "--out", "{root}/datasets"], 2,
        "problem: bad.md: {file}: not UTF-8: invalid continuation byte at byte 6", "entries: 0",
    ),
}


@pytest.mark.parametrize("name", sorted(_NOT_UTF8))
def test_file_that_is_not_utf8_gives_one_line_naming_it(pipeline, capsys, name):
    root, config_path = pipeline
    (root / "bench" / "unit0.java").write_text(JAVA, encoding="utf-8")
    (root / "refs").mkdir()
    (root / "refs" / "u.cj").write_text("a", encoding="utf-8")
    record = {"unit_id": "u", "compiled": True, "all_tests_passed": True, "candidate": "a"}
    (root / "outcomes.jsonl").write_text(json.dumps(record) + "\n", encoding="utf-8")
    (root / "snippets").mkdir()
    (root / "snippets" / "short.cj").write_text("func f() {}\n", encoding="utf-8")
    (root / "repo.jsonl").write_text("", encoding="utf-8")
    (root / "pairs").mkdir()
    (root / "pairs" / "A.java").write_text(JAVA, encoding="utf-8")
    (root / "chapters").mkdir()
    file_name, argv, code, err, out_line = _NOT_UTF8[name]
    bad = root / file_name
    bad.write_bytes("class É {}\n".encode("latin-1"))
    assert main([a.format(config=config_path, file=bad, root=root) for a in argv]) == code
    captured = capsys.readouterr()
    assert captured.err == err.format(file=bad, root=root) + "\n"
    assert out_line in captured.out


# Files of the pipeline fixture the fuzz mutates: JSONL records, the tests
# file's list of records and the YAML config's mapping of sections.
_FUZZED_JSONL = ("transcript.jsonl", "compiler.jsonl", "runner.jsonl", "repo.jsonl")
_FUZZED_TESTS = "bench/unit1.tests.json"
_DELETE = object()
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False), st.text(max_size=8),
    st.lists(st.integers(), max_size=2), st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


@pytest.fixture
def fuzzed_pipeline(pipeline):
    """The pipeline fixture with a one-case repository, and the bytes of its input files."""
    root, config_path = pipeline
    (root / "repo.jsonl").write_text(json.dumps(_CASE) + "\n", encoding="utf-8")
    return root, config_path, {path: path.read_bytes() for path in root.rglob("*") if path.is_file()}


def _load(path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".jsonl":
        return [json.loads(line) for line in text.splitlines()]
    return yaml.safe_load(text) if path.suffix == ".yaml" else json.loads(text)


def _save(path, doc):
    if path.suffix == ".jsonl":
        path.write_text("".join(json.dumps(record) + "\n" for record in doc), encoding="utf-8")
    else:
        path.write_text(yaml.safe_dump(doc) if path.suffix == ".yaml" else json.dumps(doc), encoding="utf-8")


def _keys(doc):
    """(mapping, key) for each key of each record, or of the config and its sections."""
    if isinstance(doc, list):
        return [(record, key) for record in doc for key in record]
    sections = [value for value in doc.values() if isinstance(value, dict)]
    return [(doc, key) for key in doc] + [(section, key) for section in sections for key in section]


@settings(max_examples=200, deadline=2000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_mistyped_or_missing_field_never_raises(fuzzed_pipeline, capsys, data):
    """One key of the config, transcript, mock scripts, tests file or
    repository is deleted or given a JSON value of another type. Then
    ``translate`` exits 0, 1 with one ``error:`` line, or 2 with one
    ``NAME: error:`` or ``problem:`` line per failure; it never raises."""
    root, config_path, pristine = fuzzed_pipeline
    for path, content in pristine.items():
        path.write_bytes(content)

    path = root / data.draw(st.sampled_from([*_FUZZED_JSONL, _FUZZED_TESTS, "config.yaml"]))
    doc = _load(path)
    mapping, key = data.draw(st.sampled_from(_keys(doc)))
    value = data.draw(st.just(_DELETE) | _JSON_VALUES.filter(lambda v: type(v) is not type(mapping[key])))
    if value is _DELETE:
        del mapping[key]
    else:
        mapping[key] = value
    _save(path, doc)

    capsys.readouterr()
    code = main(["translate", "--config", str(config_path)])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 0:
        assert err == ""
    elif code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        lines = err.splitlines()
        assert lines and all(re.match(r"\S+: error: |problem: ", line) for line in lines), err
