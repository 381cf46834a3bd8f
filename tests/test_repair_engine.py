"""Repair-loop conformance: branch routing, termination, stagnation,
harvesting, trace integrity."""

import json
import random

import pytest

from support import extract_blocks, transcript_of

from j2cj.adapters import CompileOutcome, RunOutcome, ToolchainError
from j2cj.ast_summary import default_vocab, summarize, tokenize_structure
from j2cj.corpus import annotate_snippet, reconstruct_chapter
from j2cj.javaparse import parse
from j2cj.jsonl import text_digest
from j2cj.llm import (
    RAG_REPAIR_TEMPLATE,
    REPAIR_APPLY_COMPILE_TEMPLATE,
    REPAIR_APPLY_TEST_TEMPLATE,
    REPAIR_GUIDANCE_COMPILE_TEMPLATE,
    REPAIR_GUIDANCE_TEST_TEMPLATE,
    TRANSLATE_INSTRUCTION,
    DecodingConfig,
    MockBackend,
    Transcript,
)
from j2cj.repair_engine import (
    Branch,
    CompileStatus,
    EmptyCodeError,
    EngineDeps,
    IterationRecord,
    RepairConfig,
    TestCase,
    TestResult,
    TranslationUnit,
    UnitStatus,
    format_cases,
    harvest_cases,
    normalize_output,
    repair_step,
    run_repair_loop,
    select_branch,
    translate,
    unit_to_trace,
)
from j2cj.repair_repo import RepairCase, Repository, normalize_diagnostic


# --- scripted in-test adapters ----------------------------------------------------

class TableCompiler:
    """Compile outcomes keyed by exact candidate text."""

    def __init__(self, table: dict[str, tuple[bool, str]]):
        self.table = table
        self.calls = 0

    def compile(self, source: str) -> CompileOutcome:
        self.calls += 1
        ok, diagnostics = self.table[source]
        return CompileOutcome(ok, diagnostics, f"artifact:{source}")


class ConstantFailCompiler:
    def __init__(self, diagnostics: str):
        self.diagnostics = diagnostics
        self.calls = 0

    def compile(self, source: str) -> CompileOutcome:
        self.calls += 1
        return CompileOutcome(False, self.diagnostics, "")


class CyclingFailCompiler:
    def __init__(self, messages: list[str]):
        self.messages = messages
        self.calls = 0

    def compile(self, source: str) -> CompileOutcome:
        diagnostics = self.messages[self.calls % len(self.messages)]
        self.calls += 1
        return CompileOutcome(False, diagnostics, "")


class TableRunner:
    """Outputs keyed by (candidate text, stdin)."""

    def __init__(self, table: dict[tuple[str, str], str]):
        self.table = table

    def run(self, artifact: str, stdin_text: str) -> RunOutcome:
        candidate = artifact.removeprefix("artifact:")
        return RunOutcome(self.table[(candidate, stdin_text)], False)


class PassRunner:
    def __init__(self, unit_tests: list[TestCase]):
        self.expected = {t.input: t.expected_output for t in unit_tests}

    def run(self, artifact: str, stdin_text: str) -> RunOutcome:
        return RunOutcome(self.expected[stdin_text], False)


class ScriptedLLM:
    """Replies served in order; prompts recorded for assertions."""

    def __init__(self, replies: list[str]):
        self.replies = list(replies)
        self.prompts: list[str] = []

    def complete(self, prompt: str, cfg: DecodingConfig = DecodingConfig()) -> str:
        self.prompts.append(prompt)
        if not self.replies:
            raise AssertionError("scripted llm exhausted")
        return self.replies.pop(0)


def unit_with(candidate: str, tests: list[TestCase] | None = None, unit_id: str = "u") -> TranslationUnit:
    return TranslationUnit(
        java_source="class A { static int f(int x) { return x + 1; } }",
        test_suite=tests if tests is not None else [TestCase("1\n", "2\n")],
        candidates=[IterationRecord(candidate=candidate, branch=Branch.INITIAL)],
        unit_id=unit_id,
    )


def high_similarity_case(diagnostics: str, candidate: str, case_id: str = "match") -> RepairCase:
    return RepairCase(
        id=case_id,
        error_tags=(),
        error_info=diagnostics,
        repair_suggestion="replace the bad declaration",
        faulty_fragment=candidate,
        corrected_code=candidate + "\n// fixed",
    )


# --- select_branch ------------------------------------------------------------------

def test_select_branch_four_outcomes():
    assert select_branch(CompileStatus.SUCCESS, TestResult.PASS, None, 0.5) is None
    assert select_branch(CompileStatus.FAIL, TestResult.NOT_RUN, 0.9, 0.5) is Branch.RAG_REPAIR
    assert select_branch(CompileStatus.FAIL, TestResult.NOT_RUN, 0.3, 0.5) is Branch.SELF_ANALYSIS
    assert select_branch(CompileStatus.SUCCESS, TestResult.FAIL, None, 0.5) is Branch.TEST_REPAIR


def test_select_branch_threshold_boundary_routes_to_rag():
    assert select_branch(CompileStatus.FAIL, TestResult.NOT_RUN, 0.5, 0.5) is Branch.RAG_REPAIR


def test_select_branch_contract_violations():
    assert select_branch(CompileStatus.FAIL, TestResult.NOT_RUN, None, 0.5) is Branch.SELF_ANALYSIS
    with pytest.raises(ValueError):
        select_branch(CompileStatus.SUCCESS, TestResult.NOT_RUN, None, 0.5)


def test_threshold_sweep_monotone_gating():
    rng = random.Random(8)
    scores = [rng.random() for _ in range(40)]
    counts = []
    for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
        routed = sum(
            1
            for s in scores
            if select_branch(CompileStatus.FAIL, TestResult.NOT_RUN, s, tau) is Branch.RAG_REPAIR
        )
        counts.append(routed)
    assert counts == sorted(counts, reverse=True)


# --- normalization --------------------------------------------------------------------

def test_signature_strips_locations_case_and_spacing():
    a = normalize_diagnostic("Error: expected ';' at /src/Main.cj:3:14 (0xDEADBEEF)")
    b = normalize_diagnostic("ERROR:   expected ';' at C:\\work\\main.cj:7:2 (0x1234)")
    assert a == b
    assert "deadbeef" not in a
    assert "3:14" not in a


def test_signature_keeps_error_codes():
    assert "e1001" in normalize_diagnostic("error E1001: bad type at x.cj:1:1")


def test_output_normalization_rules():
    assert normalize_output("a  \nb\n\n\n") == normalize_output("a\nb")
    assert normalize_output("a\nb") != normalize_output("a\nc")


# --- translate -------------------------------------------------------------------------

def make_translation_transcript(java: str, reply: str) -> tuple[Transcript, str]:
    tokens = tokenize_structure(summarize(parse(java)), default_vocab())
    from j2cj.ast_summary import render_structured_prompt

    prompt = render_structured_prompt(tokens, java, TRANSLATE_INSTRUCTION)
    return transcript_of([(prompt, reply)]), prompt


def test_translate_replays_transcript_and_extracts_fence():
    java = "class A { static int f(int x) { return x + 1; } }"
    transcript, prompt = make_translation_transcript(java, "```\nfunc f(x: Int64): Int64 { x + 1 }\n```")
    record = translate(java, MockBackend(transcript))
    assert record.branch is Branch.INITIAL
    assert record.candidate == "func f(x: Int64): Int64 { x + 1 }"
    tokens, source = extract_blocks(record.exchanges[0]["prompt"])
    assert source == java
    assert tokens == tokenize_structure(summarize(parse(java)), default_vocab())
    assert record.exchanges[0]["prompt"] == prompt


def test_every_completion_passes_the_prompt_alone():
    """A model whose ``complete`` takes only the prompt serves translation,
    all three repair branches, chapter reconstruction and annotation."""

    class PromptOnlyLLM(ScriptedLLM):
        def complete(self, prompt):
            return super().complete(prompt)

    unit = unit_with("unused")
    llm = PromptOnlyLLM(["```\nc0\n```", "```\nc1\n```", "g2", "```\nc2\n```", "g3", "```\nc3\n```"])
    unit.candidates = [translate(unit.java_source, llm)]
    diagnostics = "error: undefined symbol frob"
    compiler = TableCompiler(
        {"c0": (False, diagnostics), "c1": (False, "error: zzz qqq"), "c2": (True, ""), "c3": (True, "")}
    )
    runner = TableRunner({("c2", "1\n"): "3\n", ("c3", "1\n"): "2\n"})
    repo = Repository([high_similarity_case(diagnostics, "c0")])
    deps = EngineDeps(llm=llm, compiler=compiler, runner=runner, repo=repo)
    run_repair_loop(unit, RepairConfig(max_iterations=5), deps)
    assert unit.status is UnitStatus.ACCEPTED
    assert [rec.branch for rec in unit.candidates] == [
        Branch.INITIAL, Branch.RAG_REPAIR, Branch.SELF_ANALYSIS, Branch.TEST_REPAIR,
    ]
    entry = {"id": "e1", "title": "T", "typical_questions": ["q?"], "description": "d"}
    assert [e.id for e in reconstruct_chapter("# One", PromptOnlyLLM([json.dumps([entry])])).entries] == ["e1"]
    assert annotate_snippet("func f() {}", PromptOnlyLLM(["Does nothing. Really."])) == "Does nothing."


def test_translate_rejects_unparseable_java():
    with pytest.raises(ValueError):
        translate("int x = ;", MockBackend(Transcript()))


# --- loop scenarios ----------------------------------------------------------------------

def test_accept_at_k0():
    unit = unit_with("good")
    deps = EngineDeps(
        llm=ScriptedLLM([]),
        compiler=TableCompiler({"good": (True, "")}),
        runner=PassRunner(unit.test_suite),
    )
    run_repair_loop(unit, RepairConfig(), deps)
    assert unit.status is UnitStatus.ACCEPTED
    assert len(unit.candidates) == 1
    assert unit.candidates[0].test_result is TestResult.PASS


@pytest.mark.parametrize("max_iterations", [2, 5])
def test_constant_diagnostics_stagnate_in_exactly_two_iterations(max_iterations):
    """At a budget of 2 the second candidate also spends the budget; stagnation is checked first."""
    unit = unit_with("c0")
    compiler = ConstantFailCompiler("error: expected ';' at main.cj:3:14")
    deps = EngineDeps(
        llm=ScriptedLLM(["analysis", "```\nc1\n```"]),
        compiler=compiler,
        runner=PassRunner(unit.test_suite),
    )
    run_repair_loop(unit, RepairConfig(max_iterations=max_iterations), deps)
    assert unit.status is UnitStatus.STAGNATED
    assert compiler.calls == 2
    assert len(unit.candidates) == 2
    assert unit.candidates[0].error_signature == unit.candidates[1].error_signature
    assert unit.candidates[1].branch is Branch.SELF_ANALYSIS


def test_cycling_diagnostics_exhaust_exactly_nmax_iterations():
    unit = unit_with("c0")
    compiler = CyclingFailCompiler(["error: alpha", "error: beta"])
    replies = []
    for i in range(1, 5):
        replies += [f"analysis {i}", f"```\nc{i}\n```"]
    deps = EngineDeps(llm=ScriptedLLM(replies), compiler=compiler, runner=PassRunner(unit.test_suite))
    run_repair_loop(unit, RepairConfig(max_iterations=5), deps)
    assert unit.status is UnitStatus.BUDGET_EXHAUSTED
    assert compiler.calls == 5
    assert len(unit.candidates) == 5
    signatures = [rec.error_signature for rec in unit.candidates]
    assert all(a != b for a, b in zip(signatures, signatures[1:]))


def test_fail_fail_success_accepted_at_k2():
    unit = unit_with("c0")
    compiler = TableCompiler(
        {"c0": (False, "error: alpha"), "c1": (False, "error: beta"), "c2": (True, "")}
    )
    deps = EngineDeps(
        llm=ScriptedLLM(["g1", "```\nc1\n```", "g2", "```\nc2\n```"]),
        compiler=compiler,
        runner=PassRunner(unit.test_suite),
    )
    run_repair_loop(unit, RepairConfig(max_iterations=5), deps)
    assert unit.status is UnitStatus.ACCEPTED
    assert [it["k"] for it in unit_to_trace(unit)["iterations"]] == [0, 1, 2]
    assert [rec.branch for rec in unit.candidates] == [
        Branch.INITIAL,
        Branch.SELF_ANALYSIS,
        Branch.SELF_ANALYSIS,
    ]
    assert compiler.calls == 3


def test_rag_branch_taken_when_similar_case_above_threshold():
    unit = unit_with("c0")
    diagnostics = "error: undefined symbol frob"
    repo = Repository([high_similarity_case(diagnostics, "c0")])
    compiler = TableCompiler({"c0": (False, diagnostics), "c1": (True, "")})
    llm = ScriptedLLM(["```\nc1\n```"])
    deps = EngineDeps(llm=llm, compiler=compiler, runner=PassRunner(unit.test_suite), repo=repo)
    run_repair_loop(unit, RepairConfig(max_iterations=5), deps)
    assert unit.status is UnitStatus.ACCEPTED
    assert unit.candidates[1].branch is Branch.RAG_REPAIR
    assert unit.candidates[1].guidance is None
    assert "replace the bad declaration" in llm.prompts[0]


def test_self_analysis_when_no_repo_or_low_score():
    unit = unit_with("c0")
    compiler = TableCompiler({"c0": (False, "error: gamma"), "c1": (True, "")})
    llm = ScriptedLLM(["the analysis", "```\nc1\n```"])
    deps = EngineDeps(llm=llm, compiler=compiler, runner=PassRunner(unit.test_suite), repo=None)
    run_repair_loop(unit, RepairConfig(max_iterations=5), deps)
    assert unit.candidates[1].branch is Branch.SELF_ANALYSIS
    assert unit.candidates[1].guidance == "the analysis"
    assert len(llm.prompts) == 2
    assert "the analysis" in llm.prompts[1]


@pytest.mark.parametrize("repo", [None, Repository()], ids=["no-repo", "empty-repo"])
def test_threshold_zero_without_retrieved_cases_takes_self_analysis(repo):
    unit = unit_with("c0")
    compiler = TableCompiler({"c0": (False, "error: gamma"), "c1": (False, "error: delta"), "c2": (True, "")})
    llm = ScriptedLLM(["first analysis", "```\nc1\n```", "second analysis", "```\nc2\n```"])
    deps = EngineDeps(llm=llm, compiler=compiler, runner=PassRunner(unit.test_suite), repo=repo)
    run_repair_loop(unit, RepairConfig(threshold=0.0, max_iterations=5), deps)
    assert unit.status is UnitStatus.ACCEPTED
    assert [rec.branch for rec in unit.candidates] == [Branch.INITIAL, Branch.SELF_ANALYSIS, Branch.SELF_ANALYSIS]


def test_test_failures_route_to_test_repair_with_discrepancies_in_prompt():
    tests = [TestCase("1\n", "2\n"), TestCase("5\n", "6\n")]
    unit = unit_with("c0", tests)
    compiler = TableCompiler({"c0": (True, ""), "c1": (True, "")})
    runner = TableRunner(
        {
            ("c0", "1\n"): "2\n",
            ("c0", "5\n"): "99\n",  # wrong
            ("c1", "1\n"): "2\n",
            ("c1", "5\n"): "6\n",
        }
    )
    llm = ScriptedLLM(["root cause", "```\nc1\n```"])
    deps = EngineDeps(llm=llm, compiler=compiler, runner=runner)
    run_repair_loop(unit, RepairConfig(max_iterations=5), deps)
    assert unit.status is UnitStatus.ACCEPTED
    assert unit.candidates[0].test_result is TestResult.FAIL
    assert unit.candidates[1].branch is Branch.TEST_REPAIR
    guidance_prompt = llm.prompts[0]
    assert '"5\\n"' in guidance_prompt and '"99\\n"' in guidance_prompt
    assert unit.candidates[0].failed_tests == [{"input": "5\n", "expected": "6\n", "actual": "99\n"}]


def test_timeout_counts_as_test_failure():
    class TimeoutRunner:
        def run(self, artifact, stdin_text):
            return RunOutcome("", True)

    unit = unit_with("c0")
    deps = EngineDeps(
        llm=ScriptedLLM(["g", "```\nc1\n```"]),
        compiler=TableCompiler({"c0": (True, ""), "c1": (False, "error: x")}),
        runner=TimeoutRunner(),
    )
    run_repair_loop(unit, RepairConfig(max_iterations=2), deps)
    assert unit.candidates[0].test_result is TestResult.FAIL
    assert unit.candidates[0].failed_tests[0]["actual"] == "<timeout>"


@pytest.mark.parametrize("branch", ["rag_repair", "self_analysis", "test_repair"])
def test_empty_repair_reply_raises_and_does_not_advance(branch):
    unit = unit_with("c0")
    if branch == "rag_repair":  # a repository case above the threshold; one prompt, no guidance
        deps = EngineDeps(
            llm=ScriptedLLM(["   "]),
            compiler=TableCompiler({"c0": (False, "error: x")}),
            runner=PassRunner(unit.test_suite),
            repo=Repository([high_similarity_case("error: x", "c0")]),
        )
    elif branch == "self_analysis":
        deps = EngineDeps(
            llm=ScriptedLLM(["guidance", "   "]),
            compiler=TableCompiler({"c0": (False, "error: x")}),
            runner=PassRunner(unit.test_suite),
        )
    else:
        deps = EngineDeps(
            llm=ScriptedLLM(["guidance", "   "]),
            compiler=TableCompiler({"c0": (True, "")}),
            runner=TableRunner({("c0", "1\n"): "3\n"}),
        )
    what = "rag repair" if branch == "rag_repair" else "self-analysis repair"
    with pytest.raises(EmptyCodeError, match=f"^{what} yielded no code$"):
        run_repair_loop(unit, RepairConfig(max_iterations=5), deps)
    assert deps.llm.replies == []
    assert len(unit.candidates) == 1
    assert unit.status is UnitStatus.PENDING


def test_toolchain_error_propagates_distinct_from_compile_failure():
    class BrokenCompiler:
        def compile(self, source):
            raise ToolchainError("compiler binary missing")

    unit = unit_with("c0")
    deps = EngineDeps(llm=ScriptedLLM([]), compiler=BrokenCompiler(), runner=PassRunner([]))
    with pytest.raises(ToolchainError):
        run_repair_loop(unit, RepairConfig(), deps)


def test_loop_requires_initial_candidate_and_pending_status():
    bare = TranslationUnit(java_source="class A {}", test_suite=[])
    deps = EngineDeps(llm=ScriptedLLM([]), compiler=None, runner=None)
    with pytest.raises(ValueError):
        run_repair_loop(bare, RepairConfig(), deps)
    done = unit_with("c0")
    done.status = UnitStatus.ACCEPTED
    with pytest.raises(ValueError):
        run_repair_loop(done, RepairConfig(), deps)


def test_adversarial_random_mocks_always_terminate_within_budget():
    rng = random.Random(1234)

    class ChaosCompiler:
        def compile(self, source):
            ok = rng.random() < 0.3
            return CompileOutcome(ok, "" if ok else f"error: {rng.choice('abcde')}", "artifact")

    class ChaosRunner:
        def run(self, artifact, stdin_text):
            return RunOutcome(rng.choice(["2\n", "nope\n"]), False)

    class ChaosLLM:
        def __init__(self):
            self.n = 0

        def complete(self, prompt, cfg=DecodingConfig()):
            self.n += 1
            return f"```\ncandidate-{rng.randint(0, 3)}-{self.n}\n```"

    for trial in range(60):
        max_iterations = rng.randint(1, 6)
        unit = unit_with("c0", unit_id=f"t{trial}")
        deps = EngineDeps(llm=ChaosLLM(), compiler=ChaosCompiler(), runner=ChaosRunner())
        run_repair_loop(unit, RepairConfig(max_iterations=max_iterations), deps)
        assert unit.status is not UnitStatus.PENDING
        assert len(unit.candidates) <= max_iterations
        if unit.status is UnitStatus.ACCEPTED:
            final = unit.candidates[-1]
            assert final.compile_status is CompileStatus.SUCCESS
            assert final.test_result is TestResult.PASS
        if unit.status is UnitStatus.STAGNATED:
            assert unit.candidates[-1].error_signature == unit.candidates[-2].error_signature


# --- repair_step and harvesting ---------------------------------------------------------

def test_rag_repair_embeds_cases_in_rank_order():
    cases = [
        RepairCase(f"c{i}", (), f"error {i}", f"suggestion {i}", f"bad {i}", f"good {i}")
        for i in range(3)
    ]
    llm = ScriptedLLM(["```\nfixed\n```"])
    slots = {"errors": "error: boom", "cases": format_cases(cases), "candidate": "broken"}
    record = repair_step(Branch.RAG_REPAIR, slots, llm)
    assert (record.candidate, record.branch, record.guidance) == ("fixed", Branch.RAG_REPAIR, None)
    (exchange,) = record.exchanges
    prompt = exchange["prompt"]
    positions = [prompt.index(f"suggestion {i}") for i in range(3)]
    assert positions == sorted(positions)
    assert prompt == RAG_REPAIR_TEMPLATE.render(slots)


REPAIR_INPUTS = {
    "java": "class A { }",
    "candidate": "main() { broken }",
    "errors": "error: undefined symbol 'x'",
    "cases": "Case 1:\nError: e\nSuggestion: s\nFaulty fragment:\nf\nCorrected code:\nc",
    "failures": '- input="1" expected="2" actual="3"',
}


def _explicit_prompts(branch: Branch, guidance: str) -> list[str]:
    """``branch``'s prompts, each rendered with exactly the slots it takes, spelled out."""
    java, candidate, errors, cases, failures = REPAIR_INPUTS.values()
    if branch is Branch.RAG_REPAIR:
        return [RAG_REPAIR_TEMPLATE.render({"errors": errors, "cases": cases, "candidate": candidate})]
    if branch is Branch.SELF_ANALYSIS:
        slots = {"java": java, "candidate": candidate, "errors": errors}
        guidance_template, code_template = REPAIR_GUIDANCE_COMPILE_TEMPLATE, REPAIR_APPLY_COMPILE_TEMPLATE
    else:
        slots = {"java": java, "candidate": candidate, "failures": failures}
        guidance_template, code_template = REPAIR_GUIDANCE_TEST_TEMPLATE, REPAIR_APPLY_TEST_TEMPLATE
    return [guidance_template.render(slots), code_template.render({**slots, "guidance": guidance})]


@pytest.mark.parametrize("branch", [Branch.RAG_REPAIR, Branch.SELF_ANALYSIS, Branch.TEST_REPAIR])
def test_repair_step_takes_one_inputs_dict_for_every_branch(branch):
    """Every branch gets all five inputs; each of its templates renders only the ones it names."""
    replies = ["```\nfixed\n```"] if branch is Branch.RAG_REPAIR else ["the advice", "```\nfixed\n```"]
    llm = ScriptedLLM(replies)
    record = repair_step(branch, dict(REPAIR_INPUTS), llm)
    assert llm.prompts == _explicit_prompts(branch, "the advice")
    assert [e["prompt"] for e in record.exchanges] == llm.prompts
    assert (record.branch, record.candidate) == (branch, "fixed")


def test_harvest_only_self_analysis_compile_fixes():
    unit = unit_with("c0", unit_id="unitA")
    diagnostics_a = "error: undefined symbol frob"
    repo = Repository([high_similarity_case("error: totally different words", "zzz")])
    compiler = TableCompiler(
        {
            "c0": (False, diagnostics_a),  # self-analysis (low score)
            "c1": (False, "error: undefined symbol frob again and again"),  # rag? low score again
            "c2": (True, ""),
        }
    )
    # Force branch sequence: self-analysis (fails again), self-analysis (succeeds).
    llm = ScriptedLLM(["g1", "```\nc1\n```", "g2", "```\nc2\n```"])
    deps = EngineDeps(llm=llm, compiler=compiler, runner=PassRunner(unit.test_suite), repo=repo)
    run_repair_loop(unit, RepairConfig(max_iterations=5, threshold=0.95), deps)
    assert unit.status is UnitStatus.ACCEPTED
    cases = harvest_cases(unit)
    assert len(cases) == 1
    case = cases[0]
    assert case.error_info == "error: undefined symbol frob again and again"
    assert case.faulty_fragment == "c1"
    assert case.corrected_code == "c2"
    assert case.repair_suggestion == "g2"
    assert case.id == "unitA-k2"


def test_harvest_none_for_k0_accept_and_rag_only_fixes():
    unit = unit_with("good")
    deps = EngineDeps(
        llm=ScriptedLLM([]),
        compiler=TableCompiler({"good": (True, "")}),
        runner=PassRunner(unit.test_suite),
    )
    run_repair_loop(unit, RepairConfig(), deps)
    assert harvest_cases(unit) == []

    rag_unit = unit_with("c0", unit_id="ragged")
    diagnostics = "error: undefined symbol frob"
    repo = Repository([high_similarity_case(diagnostics, "c0")])
    deps = EngineDeps(
        llm=ScriptedLLM(["```\nc1\n```"]),
        compiler=TableCompiler({"c0": (False, diagnostics), "c1": (True, "")}),
        runner=PassRunner(rag_unit.test_suite),
        repo=repo,
    )
    run_repair_loop(rag_unit, RepairConfig(max_iterations=5), deps)
    assert rag_unit.status is UnitStatus.ACCEPTED
    assert rag_unit.candidates[1].branch is Branch.RAG_REPAIR
    assert harvest_cases(rag_unit) == []


def test_harvest_requires_accepted_unit():
    unit = unit_with("c0")
    with pytest.raises(ValueError):
        harvest_cases(unit)


def test_trace_serialization_is_stable_and_redactable():
    unit = unit_with("good", unit_id="t")
    exchange = {"prompt": "the prompt", "reply": "the reply"}
    unit.candidates[0].exchanges.append(exchange)
    deps = EngineDeps(
        llm=ScriptedLLM([]),
        compiler=TableCompiler({"good": (True, "")}),
        runner=PassRunner(unit.test_suite),
    )
    run_repair_loop(unit, RepairConfig(), deps)
    trace = unit_to_trace(unit)
    assert trace["status"] == "accepted"
    assert trace["iterations"][0]["k"] == 0
    redacted = unit_to_trace(unit, redact=True)
    digests = {"prompt_digest": text_digest("the prompt"), "reply_digest": text_digest("the reply")}
    assert redacted["iterations"][0]["exchanges"] == [digests]
    assert unit.candidates[0].exchanges == [exchange]  # redaction leaves the record as it was
