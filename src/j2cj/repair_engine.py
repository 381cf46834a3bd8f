"""Iterative error repair: translate, compile, test, repair until done.

Each iteration evaluates one candidate (compile, then tests only on compile
success) and either accepts it, stops on a stagnating error signature or an
exhausted iteration budget, or produces the next candidate through one of
three repair branches: retrieval-augmented repair when a sufficiently
similar stored case exists, two-step self-analysis repair on compile errors
otherwise, and two-step self-analysis on test failures. ``_REPAIRS`` holds
each branch's prompts, and ``repair_step`` runs any of them.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field

from .ast_summary import DEFAULT_RETAINED_CATEGORIES, render_structured_prompt, structure_tokens

# Unused here: the benchmark's tracer (bench/spans.py) still wraps these two
# names in this module until it looks them up elsewhere (ROADMAP item 3).
from .ast_summary import summarize  # noqa: F401
from .javaparse import parse  # noqa: F401
from .jsonl import atomic_write, text_digest
from .llm import (
    RAG_REPAIR_TEMPLATE,
    REPAIR_APPLY_COMPILE_TEMPLATE,
    REPAIR_APPLY_TEST_TEMPLATE,
    REPAIR_GUIDANCE_COMPILE_TEMPLATE,
    REPAIR_GUIDANCE_TEST_TEMPLATE,
    TRANSLATE_INSTRUCTION,
    extract_code_block,
)
from .repair_repo import (
    ErrorQuery,
    RepairCase,
    Repository,
    SimilarityWeights,
    extract_error_tags,
    normalize_diagnostic,
    retrieve,
)

class RepairEngineError(RuntimeError):
    pass


class EmptyCodeError(RepairEngineError):
    """A repair or translation completion yielded no code."""


class CompileStatus(str, enum.Enum):
    SUCCESS = "success"
    FAIL = "fail"


class TestResult(str, enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_RUN = "not_run"


class Branch(str, enum.Enum):
    INITIAL = "initial"
    RAG_REPAIR = "rag_repair"
    SELF_ANALYSIS = "self_analysis"
    TEST_REPAIR = "test_repair"


class UnitStatus(enum.Enum):
    PENDING = "pending"
    ACCEPTED = "accepted"
    STAGNATED = "stagnated"
    BUDGET_EXHAUSTED = "budget_exhausted"


@dataclass(frozen=True)
class TestCase:
    input: str
    expected_output: str


@dataclass
class IterationRecord:
    """Evaluation of one candidate plus how it was produced; its fields, in order, are a trace entry's."""

    branch: Branch
    candidate: str
    compile_status: CompileStatus | None = None
    diagnostics: str = ""
    test_result: TestResult = TestResult.NOT_RUN
    failed_tests: list[dict] = field(default_factory=list)
    guidance: str | None = None
    error_signature: str = ""
    exchanges: list[dict] = field(default_factory=list)


@dataclass
class TranslationUnit:
    java_source: str
    test_suite: list[TestCase]
    candidates: list[IterationRecord] = field(default_factory=list)
    status: UnitStatus = UnitStatus.PENDING
    unit_id: str = ""


@dataclass(frozen=True)
class RepairConfig:
    threshold: float = 0.5
    max_iterations: int = 5
    weights: SimilarityWeights = SimilarityWeights.uniform()
    rag_top_k: int = 3

    def __post_init__(self):
        if not (0.0 <= self.threshold <= 1.0):
            raise ValueError("threshold must be in [0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.rag_top_k < 1:
            raise ValueError("rag_top_k must be positive")


@dataclass
class EngineDeps:
    """Wired adapters for one repair run."""

    llm: object
    compiler: object
    runner: object
    repo: Repository | None = None


# --- normalization ----------------------------------------------------------

def normalize_output(text: str) -> str:
    """Trailing-whitespace and final-newline normalization for test outputs."""
    lines = [line.rstrip() for line in text.split("\n")]
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines)


def _record_signature(rec: IterationRecord) -> str:
    if rec.compile_status is CompileStatus.FAIL:
        return "compile|" + normalize_diagnostic(rec.diagnostics)
    parts = [
        f"{normalize_output(f['input'])}=>{normalize_output(f['actual'])}"
        for f in rec.failed_tests
    ]
    return "test|" + "|".join(parts)


# --- operations --------------------------------------------------------------

def _code_reply(prompt: str, llm, what: str) -> tuple[str, dict]:
    """The code in ``llm``'s reply to ``prompt``, and the exchange; no code raises EmptyCodeError."""
    reply = llm.complete(prompt)
    code = extract_code_block(reply).strip()
    if not code:
        raise EmptyCodeError(f"{what} yielded no code")
    return code, {"prompt": prompt, "reply": reply}


def translate(
    java_source: str,
    llm,
    retained: frozenset[str] = DEFAULT_RETAINED_CATEGORIES,
) -> IterationRecord:
    """Produce the initial candidate via the structure-conditioned prompt."""
    tokens = structure_tokens(java_source, retained)
    prompt = render_structured_prompt(tokens, java_source, TRANSLATE_INSTRUCTION)
    candidate, exchange = _code_reply(prompt, llm, "translation completion")
    return IterationRecord(Branch.INITIAL, candidate, exchanges=[exchange])


def select_branch(
    compile_status: CompileStatus,
    test_result: TestResult,
    top_score: float | None,
    threshold: float,
) -> Branch | None:
    """The branch that repairs one evaluated candidate, or None to accept it. A compile
    failure takes RAG repair only when a case was retrieved and its ``top_score`` reaches ``threshold``."""
    if compile_status is CompileStatus.FAIL:
        if top_score is not None and top_score >= threshold:
            return Branch.RAG_REPAIR
        return Branch.SELF_ANALYSIS
    if test_result is TestResult.PASS:
        return None
    if test_result is TestResult.FAIL:
        return Branch.TEST_REPAIR
    raise ValueError("tests must have run when compilation succeeded")


def format_failures(failed_tests: list[dict]) -> str:
    return "\n".join(
        f"- input={json.dumps(f['input'], ensure_ascii=False)} "
        f"expected={json.dumps(f['expected'], ensure_ascii=False)} "
        f"actual={json.dumps(f['actual'], ensure_ascii=False)}"
        for f in failed_tests
    )


def format_cases(cases: list[RepairCase]) -> str:
    return "\n\n".join(
        f"Case {rank}:\n"
        f"Error: {case.error_info}\n"
        f"Suggestion: {case.repair_suggestion}\n"
        f"Faulty fragment:\n{case.faulty_fragment}\n"
        f"Corrected code:\n{case.corrected_code}"
        for rank, case in enumerate(cases, 1)
    )


# Each repair branch: the template that asks for guidance (None: RAG repair
# asks for code at once), the template that asks for code, and the name an
# empty code reply is reported under.
_REPAIRS = {
    Branch.RAG_REPAIR: (None, RAG_REPAIR_TEMPLATE, "rag repair"),
    Branch.SELF_ANALYSIS: (REPAIR_GUIDANCE_COMPILE_TEMPLATE, REPAIR_APPLY_COMPILE_TEMPLATE, "self-analysis repair"),
    Branch.TEST_REPAIR: (REPAIR_GUIDANCE_TEST_TEMPLATE, REPAIR_APPLY_TEST_TEMPLATE, "self-analysis repair"),
}


def _render(template, inputs: dict[str, str]) -> str:
    """``template`` over the ``inputs`` it names; a slot that ``inputs`` lack raises TemplateError."""
    return template.render({slot: inputs[slot] for slot in template.required_slots & inputs.keys()})


def repair_step(branch: Branch, inputs: dict[str, str], llm) -> IterationRecord:
    """The next candidate from ``branch``'s prompts, each over the ``inputs`` its template names;
    a branch with a guidance template first asks for guidance, and its code prompt carries it."""
    guidance_template, code_template, what = _REPAIRS[branch]
    guidance = None
    exchanges = []
    if guidance_template is not None:
        prompt = _render(guidance_template, inputs)
        guidance = llm.complete(prompt)
        exchanges.append({"prompt": prompt, "reply": guidance})
        inputs = {**inputs, "guidance": guidance}
    candidate, exchange = _code_reply(_render(code_template, inputs), llm, what)
    return IterationRecord(branch, candidate, guidance=guidance, exchanges=[*exchanges, exchange])


def run_repair_loop(unit: TranslationUnit, cfg: RepairConfig, deps: EngineDeps) -> TranslationUnit:
    """Drive the unit to a terminal status within cfg.max_iterations.

    One iteration = one evaluation of the unit's last candidate (compile, then
    tests on compile success); ``unit.candidates`` is the loop's only state.
    Stagnation is two consecutive identical error signatures; the budget
    bounds the number of evaluated candidates, so no candidate is ever
    produced that cannot be evaluated.
    """
    if not unit.candidates:
        raise ValueError("unit has no initial candidate; translate first")
    if unit.status is not UnitStatus.PENDING:
        raise ValueError(f"unit already has terminal status {unit.status.value}")

    while True:
        rec = unit.candidates[-1]
        outcome = deps.compiler.compile(rec.candidate)
        rec.compile_status = CompileStatus.SUCCESS if outcome.ok else CompileStatus.FAIL
        rec.diagnostics = outcome.diagnostics

        if outcome.ok:
            rec.failed_tests = []
            for tc in unit.test_suite:
                result = deps.runner.run(outcome.artifact, tc.input)
                actual = "<timeout>" if result.timed_out else result.output
                if result.timed_out or normalize_output(actual) != normalize_output(tc.expected_output):
                    rec.failed_tests.append(
                        {"input": tc.input, "expected": tc.expected_output, "actual": actual}
                    )
            rec.test_result = TestResult.FAIL if rec.failed_tests else TestResult.PASS
        else:
            rec.test_result = TestResult.NOT_RUN

        # A failed candidate ends the loop on a repeated error signature or
        # a spent budget, in that order, before any retrieval is paid for.
        if rec.test_result is not TestResult.PASS:
            rec.error_signature = _record_signature(rec)
            if len(unit.candidates) > 1 and unit.candidates[-2].error_signature == rec.error_signature:
                unit.status = UnitStatus.STAGNATED
                return unit
            if len(unit.candidates) >= cfg.max_iterations:
                unit.status = UnitStatus.BUDGET_EXHAUSTED
                return unit

        diagnostics = rec.diagnostics if rec.diagnostics.strip() else "<no diagnostics>"
        ranked = []
        if rec.compile_status is CompileStatus.FAIL and deps.repo:
            query = ErrorQuery(diagnostics, rec.candidate)
            ranked = retrieve(query, deps.repo, cfg.rag_top_k, cfg.weights, floor=cfg.threshold)
        top_score = ranked[0][1].total if ranked else None
        branch = select_branch(rec.compile_status, rec.test_result, top_score, cfg.threshold)
        if branch is None:
            unit.status = UnitStatus.ACCEPTED
            return unit
        inputs = {
            "java": unit.java_source,
            "candidate": rec.candidate,
            "errors": diagnostics,
            "cases": format_cases([case for case, _ in ranked]),
            "failures": format_failures(rec.failed_tests),
        }
        unit.candidates.append(repair_step(branch, inputs, deps.llm))


def harvest_cases(unit: TranslationUnit) -> list[RepairCase]:
    """Repair cases from compile-fail -> compile-success transitions fixed
    by self-analysis. Only accepted units are harvested."""
    if unit.status is not UnitStatus.ACCEPTED:
        raise ValueError("only accepted units are harvested")
    cases = []
    for k, (rec, nxt) in enumerate(zip(unit.candidates, unit.candidates[1:]), 1):
        if (
            rec.compile_status is CompileStatus.FAIL
            and nxt.branch is Branch.SELF_ANALYSIS
            and nxt.compile_status is CompileStatus.SUCCESS
            and rec.diagnostics.strip()
        ):
            prefix = unit.unit_id or "unit"
            cases.append(
                RepairCase(
                    id=f"{prefix}-k{k}",
                    error_tags=extract_error_tags(rec.diagnostics),
                    error_info=rec.diagnostics,
                    repair_suggestion=nxt.guidance or "",
                    faulty_fragment=rec.candidate,
                    corrected_code=nxt.candidate,
                )
            )
    return cases


# --- trace serialization ------------------------------------------------------

def record_to_dict(rec: IterationRecord, redact: bool = False) -> dict:
    """The record's fields in declaration order; ``redact`` digests each exchange."""
    trace = dict(vars(rec))
    if redact:
        trace["exchanges"] = [
            {"prompt_digest": text_digest(e["prompt"]), "reply_digest": text_digest(e["reply"])} for e in rec.exchanges
        ]
    return trace


def unit_to_trace(unit: TranslationUnit, redact: bool = False) -> dict:
    return {
        "unit_id": unit.unit_id,
        "status": unit.status.value,
        "java_source": unit.java_source,
        "test_count": len(unit.test_suite),
        "iterations": [{"k": i, **record_to_dict(rec, redact)} for i, rec in enumerate(unit.candidates)],
    }


def write_trace(unit: TranslationUnit, path, redact: bool = False) -> None:
    trace = json.dumps(unit_to_trace(unit, redact), ensure_ascii=False, indent=2)
    with atomic_write(path) as fh:
        fh.write(trace + "\n")
