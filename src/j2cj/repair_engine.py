"""Iterative error repair: translate, compile, test, repair until done.

Each iteration evaluates one candidate (compile, then tests only on compile
success) and either accepts it, stops on a stagnating error signature or an
exhausted iteration budget, or produces the next candidate through one of
three repair branches: retrieval-augmented repair when a sufficiently
similar stored case exists, two-step self-analysis repair on compile errors
otherwise, and two-step self-analysis on test failures.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass, field

from .ast_summary import DEFAULT_RETAINED_CATEGORIES, render_structured_prompt, structure_tokens

# Unused here: the benchmark's tracer (bench/spans.py) still wraps these two
# names in this module until it looks them up elsewhere (ROADMAP item 5).
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
    retrieve,
)

class RepairEngineError(RuntimeError):
    pass


class EmptyCodeError(RepairEngineError):
    """A repair or translation completion yielded no code."""


class CompileStatus(enum.Enum):
    SUCCESS = "success"
    FAIL = "fail"


class TestResult(enum.Enum):
    PASS = "pass"
    FAIL = "fail"
    NOT_RUN = "not_run"


class Branch(enum.Enum):
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
    """Evaluation of one candidate plus how the candidate was produced."""

    k: int
    candidate: str
    branch: Branch
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

_HEX_RE = re.compile(r"0x[0-9a-fA-F]+")
_PATHLIKE_RE = re.compile(r"\S*[/\\]\S*")
_LINECOL_RE = re.compile(r"\b\d+:\d+\b|\b(?:line|col(?:umn)?)\s*\d+\b", re.I)
_WS_RE = re.compile(r"\s+")


def normalize_signature(diagnostics: str) -> str:
    """Diagnostics with paths, line/column numbers and hex addresses removed,
    lowercased and whitespace-collapsed: the loop's stagnation key."""
    text = _HEX_RE.sub(" ", diagnostics)
    text = _LINECOL_RE.sub(" ", text)
    text = _PATHLIKE_RE.sub(" ", text)
    return _WS_RE.sub(" ", text.lower()).strip()


def normalize_output(text: str) -> str:
    """Trailing-whitespace and final-newline normalization for test outputs."""
    lines = [line.rstrip() for line in text.split("\n")]
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines)


def _record_signature(rec: IterationRecord) -> str:
    if rec.compile_status is CompileStatus.FAIL:
        return "compile|" + normalize_signature(rec.diagnostics)
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
    return IterationRecord(
        k=0,
        candidate=candidate,
        branch=Branch.INITIAL,
        exchanges=[exchange],
    )


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
    lines = []
    for f in failed_tests:
        lines.append(
            f"- input={json.dumps(f['input'], ensure_ascii=False)} "
            f"expected={json.dumps(f['expected'], ensure_ascii=False)} "
            f"actual={json.dumps(f['actual'], ensure_ascii=False)}"
        )
    return "\n".join(lines)


def format_cases(cases: list[RepairCase]) -> str:
    blocks = []
    for rank, case in enumerate(cases, 1):
        blocks.append(
            f"Case {rank}:\n"
            f"Error: {case.error_info}\n"
            f"Suggestion: {case.repair_suggestion}\n"
            f"Faulty fragment:\n{case.faulty_fragment}\n"
            f"Corrected code:\n{case.corrected_code}"
        )
    return "\n\n".join(blocks)


# Each two-step branch: its guidance template, its apply template and the
# slot that carries its evidence (compile errors or failed tests).
_TWO_STEP = {
    Branch.SELF_ANALYSIS: (REPAIR_GUIDANCE_COMPILE_TEMPLATE, REPAIR_APPLY_COMPILE_TEMPLATE, "errors"),
    Branch.TEST_REPAIR: (REPAIR_GUIDANCE_TEST_TEMPLATE, REPAIR_APPLY_TEST_TEMPLATE, "failures"),
}


def self_analysis_repair(
    java_source: str,
    candidate: str,
    errors_text: str,
    llm,
    branch: Branch = Branch.SELF_ANALYSIS,
) -> tuple[str, str, list[dict]]:
    """Two-step repair: generate guidance, then code conditioned on it.

    ``branch`` is SELF_ANALYSIS (compile errors) or TEST_REPAIR (failed tests).
    Returns (guidance, new_candidate, exchanges).
    """
    if not errors_text.strip():
        raise ValueError("at least one error must be present")
    guidance_template, apply_template, slot = _TWO_STEP[branch]
    slots = {"java": java_source, "candidate": candidate, slot: errors_text}
    guidance_prompt = guidance_template.render(slots)
    guidance = llm.complete(guidance_prompt)
    new_candidate, applied = _code_reply(
        apply_template.render({**slots, "guidance": guidance}), llm, "self-analysis repair"
    )
    return guidance, new_candidate, [{"prompt": guidance_prompt, "reply": guidance}, applied]


def rag_repair(
    candidate: str,
    diagnostics: str,
    retrieved: list[RepairCase],
    llm,
) -> tuple[str, list[dict]]:
    """Single-completion repair guided by retrieved cases, in rank order."""
    if not retrieved:
        raise ValueError("rag repair requires at least one retrieved case")
    prompt = RAG_REPAIR_TEMPLATE.render(
        {"errors": diagnostics, "cases": format_cases(retrieved), "candidate": candidate}
    )
    new_candidate, exchange = _code_reply(prompt, llm, "rag repair")
    return new_candidate, [exchange]


def run_repair_loop(unit: TranslationUnit, cfg: RepairConfig, deps: EngineDeps) -> TranslationUnit:
    """Drive the unit to a terminal status within cfg.max_iterations.

    One iteration = one candidate evaluation (compile, then tests on compile
    success). Stagnation is two consecutive identical error signatures; the
    budget bounds the number of evaluated candidates, so no candidate is ever
    produced that cannot be evaluated.
    """
    if not unit.candidates:
        raise ValueError("unit has no initial candidate; translate first")
    if unit.status is not UnitStatus.PENDING:
        raise ValueError(f"unit already has terminal status {unit.status.value}")

    prev_signature: str | None = None
    k = 0
    while True:
        rec = unit.candidates[k]
        outcome = deps.compiler.compile(rec.candidate)
        rec.compile_status = CompileStatus.SUCCESS if outcome.ok else CompileStatus.FAIL
        rec.diagnostics = outcome.diagnostics

        if outcome.ok:
            failed = []
            for tc in unit.test_suite:
                result = deps.runner.run(outcome.artifact, tc.input)
                if result.timed_out:
                    failed.append(
                        {"input": tc.input, "expected": tc.expected_output, "actual": "<timeout>"}
                    )
                elif normalize_output(result.output) != normalize_output(tc.expected_output):
                    failed.append(
                        {"input": tc.input, "expected": tc.expected_output, "actual": result.output}
                    )
            rec.failed_tests = failed
            rec.test_result = TestResult.PASS if not failed else TestResult.FAIL
        else:
            rec.test_result = TestResult.NOT_RUN

        # A failed candidate ends the loop on a repeated error signature or
        # a spent budget before any retrieval is paid for.
        if rec.test_result is not TestResult.PASS:
            rec.error_signature = _record_signature(rec)
            if rec.error_signature == prev_signature:
                unit.status = UnitStatus.STAGNATED
                return unit
            prev_signature = rec.error_signature
            if k + 1 >= cfg.max_iterations:
                unit.status = UnitStatus.BUDGET_EXHAUSTED
                return unit

        diagnostics = rec.diagnostics if rec.diagnostics.strip() else "<no diagnostics>"
        ranked = []
        top_score = None
        if rec.compile_status is CompileStatus.FAIL and deps.repo is not None and len(deps.repo) > 0:
            ranked = retrieve(
                ErrorQuery(diagnostics, rec.candidate, extract_error_tags(diagnostics)),
                deps.repo,
                cfg.rag_top_k,
                cfg.weights,
            )
            top_score = ranked[0][1].total

        branch = select_branch(rec.compile_status, rec.test_result, top_score, cfg.threshold)
        if branch is None:
            unit.status = UnitStatus.ACCEPTED
            return unit
        guidance = None
        if branch is Branch.RAG_REPAIR:
            candidate, exchanges = rag_repair(rec.candidate, diagnostics, [case for case, _ in ranked], deps.llm)
        else:
            evidence = diagnostics if branch is Branch.SELF_ANALYSIS else format_failures(rec.failed_tests)
            guidance, candidate, exchanges = self_analysis_repair(
                unit.java_source, rec.candidate, evidence, deps.llm, branch
            )

        unit.candidates.append(
            IterationRecord(
                k=k + 1,
                candidate=candidate,
                branch=branch,
                guidance=guidance,
                exchanges=exchanges,
            )
        )
        k += 1


def harvest_cases(unit: TranslationUnit) -> list[RepairCase]:
    """Repair cases from compile-fail -> compile-success transitions fixed
    by self-analysis. Only accepted units are harvested."""
    if unit.status is not UnitStatus.ACCEPTED:
        raise ValueError("only accepted units are harvested")
    cases = []
    for rec, nxt in zip(unit.candidates, unit.candidates[1:]):
        if (
            rec.compile_status is CompileStatus.FAIL
            and nxt.branch is Branch.SELF_ANALYSIS
            and nxt.compile_status is CompileStatus.SUCCESS
            and rec.diagnostics.strip()
        ):
            prefix = unit.unit_id or "unit"
            cases.append(
                RepairCase(
                    id=f"{prefix}-k{nxt.k}",
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
    exchanges = [
        {"prompt_digest": text_digest(e["prompt"]), "reply_digest": text_digest(e["reply"])}
        if redact
        else {"prompt": e["prompt"], "reply": e["reply"]}
        for e in rec.exchanges
    ]
    return {
        "k": rec.k,
        "branch": rec.branch.value,
        "candidate": rec.candidate,
        "compile_status": rec.compile_status.value if rec.compile_status else None,
        "diagnostics": rec.diagnostics,
        "test_result": rec.test_result.value,
        "failed_tests": rec.failed_tests,
        "guidance": rec.guidance,
        "error_signature": rec.error_signature,
        "exchanges": exchanges,
    }


def unit_to_trace(unit: TranslationUnit, redact: bool = False) -> dict:
    return {
        "unit_id": unit.unit_id,
        "status": unit.status.value,
        "java_source": unit.java_source,
        "test_count": len(unit.test_suite),
        "iterations": [record_to_dict(rec, redact) for rec in unit.candidates],
    }


def write_trace(unit: TranslationUnit, path, redact: bool = False) -> None:
    trace = json.dumps(unit_to_trace(unit, redact), ensure_ascii=False, indent=2)
    with atomic_write(path) as fh:
        fh.write(trace + "\n")
