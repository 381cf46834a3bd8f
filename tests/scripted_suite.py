"""Deterministic scripted pipeline suite shared by the acceptance tests and
the golden-trace generator.

Three units exercise every select_branch outcome and every terminal status:

  unit_a: compile fail -> RAG repair -> compiles, tests fail -> test repair
          -> accepted   (branches: initial, rag_repair, test_repair)
  unit_b: compile fail -> self-analysis -> identical error signature
          -> stagnated  (branches: initial, self_analysis)
  unit_c: three distinct compile errors under max_iterations=3
          -> budget exhausted
"""

from j2cj.adapters import MockCompiler, MockRunner
from j2cj.llm import (
    RAG_REPAIR_TEMPLATE,
    REPAIR_APPLY_COMPILE_TEMPLATE,
    REPAIR_APPLY_TEST_TEMPLATE,
    REPAIR_GUIDANCE_COMPILE_TEMPLATE,
    REPAIR_GUIDANCE_TEST_TEMPLATE,
    MockBackend,
    Transcript,
)
from j2cj.repair_engine import (
    Branch,
    EngineDeps,
    IterationRecord,
    RepairConfig,
    TestCase,
    TranslationUnit,
    format_cases,
    format_failures,
    run_repair_loop,
)
from j2cj.repair_repo import (
    ErrorQuery,
    RepairCase,
    Repository,
    SimilarityWeights,
    extract_error_tags,
    retrieve,
)

JAVA_A = "class A { static int inc(int x) { return x + 1; } }"
JAVA_B = "class B { static int dbl(int x) { return x * 2; } }"
JAVA_C = "class C { static int same(int x) { return x; } }"

C0_A = "func inc(x: Int64): Int64 { x ++ 1 }"
C1_A = "func inc(x: Int64): Int64 { x + 2 }"
C2_A = "func inc(x: Int64): Int64 { x + 1 }"
DIAG_A = "error: undefined symbol 'plusplus' in operator position at inc.cj:1:29"

C0_B = "let doubled = input * 2\nprintln(doubled)"
C1_B = "let doubled = input + input\nprintln(doubled)"
DIAG_B1 = "error: type mismatch between Int32 and Int64 at dbl.cj:1:15"
DIAG_B2 = "error: type mismatch between Int32 and Int64 at dbl.cj:2:27"

C0_C = "print(identity)"
C1_C = "println(identity)"
C2_C = "println(identity())"
DIAG_C1 = "error: missing semicolon near 'print' at same.cj:1:6"
DIAG_C2 = "error: unexpected token ')' at same.cj:1:18"
DIAG_C3 = "error: missing return value at same.cj:1:1"

GUIDANCE_A_TEST = "The increment constant is wrong: add 1 instead of 2."
GUIDANCE_B = "Use an explicit Int64 conversion before multiplying."
GUIDANCE_C1 = "Terminate the print statement and call println."
GUIDANCE_C2 = "The identity value must be called as a function."

REPO_CASE = RepairCase(
    id="case-undef-op",
    error_tags=(),
    error_info=DIAG_A,
    repair_suggestion="Replace the invalid operator with a plain addition.",
    faulty_fragment=C0_A,
    corrected_code=C1_A,
)


def build_repository() -> Repository:
    return Repository([REPO_CASE])


def build_transcript(repo: Repository, cfg: RepairConfig) -> Transcript:
    """Prompts exactly as the engine renders them, mapped to scripted replies."""
    transcript = Transcript()

    # unit_a: RAG repair on DIAG_A, then test repair on the wrong output.
    ranked = retrieve(
        ErrorQuery(DIAG_A, C0_A, extract_error_tags(DIAG_A)), repo, cfg.rag_top_k, cfg.weights
    )
    rag_prompt = RAG_REPAIR_TEMPLATE.render(
        {"errors": DIAG_A, "cases": format_cases([case for case, _ in ranked]), "candidate": C0_A}
    )
    transcript.add(rag_prompt, f"```\n{C1_A}\n```")

    failures = format_failures([{"input": "1\n", "expected": "2\n", "actual": "3\n"}])
    guidance_prompt = REPAIR_GUIDANCE_TEST_TEMPLATE.render(
        {"java": JAVA_A, "candidate": C1_A, "failures": failures}
    )
    transcript.add(guidance_prompt, GUIDANCE_A_TEST)
    apply_prompt = REPAIR_APPLY_TEST_TEMPLATE.render(
        {"java": JAVA_A, "candidate": C1_A, "failures": failures, "guidance": GUIDANCE_A_TEST}
    )
    transcript.add(apply_prompt, f"```\n{C2_A}\n```")

    # unit_b: one self-analysis round; the retry hits the same signature.
    transcript.add(
        REPAIR_GUIDANCE_COMPILE_TEMPLATE.render(
            {"java": JAVA_B, "candidate": C0_B, "errors": DIAG_B1}
        ),
        GUIDANCE_B,
    )
    transcript.add(
        REPAIR_APPLY_COMPILE_TEMPLATE.render(
            {"java": JAVA_B, "candidate": C0_B, "errors": DIAG_B1, "guidance": GUIDANCE_B}
        ),
        f"```\n{C1_B}\n```",
    )

    # unit_c: two self-analysis rounds inside a budget of three.
    transcript.add(
        REPAIR_GUIDANCE_COMPILE_TEMPLATE.render(
            {"java": JAVA_C, "candidate": C0_C, "errors": DIAG_C1}
        ),
        GUIDANCE_C1,
    )
    transcript.add(
        REPAIR_APPLY_COMPILE_TEMPLATE.render(
            {"java": JAVA_C, "candidate": C0_C, "errors": DIAG_C1, "guidance": GUIDANCE_C1}
        ),
        f"```\n{C1_C}\n```",
    )
    transcript.add(
        REPAIR_GUIDANCE_COMPILE_TEMPLATE.render(
            {"java": JAVA_C, "candidate": C1_C, "errors": DIAG_C2}
        ),
        GUIDANCE_C2,
    )
    transcript.add(
        REPAIR_APPLY_COMPILE_TEMPLATE.render(
            {"java": JAVA_C, "candidate": C1_C, "errors": DIAG_C2, "guidance": GUIDANCE_C2}
        ),
        f"```\n{C2_C}\n```",
    )
    return transcript


def build_toolchain() -> tuple[MockCompiler, MockRunner]:
    compiler = MockCompiler({})
    compiler.add(C0_A, ok=False, diagnostics=DIAG_A)
    compiler.add(C1_A, ok=True)
    compiler.add(C2_A, ok=True)
    compiler.add(C0_B, ok=False, diagnostics=DIAG_B1)
    compiler.add(C1_B, ok=False, diagnostics=DIAG_B2)
    compiler.add(C0_C, ok=False, diagnostics=DIAG_C1)
    compiler.add(C1_C, ok=False, diagnostics=DIAG_C2)
    compiler.add(C2_C, ok=False, diagnostics=DIAG_C3)

    runner = MockRunner({})
    runner.add(C1_A, "1\n", "3\n")  # wrong output: forces the test-repair branch
    runner.add(C2_A, "1\n", "2\n")
    return compiler, runner


def _unit(unit_id: str, java: str, c0: str, tests: list[TestCase]) -> TranslationUnit:
    return TranslationUnit(
        java_source=java,
        test_suite=tests,
        candidates=[IterationRecord(candidate=c0, branch=Branch.INITIAL)],
        unit_id=unit_id,
    )


def run_suite() -> dict[str, TranslationUnit]:
    """Run the three scripted units to their terminal statuses."""
    repo = build_repository()
    cfg = RepairConfig(threshold=0.5, max_iterations=5, weights=SimilarityWeights.uniform())

    # Guard the scripted branch choices against similarity drift.
    top_a = retrieve(ErrorQuery(DIAG_A, C0_A, extract_error_tags(DIAG_A)), repo, 3, cfg.weights)
    assert top_a[0][1].total >= cfg.threshold, "unit_a must route to RAG repair"
    top_b = retrieve(ErrorQuery(DIAG_B1, C0_B, extract_error_tags(DIAG_B1)), repo, 3, cfg.weights)
    assert top_b[0][1].total < cfg.threshold, "unit_b must route to self-analysis"
    top_c = retrieve(ErrorQuery(DIAG_C1, C0_C, extract_error_tags(DIAG_C1)), repo, 3, cfg.weights)
    assert top_c[0][1].total < cfg.threshold, "unit_c must route to self-analysis"

    transcript = build_transcript(repo, cfg)
    compiler, runner = build_toolchain()
    llm = MockBackend(transcript)
    deps = EngineDeps(llm=llm, compiler=compiler, runner=runner, repo=repo)

    unit_a = _unit("unit_a", JAVA_A, C0_A, [TestCase("1\n", "2\n")])
    unit_b = _unit("unit_b", JAVA_B, C0_B, [TestCase("1\n", "2\n")])
    unit_c = _unit("unit_c", JAVA_C, C0_C, [TestCase("1\n", "1\n")])

    run_repair_loop(unit_a, cfg, deps)
    run_repair_loop(unit_b, cfg, deps)
    run_repair_loop(unit_c, RepairConfig(threshold=0.5, max_iterations=3, weights=cfg.weights), deps)
    return {"unit_a": unit_a, "unit_b": unit_b, "unit_c": unit_c}
