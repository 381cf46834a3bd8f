"""Acceptance criteria, one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the criterion lines.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from scripted_suite import run_suite
from support import query_from_case, transcript_of

from j2cj.adapters import CompileOutcome, RunOutcome
from j2cj.ast_summary import DEFAULT_RETAINED_CATEGORIES, summarize
from j2cj.corpus import build_corpus
from j2cj.javaparse import parse
from j2cj.llm import DOC_RECONSTRUCTION_TEMPLATE, DecodingConfig, MockBackend
from j2cj.metrics import bleu, cfe, csr, percent
from j2cj.repair_engine import (
    Branch,
    CompileStatus,
    EngineDeps,
    IterationRecord,
    RepairConfig,
    TestCase,
    TestResult,
    TranslationUnit,
    UnitStatus,
    harvest_cases,
    run_repair_loop,
    select_branch,
    write_trace,
)
from j2cj.repair_repo import (
    ErrorQuery,
    RepairCase,
    Repository,
    SimilarityWeights,
    retrieve,
    similarity,
)

GOLDEN_DIR = Path(__file__).parent / "data" / "golden"
UNIFORM = SimilarityWeights.uniform()


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {name}")
        raise
    print(f"[PASS] criterion {number}: {name}")


# --- 1: metric identity ------------------------------------------------------------

def test_criterion_1_metric_identity():
    with criterion(1, "metric identity fe = csr * cfe and Table-1 display"):
        started = time.perf_counter()
        rng = random.Random(1)
        for _ in range(1000):
            n_total = rng.randint(1, 500)
            n_compiled = rng.randint(0, n_total)
            n_cf = rng.randint(0, n_compiled)
            left = Fraction(n_cf, n_total)
            if n_compiled > 0:
                assert left == csr(n_compiled, n_total) * cfe(n_cf, n_compiled)
            else:
                assert n_cf == 0
        assert percent(Fraction(105, 165)) == "63.64"
        assert percent(Fraction(118, 165)) == "71.52"
        assert percent(Fraction(105, 118)) == "88.98"
        assert abs(float(Fraction(105, 165)) * 100 - 63.64) < 0.01
        assert abs(float(Fraction(118, 165)) * 100 - 71.52) < 0.01
        assert abs(float(Fraction(105, 118)) * 100 - 88.98) < 0.01
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"


# --- 2: retrieval oracle ------------------------------------------------------------

_WORDS = "alpha beta gamma delta type mismatch undefined symbol missing brace value".split()
_FRAGS = [
    "if (x) { f(); }",
    "for (i in 0..9) { g(i); }",
    "while (ready()) { poll(); }",
    "let total = a + b",
    "func main() { print(1) }",
    "match (k) { case 1 => one() }",
    "",
]


def _random_case(rng: random.Random, case_id: str) -> RepairCase:
    error = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(3, 10)))
    faulty = rng.choice(_FRAGS)
    corrected = "fixed " + (faulty or "fragment")
    tags = tuple(rng.sample(["E1", "E2", "E3", "E4"], rng.randint(0, 2)))
    return RepairCase(case_id, tags, error, "adjust", faulty, corrected)


def test_criterion_2_retrieval_oracle():
    with criterion(2, "retrieval head equals brute-force argmax on 200 random repositories"):
        started = time.perf_counter()
        rng = random.Random(2)
        for _ in range(200):
            size = rng.randint(1, 100)
            cases = [_random_case(rng, f"case-{i:03d}") for i in range(size)]
            repo = Repository(cases)
            query = ErrorQuery(
                " ".join(rng.choice(_WORDS) for _ in range(rng.randint(3, 10))),
                rng.choice(_FRAGS) or "x",
                tuple(rng.sample(["E1", "E2"], rng.randint(0, 1))),
            )
            ranked = retrieve(query, repo, 5, UNIFORM)
            brute_best = max(similarity(query, c, UNIFORM).total for c in cases)
            assert ranked[0][1].total == brute_best
            for _, breakdown in ranked:
                assert 0.0 <= breakdown.total <= 1.0
                assert all(0.0 <= s <= 1.0 for s in breakdown.scores)
            probe = cases[rng.randrange(size)]
            self_total = similarity(query_from_case(probe), probe, UNIFORM).total
            assert abs(self_total - 1.0) <= 1e-12
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0, f"criterion 2 took {elapsed:.2f}s"


# --- 3: Algorithm-1 conformance -----------------------------------------------------

def test_criterion_3_algorithm_conformance(tmp_path):
    with criterion(3, "scripted suite drives all branches/statuses; traces match goldens"):
        started = time.perf_counter()
        units = run_suite()
        branches = [rec.branch for unit in units.values() for rec in unit.candidates]
        assert set(branches) == set(Branch)
        statuses = {unit.status for unit in units.values()}
        assert statuses == {UnitStatus.ACCEPTED, UnitStatus.STAGNATED, UnitStatus.BUDGET_EXHAUSTED}
        for unit_id, unit in units.items():
            fresh = tmp_path / f"{unit_id}.trace.json"
            write_trace(unit, fresh)
            golden = GOLDEN_DIR / f"{unit_id}.trace.json"
            assert fresh.read_bytes() == golden.read_bytes(), f"{unit_id} trace drifted"
        elapsed = time.perf_counter() - started
        assert elapsed < 10.0, f"criterion 3 took {elapsed:.2f}s"


# --- 4: stagnation and budget ---------------------------------------------------------

class _ConstantFailCompiler:
    def __init__(self):
        self.calls = 0

    def compile(self, source):
        self.calls += 1
        return CompileOutcome(False, "error: same diagnostic forever", "")


class _CyclingFailCompiler:
    def __init__(self):
        self.calls = 0

    def compile(self, source):
        diagnostics = ["error: alpha", "error: beta"][self.calls % 2]
        self.calls += 1
        return CompileOutcome(False, diagnostics, "")


class _CountingLLM:
    def __init__(self):
        self.n = 0

    def complete(self, prompt, cfg=DecodingConfig()):
        self.n += 1
        return f"```\ncandidate-{self.n}\n```"


def _fresh_unit() -> TranslationUnit:
    return TranslationUnit(
        java_source="class A {}",
        test_suite=[TestCase("1\n", "1\n")],
        candidates=[IterationRecord(candidate="c0", branch=Branch.INITIAL)],
        unit_id="adversarial",
    )


def test_criterion_4_stagnation_and_budget():
    with criterion(4, "constant diagnostics stop after 2 iterations, cycling after N_max"):
        constant = _ConstantFailCompiler()
        unit = _fresh_unit()
        run_repair_loop(
            unit,
            RepairConfig(max_iterations=5),
            EngineDeps(llm=_CountingLLM(), compiler=constant, runner=None),
        )
        assert unit.status is UnitStatus.STAGNATED
        assert constant.calls == 2
        assert len(unit.candidates) == 2

        for n_max in (1, 3, 5):
            cycling = _CyclingFailCompiler()
            unit = _fresh_unit()
            run_repair_loop(
                unit,
                RepairConfig(max_iterations=n_max),
                EngineDeps(llm=_CountingLLM(), compiler=cycling, runner=None),
            )
            assert unit.status is UnitStatus.BUDGET_EXHAUSTED
            assert cycling.calls == n_max
            assert len(unit.candidates) == n_max


# --- 5: AST summary golden set and fuzz -------------------------------------------------

def test_criterion_5_ast_summaries():
    with criterion(5, "hand-traced golden summaries and 1000-snippet fuzz without terminal leakage"):
        from test_ast_summary import GOLDEN, gen_snippet

        assert len(GOLDEN) >= 20
        for source, expected in GOLDEN:
            assert list(summarize(parse(source))) == expected, source
        rng = random.Random(5)
        for _ in range(1000):
            source = gen_snippet(rng)
            tree = parse(source)
            summary = summarize(tree, DEFAULT_RETAINED_CATEGORIES)
            terminal_categories = {n.category for n in tree.walk() if n.is_terminal}
            assert not terminal_categories & set(summary)


# --- 6: BLEU oracle -----------------------------------------------------------------------

def test_criterion_6_bleu_oracle():
    with criterion(6, "BLEU endpoints and the hand-computed 5-token example"):
        assert bleu("a b c d e", ["a b c d e"]) == 1.0
        assert bleu("aa bb cc dd", ["ee ff gg hh"]) == 0.0
        hand = float((Fraction(4, 5) * Fraction(3, 4) * Fraction(2, 3) * Fraction(1, 2)) ** Fraction(1, 4))
        assert abs(bleu("a b c d e", ["a b c d f"]) - hand) < 1e-6


# --- 7: dataset determinism and capacity ------------------------------------------------------

def test_criterion_7_dataset_determinism_and_capacity(tmp_path):
    with criterion(7, "122-chapter corpus reruns byte-identically; 217-case repository answers fast"):
        chapters_dir = tmp_path / "chapters"
        chapters_dir.mkdir()
        pairs = []
        for i in range(122):
            chapter = f"# Chapter {i}\nConstruct {i} with its usage rules."
            (chapters_dir / f"ch{i:03d}.md").write_text(chapter, encoding="utf-8")
            entry = {
                "id": f"entry-{i:03d}",
                "title": f"Construct {i}",
                "tags": ["syntax"],
                "typical_questions": [f"How is construct {i} used?"],
                "description": f"Rules for construct {i}.",
                "code_examples": [f"let v{i} = {i}"],
            }
            prompt = DOC_RECONSTRUCTION_TEMPLATE.render({"chapter": chapter})
            pairs.append((prompt, json.dumps([entry])))
        transcript = transcript_of(pairs)

        out_a, out_b = tmp_path / "out_a", tmp_path / "out_b"
        stats = build_corpus(chapters_dir, None, None, out_a, MockBackend(transcript))
        assert stats["chapters"] == 122
        assert stats["entries"] == 122
        build_corpus(chapters_dir, None, None, out_b, MockBackend(transcript))
        for name in ("cpt.jsonl", "syntax_entries.jsonl", "stats.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

        rng = random.Random(217)
        repo = Repository([_random_case(rng, f"case-{i:04d}") for i in range(217)])
        repo_path = tmp_path / "repo.jsonl"
        repo.save(repo_path)
        started = time.perf_counter()
        loaded = Repository.load(repo_path)
        ranked = retrieve(ErrorQuery("type mismatch on symbol", "let x = 1"), loaded, 3, UNIFORM)
        elapsed = time.perf_counter() - started
        assert len(loaded) == 217
        assert len(ranked) == 3
        assert elapsed < 1.0, f"load+top-3 took {elapsed:.3f}s"


# --- 8: threshold gating ------------------------------------------------------------------------

def test_criterion_8_threshold_gating():
    with criterion(8, "raising the threshold never adds RAG routings"):
        rng = random.Random(8)
        repo = Repository([_random_case(rng, f"case-{i:02d}") for i in range(20)])
        queries = []
        for _ in range(30):
            queries.append(
                ErrorQuery(
                    " ".join(rng.choice(_WORDS) for _ in range(rng.randint(3, 8))),
                    rng.choice(_FRAGS) or "x",
                )
            )
        top_scores = [retrieve(q, repo, 1, UNIFORM)[0][1].total for q in queries]
        counts = []
        # The engine retrieves with the threshold as its floor; at every
        # threshold, including each query's own top total, that routes as
        # the exact top total does.
        for tau in sorted({0.0, 0.25, 0.5, 0.75, 1.0, *top_scores}):
            branches = [select_branch(CompileStatus.FAIL, TestResult.NOT_RUN, score, tau) for score in top_scores]
            for k in (1, 3):
                floored = [retrieve(q, repo, k, UNIFORM, floor=tau)[0][1].total for q in queries]
                assert [
                    select_branch(CompileStatus.FAIL, TestResult.NOT_RUN, score, tau) for score in floored
                ] == branches, (tau, k)
            counts.append(branches.count(Branch.RAG_REPAIR))
        assert counts[0] == len(queries)  # every failure routes to RAG at tau=0
        assert counts == sorted(counts, reverse=True), counts


# --- 9: harvest soundness -------------------------------------------------------------------------

class _TableCompiler:
    def __init__(self, table):
        self.table = table

    def compile(self, source):
        ok, diagnostics = self.table[source]
        return CompileOutcome(ok, diagnostics, f"artifact:{source}")


class _TableRunner:
    def __init__(self, table):
        self.table = table

    def run(self, artifact, stdin_text):
        return RunOutcome(self.table[(artifact.removeprefix("artifact:"), stdin_text)], False)


class _ScriptedLLM:
    def __init__(self, replies):
        self.replies = list(replies)

    def complete(self, prompt, cfg=DecodingConfig()):
        return self.replies.pop(0)


def test_criterion_9_harvest_soundness(tmp_path):
    with criterion(9, "exactly one repair case harvested from a run with one self-analysis fix and one RAG fix"):
        # c0 fails with an error matched by the repository -> RAG fixes the
        # compile (not harvested); the repaired code fails its test -> test
        # repair produces non-compiling code; self-analysis fixes the compile
        # -> harvested.
        diag_rag = "error: undefined symbol quux in expression"
        diag_self = "error: missing brace at end of block"
        repo = Repository(
            [RepairCase("seed", (), diag_rag, "define quux first", "c0", "c1-corrected")]
        )
        compiler = _TableCompiler(
            {
                "c0": (False, diag_rag),
                "c1": (True, ""),
                "c2": (False, diag_self),
                "c3": (True, ""),
            }
        )
        runner = _TableRunner(
            {
                ("c1", "1\n"): "wrong\n",
                ("c3", "1\n"): "right\n",
            }
        )
        llm = _ScriptedLLM(
            [
                "```\nc1\n```",          # RAG repair
                "test analysis",          # test-repair guidance
                "```\nc2\n```",          # test-repair apply (breaks the build)
                "brace analysis",         # self-analysis guidance
                "```\nc3\n```",          # self-analysis apply (fixes the build)
            ]
        )
        unit = TranslationUnit(
            java_source="class H { static int f(int x) { return x; } }",
            test_suite=[TestCase("1\n", "right\n")],
            candidates=[IterationRecord(candidate="c0", branch=Branch.INITIAL)],
            unit_id="harvest-unit",
        )
        deps = EngineDeps(llm=llm, compiler=compiler, runner=runner, repo=repo)
        run_repair_loop(unit, RepairConfig(max_iterations=5), deps)
        assert unit.status is UnitStatus.ACCEPTED
        assert [rec.branch for rec in unit.candidates] == [
            Branch.INITIAL,
            Branch.RAG_REPAIR,
            Branch.TEST_REPAIR,
            Branch.SELF_ANALYSIS,
        ]

        harvested = harvest_cases(unit)
        assert len(harvested) == 1
        case = harvested[0]
        assert case.error_info == diag_self
        assert case.faulty_fragment == "c2"
        assert case.corrected_code == "c3"
        assert case.repair_suggestion == "brace analysis"

        store = Repository([case])
        path = tmp_path / "harvested.jsonl"
        store.save(path)
        assert Repository.load(path).cases() == store.cases()
