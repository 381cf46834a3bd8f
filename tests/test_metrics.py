"""Metric oracles: exact rational identities and the hand-computed BLEU case."""

import json
import math
import random
import re
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from j2cj.metrics import (
    BLEU_MAX_ORDER,
    EvalReport,
    UnitOutcome,
    _bleu_from_stats,
    _pair_stats,
    bleu,
    cfe,
    corpus_bleu,
    csr,
    evaluate,
    percent,
    read_report,
    render_table,
    report_record,
    score,
    tokenize_code,
    write_report,
)

# Hand evaluation of the BLEU formula for "a b c d e" vs "a b c d f":
# modified precisions 4/5, 3/4, 2/3, 1/2; geometric mean; brevity penalty 1.
HAND_BLEU = (Fraction(4, 5) * Fraction(3, 4) * Fraction(2, 3) * Fraction(1, 2)) ** Fraction(1, 4)


def test_csr_examples():
    assert csr(100, 100) == 1
    assert csr(0, 100) == 0
    assert float(csr(118, 165)) == pytest.approx(0.7152, abs=5e-5)
    assert percent(csr(118, 165)) == "71.52"
    with pytest.raises(ValueError):
        csr(1, 0)
    with pytest.raises(ValueError):
        csr(5, 4)


def test_cfe_examples():
    assert float(cfe(105, 118)) == pytest.approx(0.8898, abs=5e-5)
    assert percent(cfe(105, 118)) == "88.98"
    assert cfe(0, 50) == 0
    assert cfe(50, 50) == 1
    assert cfe(0, 0) == 0  # undefined case reported as zero
    with pytest.raises(ValueError):
        cfe(5, 4)


def _outcomes(n_total: int, n_compiled: int, n_cf: int) -> list[UnitOutcome]:
    outcomes = []
    for i in range(n_total):
        compiled = i < n_compiled
        passed = i < n_cf
        outcomes.append(score(f"u{i}", compiled, passed, "x", "x"))
    return outcomes


def test_fe_examples():
    assert evaluate(_outcomes(3, 3, 3)).fe == 1
    assert evaluate(_outcomes(3, 0, 0)).fe == 0
    assert percent(evaluate(_outcomes(165, 118, 105)).fe) == "63.64"
    with pytest.raises(ValueError):
        evaluate([])


def test_unit_outcome_invariant():
    with pytest.raises(ValueError):
        score("u", compiled=False, all_tests_passed=True, candidate="x", reference="x")


@given(st.integers(0, 500), st.integers(0, 500), st.integers(1, 500))
def test_identity_fe_equals_csr_times_cfe(a, b, total):
    n_compiled = min(a, total)
    n_cf = min(b, n_compiled)
    if n_compiled == 0:
        return
    assert Fraction(n_cf, total) == csr(n_compiled, total) * cfe(n_cf, n_compiled)


def test_table1_shaped_identity():
    assert csr(118, 165) * cfe(105, 118) == Fraction(105, 165)
    assert float(csr(118, 165)) * float(cfe(105, 118)) == pytest.approx(0.6364, abs=5e-5)


# --- BLEU ------------------------------------------------------------------------

def test_bleu_identical_pair_is_one():
    assert bleu("a b c d e", ["a b c d e"]) == 1.0
    assert bleu("func main() { print(1) }", ["func main() { print(1) }"]) == 1.0
    assert bleu("x", ["x"]) == 1.0


def test_bleu_disjoint_pair_is_zero():
    assert bleu("aa bb cc dd", ["ee ff gg hh"]) == 0.0


def test_bleu_hand_computed_example():
    assert bleu("a b c d e", ["a b c d f"]) == pytest.approx(float(HAND_BLEU), abs=1e-6)


def test_bleu_whitespace_normalization_invariance():
    raw_candidate = "let  x =\t1\n\nprint(x)"
    raw_reference = "let x = 1  \nprint( x )"
    normalized = lambda s: " ".join(s.split())
    assert bleu(raw_candidate, [raw_reference]) == pytest.approx(
        bleu(normalized(raw_candidate), [normalized(raw_reference)])
    )


def test_bleu_brevity_penalty_applies_to_short_candidates():
    score = bleu("a b", ["a b c d e f g h"])
    assert 0 < score < math.exp(1 - 8 / 2) + 1e-9


def test_bleu_requires_tokens():
    with pytest.raises(ValueError):
        bleu("", ["a"])
    with pytest.raises(ValueError):
        bleu("a", [" "])
    with pytest.raises(ValueError):
        bleu("a", [])


def test_bleu_multiple_references_takes_best_overlap():
    assert bleu("a b c d", ["x y z w", "a b c d"]) == 1.0


def test_corpus_bleu_pools_statistics():
    pairs = [("a b c d e", ["a b c d e"]), ("f g h i j", ["f g h i j"])]
    assert corpus_bleu(pairs) == 1.0
    mixed = [("a b c d e", ["a b c d f"]), ("q r s t", ["q r s t"])]
    single = bleu("a b c d e", ["a b c d f"])
    assert corpus_bleu(mixed) > single  # pooled counts soften the miss


def test_bleu_values_always_in_unit_interval():
    rng = random.Random(4)
    words = "a b c d e f g".split()
    for _ in range(200):
        cand = " ".join(rng.choice(words) for _ in range(rng.randint(1, 12)))
        ref = " ".join(rng.choice(words) for _ in range(rng.randint(1, 12)))
        assert 0.0 <= bleu(cand, [ref]) <= 1.0


# Brute-force oracle: the corpus BLEU statistics as computed before each
# pair's statistics were counted once, kept verbatim to check the fast path,
# with the code tokenizer's pattern from before each match skipped the
# whitespace before its token.

_ORACLE_TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*"      # identifiers and keywords
    r"|\d+\.\d+|\d+"               # numbers
    r"|->|==|!=|<=|>=|&&|\|\||\+\+|--|<<|>>|::|\+=|-=|\*=|/="  # operators
    r"|[^\sA-Za-z0-9_]"            # any remaining single punctuation
)


def oracle_tokenize(text: str) -> list[str]:
    return _ORACLE_TOKEN_RE.findall(text)


def _oracle_ngram_counts(tokens: list[str], order: int) -> Counter:
    return Counter(tuple(tokens[i : i + order]) for i in range(len(tokens) - order + 1))


def _oracle_clipped_matches(candidate: list[str], references: list[list[str]], order: int) -> tuple[int, int]:
    total = max(0, len(candidate) - order + 1)
    if total == 0:
        return 0, 0
    cand_counts = _oracle_ngram_counts(candidate, order)
    max_ref: Counter = Counter()
    for ref in references:
        for ngram, count in _oracle_ngram_counts(ref, order).items():
            if count > max_ref[ngram]:
                max_ref[ngram] = count
    matched = sum(min(count, max_ref[ngram]) for ngram, count in cand_counts.items())
    return matched, total


def _oracle_closest_ref_length(cand_len: int, references: list[list[str]]) -> int:
    return min((abs(len(r) - cand_len), len(r)) for r in references)[1]


def oracle_stats(pairs: list[tuple[str, list[str]]]) -> tuple[list[int], list[int], int, int]:
    if not pairs:
        raise ValueError("at least one pair required")
    matches = [0] * BLEU_MAX_ORDER
    totals = [0] * BLEU_MAX_ORDER
    cand_len = 0
    ref_len = 0
    for candidate, references in pairs:
        cand_tokens = oracle_tokenize(candidate)
        ref_tokens = [oracle_tokenize(r) for r in references]
        if not cand_tokens or all(not r for r in ref_tokens):
            raise ValueError("candidate and references must tokenize to at least one token")
        for order in range(1, BLEU_MAX_ORDER + 1):
            m, t = _oracle_clipped_matches(cand_tokens, ref_tokens, order)
            matches[order - 1] += m
            totals[order - 1] += t
        cand_len += len(cand_tokens)
        ref_len += _oracle_closest_ref_length(len(cand_tokens), ref_tokens)
    return matches, totals, cand_len, ref_len


def oracle_corpus_bleu(pairs: list[tuple[str, list[str]]]) -> float:
    return _bleu_from_stats(*oracle_stats(pairs))


# Few distinct tokens, so n-grams repeat within and across texts; lists may
# be empty or shorter than the highest order; whitespace-only texts included.
_WORDS = ["a", "b", "c", "(", ")", "->", "x1", "=="]
_texts = st.one_of(
    st.lists(st.sampled_from(_WORDS), max_size=14).map(" ".join),
    st.sampled_from(["", "   ", " \n\t "]),
)
_pairs = st.tuples(_texts, st.lists(_texts, min_size=1, max_size=3))


@given(_pairs)
def test_pair_stats_equal_the_oracle(pair):
    candidate, references = pair
    try:
        expected = oracle_stats([pair])
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            _pair_stats(candidate, references)
        with pytest.raises(ValueError):
            bleu(candidate, references)
        return
    assert _pair_stats(candidate, references) == expected
    assert bleu(candidate, references) == oracle_corpus_bleu([pair])


@given(st.lists(_pairs, min_size=1, max_size=6))
def test_corpus_bleu_equals_the_oracle(pairs):
    try:
        expected = oracle_corpus_bleu(pairs)
    except ValueError:
        with pytest.raises(ValueError):
            corpus_bleu(pairs)
        return
    assert corpus_bleu(pairs) == expected


@given(st.lists(st.tuples(_texts, _texts), min_size=1, max_size=6))
def test_evaluate_scores_equal_the_oracle(texts):
    pairs = [(cand, [ref]) for cand, ref in texts]
    outcomes, unit_scores = [], []
    for i, (cand, ref) in enumerate(texts):
        try:
            unit_scores.append(oracle_corpus_bleu([(cand, [ref])]))
        except ValueError:
            with pytest.raises(ValueError, match=f"^unit 'u{i}': "):
                score(f"u{i}", True, True, cand, ref)
            return
        outcomes.append(score(f"u{i}", True, True, cand, ref))
    report = evaluate(outcomes)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.jsonl"
        write_report(path, outcomes, report)
        units = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()][:-1]
    assert [unit["bleu"] for unit in units] == unit_scores
    assert report.bleu == oracle_corpus_bleu(pairs)


def test_bleu_error_cases_match_the_oracle():
    for pairs in ([], [("", ["a"])], [("a", [" "])], [("a", [])], [("a", ["b"]), (" ", ["a"])]):
        with pytest.raises(ValueError):
            oracle_corpus_bleu(pairs)
        with pytest.raises(ValueError):
            corpus_bleu(pairs)
    with pytest.raises(ValueError, match="at least one reference"):
        bleu("a", [])


def test_tokenize_code_keeps_operators():
    assert tokenize_code("x->f(a,b)!=0") == ["x", "->", "f", "(", "a", ",", "b", ")", "!=", "0"]


# Whitespace that is not ASCII (\x0b, \x1c, \x85, U+3000 are str.isspace),
# digits and letters that are not ASCII, and the operators' characters.
_CODE_EDGES = ["\x0b", "\x1c", "\x85", "\u3000", "\u00a0", "\u2028", "٣", "５", "²", "é", "ж", "漢", "1.5", "1.", ".5",
               "a_b", "_", "->", "<<", ">>", "::", "+=", "&&", "||", "--", "/", "=", "!", "<", ">"]
_WHITESPACE = " \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\u00a0\u2028\u3000"


@given(
    st.lists(st.sampled_from(_CODE_EDGES) | st.sampled_from(_WORDS) | st.characters(), max_size=30).map("".join),
    st.text(alphabet=_WHITESPACE, max_size=6),
)
@example("a \x1c\x85\u3000", "\u3000 ")
@example("", " ")
def test_tokenize_code_matches_the_oracle(body, tail):
    text = body + tail
    assert tokenize_code(text) == oracle_tokenize(text)


def test_tokenize_code_runs_in_linear_time(run_isolated):
    # Where a match can fail after skipping whitespace, searching again from
    # each later position makes 200 KB of trailing whitespace take minutes.
    code = "from j2cj.metrics import tokenize_code\nprint(tokenize_code(sys.stdin.read()))\n"
    result = run_isolated(code, stdin="x = 1" + " \n\t" * 70_000, timeout=20)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['x', '=', '1']\n"


# --- reports ----------------------------------------------------------------------

def test_evaluate_aggregates_counts_and_identity():
    outcomes = _outcomes(10, 6, 3)
    report = evaluate(outcomes)
    assert (report.n_total, report.n_compiled, report.n_cf) == (10, 6, 3)
    assert report.fe == report.csr * report.cfe
    assert report.cfe_defined
    assert report.bleu == 1.0  # all candidates equal their references


def test_evaluate_zero_compiled_flags_undefined_cfe():
    outcomes = [score(f"u{i}", False, False, "x", "x") for i in range(4)]
    report = evaluate(outcomes)
    assert report.cfe == 0
    assert not report.cfe_defined


def test_report_record_carries_percentages_and_exact_fractions():
    report = evaluate(_outcomes(165, 118, 105))
    record = report_record(report)
    assert record["fe"] == {"exact": "7/11", "percent": "63.64"}
    assert record["csr"]["percent"] == "71.52"
    assert record["cfe"]["percent"] == "88.98"
    assert record["bleu"]["display"] == "100.00"


def test_render_table_lines_up():
    table = render_table(evaluate(_outcomes(165, 118, 105)))
    assert "FE" in table and "63.64" in table
    assert "CSR" in table and "71.52" in table
    assert "CFE" in table and "88.98" in table


def test_write_report_emits_unit_lines_then_aggregate(tmp_path):
    outcomes = _outcomes(3, 2, 1)
    report = evaluate(outcomes)
    path = tmp_path / "report.jsonl"
    write_report(path, outcomes, report)
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert [record["type"] for record in lines] == ["unit", "unit", "unit", "aggregate"]
    assert lines[-1]["n_total"] == 3


def test_write_report_reads_the_unit_scores_of_the_report(tmp_path):
    outcomes = [score("u0", True, True, "a b c d e", "a b c d f"), score("u1", False, False, "x", "y")]
    report = evaluate(outcomes)
    path = tmp_path / "report.jsonl"
    write_report(path, outcomes, report)
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert [record["bleu"] for record in lines[:2]] == [bleu("a b c d e", ["a b c d f"]), 0.0]


@given(st.integers(0, 500), st.integers(0, 500), st.integers(1, 500), st.floats(0, 1))
def test_read_report_reads_what_write_report_wrote(a, b, c, bleu_value):
    n_cf, n_compiled, n_total = sorted((a, b, c))
    report = EvalReport.from_counts(n_total, n_compiled, n_cf, bleu_value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.jsonl"
        write_report(path, [], report)
        assert read_report(path) == report


@pytest.mark.parametrize("aggregate,message", [
    ({"n_cf": True}, "field 'n_cf' must be an integer"),
    ({"bleu": [1]}, "field 'bleu' must be an object"),
    ({"bleu": {"value": 7}}, "field 'value' must be a number from 0 to 1"),
    ({"bleu": {"value": math.nan}}, "field 'value' must be a number from 0 to 1"),
    ({"bleu": {"value": -math.inf}}, "field 'value' must be a number from 0 to 1"),
    ({"bleu": {}}, "missing field 'value'"),
])
def test_read_report_names_a_mistyped_aggregate_field(tmp_path, aggregate, message):
    path = tmp_path / "report.jsonl"
    record = {"type": "aggregate", "n_total": 3, "n_compiled": 2, "n_cf": 1, "bleu": {"value": 0.5}, **aggregate}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: {message}$"):
        read_report(path)


def test_eval_report_is_plain_data():
    report = EvalReport(1, 1, 1, Fraction(1), Fraction(1), Fraction(1), True, 1.0)
    assert report.fe == 1
