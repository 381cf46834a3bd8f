"""Translation-quality metrics: FE, CSR, CFE and BLEU.

Counts are kept as exact rationals so the identity FE = CSR * CFE holds
without floating error. BLEU is a corpus-style 4-gram score over a
code-aware tokenization; values are stored in [0, 1] and displayed on the
0-100 scale used in reporting.
"""

from __future__ import annotations

import math
import operator
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import repeat

from .jsonl import INTEGER, OBJECT, fields, read_jsonl, write_jsonl

BLEU_MAX_ORDER = 4
BLEU_EPSILON = 1e-9


@dataclass(frozen=True)
class UnitOutcome:
    """Final result of one benchmark unit and the BLEU statistics of its pair (see ``score``)."""

    unit_id: str
    compiled: bool
    all_tests_passed: bool
    stats: tuple[list[int], list[int], int, int]


@dataclass(frozen=True)
class EvalReport:
    n_total: int
    n_compiled: int
    n_cf: int
    fe: Fraction
    csr: Fraction
    cfe: Fraction
    cfe_defined: bool
    bleu: float

    @classmethod
    def from_counts(cls, n_total: int, n_compiled: int, n_cf: int, bleu: float) -> "EvalReport":
        """The report for unit counts; raises ValueError unless
        0 <= n_cf <= n_compiled <= n_total and n_total > 0."""
        return cls(
            n_total=n_total,
            n_compiled=n_compiled,
            n_cf=n_cf,
            # csr and cfe check the counts before fe divides by n_total
            csr=csr(n_compiled, n_total),
            cfe=cfe(n_cf, n_compiled),
            fe=Fraction(n_cf, n_total),
            cfe_defined=n_compiled > 0,
            bleu=bleu,
        )


def csr(n_compiled: int, n_total: int) -> Fraction:
    """Compilation success rate: compiled units over all units."""
    if n_total <= 0:
        raise ValueError("n_total must be positive")
    if not (0 <= n_compiled <= n_total):
        raise ValueError("need 0 <= n_compiled <= n_total")
    return Fraction(n_compiled, n_total)


def cfe(n_cf: int, n_compiled: int) -> Fraction:
    """Functional correctness among compiled units; 0 when none compiled."""
    if not (0 <= n_cf <= n_compiled):
        raise ValueError("need 0 <= n_cf <= n_compiled")
    if n_compiled == 0:
        return Fraction(0)
    return Fraction(n_cf, n_compiled)


# --- BLEU ---------------------------------------------------------------------

# Whitespace, then one token. Every character that is not whitespace starts
# a token, so each match skips the whitespace before its token and no text
# is lost between matches.
_TOKEN_RE = re.compile(
    r"\s*("
    r"[A-Za-z_][A-Za-z0-9_]*"      # identifiers and keywords
    r"|\d+\.\d+|\d+"               # numbers
    r"|->|==|!=|<=|>=|&&|\|\||\+\+|--|<<|>>|::|\+=|-=|\*=|/="  # operators
    r"|[^\sA-Za-z0-9_])"           # any remaining single punctuation
)


def tokenize_code(text: str) -> list[str]:
    """Whitespace/punctuation-boundary split keeping operators as tokens."""
    # Trailing whitespace is stripped first: there, \s* would match the rest
    # of the text and then fail again at every later position (quadratic).
    return _TOKEN_RE.findall(text.rstrip())


def _ngrams(tokens: list[str], order: int) -> Counter:
    return Counter(zip(*[tokens[i:] for i in range(order)]))


class UnscorableError(ValueError):
    """A pair whose candidate, or every reference, has no tokens."""


def _pair_stats(candidate: str, references: list[str]) -> tuple[list[int], list[int], int, int]:
    """One pair's clipped n-gram matches and candidate n-gram counts for
    orders 1-4, its candidate length and its closest reference length."""
    cand = tokenize_code(candidate)
    refs = [tokenize_code(r) for r in references]
    if not cand or all(not r for r in refs):
        raise UnscorableError("candidate and references must tokenize to at least one token")
    matches = []
    for order in range(1, BLEU_MAX_ORDER + 1):
        max_ref = reduce(operator.or_, [_ngrams(r, order) for r in refs])
        counts = _ngrams(cand, order)
        matches.append(sum(map(min, counts.values(), map(max_ref.get, counts, repeat(0)))))
    totals = [max(0, len(cand) - order) for order in range(BLEU_MAX_ORDER)]
    ref_len = min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]
    return matches, totals, len(cand), ref_len


def _bleu_from_stats(matches: list[int], totals: list[int], cand_len: int, ref_len: int) -> float:
    # Unigram misses are decisive: no shared token means score 0, without
    # smoothing rescuing it. Higher orders with zero matches get epsilon;
    # orders with no candidate n-grams at all are excluded (short snippets).
    if matches[0] == 0:
        return 0.0
    log_sum = 0.0
    effective_orders = 0
    for matched, total in zip(matches, totals):
        if total == 0:
            continue
        precision = matched / total if matched else BLEU_EPSILON
        log_sum += math.log(precision)
        effective_orders += 1
    geo_mean = math.exp(log_sum / effective_orders)
    brevity = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return min(1.0, brevity * geo_mean)


def _pooled_bleu(stats: list[tuple[list[int], list[int], int, int]]) -> float:
    matches, totals, cand_lens, ref_lens = zip(*stats)
    return _bleu_from_stats([*map(sum, zip(*matches))], [*map(sum, zip(*totals))], sum(cand_lens), sum(ref_lens))


def bleu(candidate: str, references: list[str]) -> float:
    """Sentence-level BLEU of a candidate against one or more references:
    corpus BLEU over the single pair."""
    if not references:
        raise ValueError("at least one reference required")
    return _bleu_from_stats(*_pair_stats(candidate, references))


def corpus_bleu(pairs: list[tuple[str, list[str]]]) -> float:
    """Corpus BLEU: n-gram statistics pooled over all (candidate, refs) pairs."""
    if not pairs:
        raise ValueError("at least one pair required")
    return _pooled_bleu([_pair_stats(candidate, references) for candidate, references in pairs])


# --- reports ------------------------------------------------------------------

def score(unit_id: str, compiled: bool, all_tests_passed: bool, candidate: str, reference: str) -> UnitOutcome:
    """A unit's outcome with its pair's BLEU statistics. Passing tests without compiling
    raises ValueError, and then an unscorable pair UnscorableError, each naming the unit."""
    if all_tests_passed and not compiled:
        raise ValueError(f"unit {unit_id}: passed tests without compiling")
    try:
        stats = _pair_stats(candidate, [reference])
    except UnscorableError as exc:
        raise UnscorableError(f"unit {unit_id!r}: {exc}") from None
    return UnitOutcome(unit_id, compiled, all_tests_passed, stats)


def evaluate(outcomes: list[UnitOutcome]) -> EvalReport:
    """Counts and corpus BLEU, from the statistics the outcomes carry."""
    if not outcomes:
        raise ValueError("outcomes must be non-empty")
    return EvalReport.from_counts(
        n_total=len(outcomes),
        n_compiled=sum(1 for o in outcomes if o.compiled),
        n_cf=sum(1 for o in outcomes if o.all_tests_passed),
        bleu=_pooled_bleu([o.stats for o in outcomes]),
    )


def percent(value: Fraction | float) -> str:
    return f"{float(value) * 100:.2f}"


def report_record(report: EvalReport) -> dict:
    return {
        "n_total": report.n_total,
        "n_compiled": report.n_compiled,
        "n_cf": report.n_cf,
        "fe": {"exact": str(report.fe), "percent": percent(report.fe)},
        "csr": {"exact": str(report.csr), "percent": percent(report.csr)},
        "cfe": {
            "exact": str(report.cfe),
            "percent": percent(report.cfe),
            "defined": report.cfe_defined,
        },
        "bleu": {"value": report.bleu, "display": percent(report.bleu)},
    }


def render_table(report: EvalReport) -> str:
    rows = [
        ("units", str(report.n_total), ""),
        ("compiled", str(report.n_compiled), ""),
        ("funct. equivalent", str(report.n_cf), ""),
        ("FE", percent(report.fe), str(report.fe)),
        ("CSR", percent(report.csr), str(report.csr)),
        ("CFE", percent(report.cfe), str(report.cfe) + ("" if report.cfe_defined else " (undefined)")),
        ("BLEU", percent(report.bleu), f"{report.bleu:.6f}"),
    ]
    name_w = max(len(r[0]) for r in rows)
    value_w = max(len(r[1]) for r in rows)
    lines = [f"{name.ljust(name_w)}  {value.rjust(value_w)}  {exact}".rstrip() for name, value, exact in rows]
    return "\n".join(lines)


def write_report(path, outcomes: list[UnitOutcome], report: EvalReport) -> None:
    """Line-delimited report: one record per unit, with the unit's own BLEU, aggregate record last."""
    units = [
        {
            "type": "unit",
            "unit_id": o.unit_id,
            "compiled": o.compiled,
            "all_tests_passed": o.all_tests_passed,
            "bleu": _bleu_from_stats(*o.stats),
        }
        for o in outcomes
    ]
    write_jsonl(path, units + [{"type": "aggregate", **report_record(report)}])


# A BLEU value as ``report_record`` stores it; NaN and the infinities are not one.
_BLEU_VALUE = ("a number from 0 to 1", lambda v: type(v) in (int, float) and 0 <= v <= 1)


def read_report(path) -> EvalReport:
    """The report of a ``write_report`` file's last aggregate record; none, or a malformed one, raises ValueError."""

    def aggregate(record: dict) -> EvalReport | None:
        if record.get("type") != "aggregate":
            return None
        n_total, n_compiled, n_cf, bleu = fields(record, n_total=INTEGER, n_compiled=INTEGER, n_cf=INTEGER, bleu=OBJECT)
        return EvalReport.from_counts(n_total, n_compiled, n_cf, *fields(bleu, value=_BLEU_VALUE))

    reports = [r for r in read_jsonl(path, aggregate) if r is not None]
    if not reports:
        raise ValueError(f"no aggregate record in {path}")
    return reports[-1]
