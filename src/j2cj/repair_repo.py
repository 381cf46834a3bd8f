"""Error-repair case repository and weighted multi-dimensional retrieval.

A query error is scored against each stored case as a weighted sum of six
similarity dimensions: error-type tags, diagnostic keyword overlap,
diagnostic term-frequency cosine, code-fragment structure, character
sequence, and edit distance. All dimensions map into [0, 1] and each is 1
for a query built from the case's own fields, so self-similarity is exactly
1.0 under any weight normalization.
"""

from __future__ import annotations

import difflib
import re
from dataclasses import dataclass

from .jsonl import JsonlError, read_jsonl, write_jsonl


class DuplicateCaseError(ValueError):
    pass


# A malformed repository file or case record: the JSONL reader's error.
RepositoryFormatError = JsonlError


@dataclass(frozen=True)
class RepairCase:
    """Stored exemplar of a diagnosed error and its verified fix."""

    id: str
    error_tags: tuple[str, ...]
    error_info: str
    repair_suggestion: str
    faulty_fragment: str
    corrected_code: str

    def __post_init__(self):
        if not self.id:
            raise ValueError("case id must be non-empty")
        if not self.error_info.strip():
            raise ValueError(f"case {self.id}: error_info must be non-empty")
        if not self.corrected_code.strip():
            raise ValueError(f"case {self.id}: corrected_code must be non-empty")
        if self.faulty_fragment == self.corrected_code:
            raise ValueError(f"case {self.id}: faulty_fragment equals corrected_code")

    def to_record(self) -> dict:
        return {
            "id": self.id,
            "error_tags": list(self.error_tags),
            "error_info": self.error_info,
            "repair_suggestion": self.repair_suggestion,
            "faulty_fragment": self.faulty_fragment,
            "corrected_code": self.corrected_code,
        }

    @classmethod
    def from_record(cls, record: dict) -> "RepairCase":
        try:
            return cls(
                id=record["id"],
                error_tags=tuple(record["error_tags"]),
                error_info=record["error_info"],
                repair_suggestion=record["repair_suggestion"],
                faulty_fragment=record["faulty_fragment"],
                corrected_code=record["corrected_code"],
            )
        except KeyError as exc:
            raise RepositoryFormatError(f"case record missing field {exc}") from exc


@dataclass(frozen=True)
class ErrorQuery:
    """Compiler-error probe matched against the repository."""

    error_info: str
    faulty_fragment: str = ""
    error_tags: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.error_info.strip():
            raise ValueError("query error_info must be non-empty")


def query_from_case(case: RepairCase) -> ErrorQuery:
    return ErrorQuery(case.error_info, case.faulty_fragment, case.error_tags)


@dataclass(frozen=True)
class SimilarityWeights:
    """Six non-negative dimension weights, normalized to sum 1."""

    values: tuple[float, float, float, float, float, float]

    def __post_init__(self):
        if len(self.values) != 6:
            raise ValueError("exactly six weights required")
        if any(v < 0 for v in self.values):
            raise ValueError("weights must be non-negative")
        total = sum(self.values)
        if total <= 0:
            raise ValueError("at least one weight must be positive")
        object.__setattr__(self, "values", tuple(v / total for v in self.values))

    @classmethod
    def uniform(cls) -> "SimilarityWeights":
        return cls((1.0,) * 6)


@dataclass(frozen=True)
class SimilarityBreakdown:
    """Per-dimension scores and their weighted total, all in [0, 1]."""

    scores: tuple[float, float, float, float, float, float]
    total: float


# --- diagnostic normalization ------------------------------------------------

_PATH_RE = re.compile(r"\S*[/\\]\S*")
_FILE_RE = re.compile(r"\b\S+\.(?:cj|java|class|jar)\b")
_LINECOL_RE = re.compile(r"\b\d+:\d+\b|\bline\s+\d+(?:\s*,?\s*col(?:umn)?\s+\d+)?\b", re.I)
_WORD_RE = re.compile(r"[a-z0-9_]+")

_STOP_WORDS = frozenset(
    """a an and are as at be but by for in is it of on or the this that to was
    were with not no can could you your""".split()
)

# Regex table mapping diagnostic phrasing to error-type tags. A rule with
# tag None contributes the matched text itself (literal diagnostic codes).
_TAG_RULES: list[tuple[re.Pattern, str | None]] = [
    (re.compile(r"\b[A-Z]{1,3}\d{3,5}\b"), None),
    (re.compile(r"undeclared|undefined|cannot find|not found|unresolved", re.I), "unresolved_symbol"),
    (re.compile(r"type mismatch|mismatched type|incompatible type|cannot convert", re.I), "type_mismatch"),
    (re.compile(r"missing [';,)\]}]|expected [';,)\]}]", re.I), "missing_token"),
    (re.compile(r"unexpected token|syntax error|parse error|invalid syntax", re.I), "syntax_error"),
    (re.compile(r"wrong number of arguments|too (?:many|few) arguments", re.I), "arity_mismatch"),
    (re.compile(r"immutable|cannot assign|read-?only", re.I), "immutable_assignment"),
    (re.compile(r"no (?:such )?(?:member|method|field|function)", re.I), "missing_member"),
    (re.compile(r"unreachable code", re.I), "unreachable_code"),
    (re.compile(r"missing return", re.I), "missing_return"),
]


def extract_error_tags(diagnostic: str) -> tuple[str, ...]:
    """Auto-extract error-type tags from a raw diagnostic message."""
    tags: list[str] = []
    for pattern, tag in _TAG_RULES:
        for m in pattern.finditer(diagnostic):
            value = tag if tag is not None else m.group(0)
            if value not in tags:
                tags.append(value)
            if tag is not None:
                break
    return tuple(tags)


def _strip_locations(diagnostic: str) -> str:
    text = _LINECOL_RE.sub(" ", diagnostic)
    text = _FILE_RE.sub(" ", text)
    return _PATH_RE.sub(" ", text)


def message_tokens(diagnostic: str) -> list[str]:
    """Alphanumeric diagnostic tokens minus stop words, paths and numbers."""
    words = _WORD_RE.findall(_strip_locations(diagnostic).lower())
    return [w for w in words if w not in _STOP_WORDS and not w.isdigit()]


# --- code fragment skeletons --------------------------------------------------

_SKELETON_KEYWORDS = frozenset(
    """if else for while do switch match case try catch finally func fun
    function class struct enum interface init return throw break continue
    lambda defer spawn""".split()
)

_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?\*/|#[^\n]*", re.DOTALL)
_STRING_RE = re.compile(r'"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])*\'')


def fragment_skeleton(code: str) -> list[str]:
    """Language-neutral structural symbols: control keywords plus blocks."""
    text = _STRING_RE.sub(" ", _COMMENT_RE.sub(" ", code))
    symbols: list[str] = []
    for m in re.finditer(r"[A-Za-z_][A-Za-z0-9_]*|\{", text):
        tok = m.group(0)
        if tok == "{":
            symbols.append("block")
        elif tok in _SKELETON_KEYWORDS:
            symbols.append(tok)
    return symbols


# --- similarity dimensions ----------------------------------------------------

def _jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    union = a | b
    return len(a & b) / len(union) if union else 1.0


def _cosine(tokens_a: list[str], tokens_b: list[str]) -> float:
    if not tokens_a and not tokens_b:
        return 1.0
    if not tokens_a or not tokens_b:
        return 0.0
    counts_a: dict[str, int] = {}
    counts_b: dict[str, int] = {}
    for t in tokens_a:
        counts_a[t] = counts_a.get(t, 0) + 1
    for t in tokens_b:
        counts_b[t] = counts_b.get(t, 0) + 1
    if counts_a == counts_b:
        return 1.0
    dot = sum(counts_a[t] * counts_b.get(t, 0) for t in counts_a)
    norm_a = sum(v * v for v in counts_a.values()) ** 0.5
    norm_b = sum(v * v for v in counts_b.values()) ** 0.5
    return dot / (norm_a * norm_b)


def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for sym in a:
        cur = [0] * (len(b) + 1)
        for j, other in enumerate(b, 1):
            if sym == other:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def _longest_common_substring(a: str, b: str) -> int:
    if not a or not b:
        return 0
    matcher = difflib.SequenceMatcher(None, a, b, autojunk=False)
    return matcher.find_longest_match(0, len(a), 0, len(b)).size


def levenshtein(a: str, b: str) -> int:
    """Exact edit distance by the bit-parallel algorithm of Myers (JACM 1999)
    in Hyyrö's formulation: one column of vertical deltas of the DP matrix,
    held in Python ints with one bit per character of the longer string, is
    advanced once per character of the shorter string."""
    if a == b:
        return 0
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    peq: dict[str, int] = {}
    for i, ch in enumerate(a):
        peq[ch] = peq.get(ch, 0) | (1 << i)
    full = (1 << len(a)) - 1
    last = 1 << (len(a) - 1)
    pv, mv, score = full, 0, len(a)
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)  # negative ints stand for infinitely many high ones
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
    return score


def _effective_tags(error_info: str, tags: tuple[str, ...]) -> set[str]:
    return set(tags) if tags else set(extract_error_tags(error_info))


def similarity(q: ErrorQuery, c: RepairCase, w: SimilarityWeights) -> SimilarityBreakdown:
    """Weighted six-dimension similarity between a query and a stored case."""
    qa, cb = q.faulty_fragment, c.faulty_fragment

    s1 = _jaccard(_effective_tags(q.error_info, q.error_tags), _effective_tags(c.error_info, c.error_tags))
    q_tokens = message_tokens(q.error_info)
    c_tokens = message_tokens(c.error_info)
    s2 = _jaccard(set(q_tokens), set(c_tokens))
    s3 = _cosine(q_tokens, c_tokens)

    skel_q, skel_c = fragment_skeleton(qa), fragment_skeleton(cb)
    if not skel_q and not skel_c:
        s4 = 1.0
    elif not skel_q or not skel_c:
        s4 = 0.0
    else:
        s4 = _lcs_length(skel_q, skel_c) / max(len(skel_q), len(skel_c))

    if not qa and not cb:
        s5 = 1.0
        s6 = 1.0
    elif not qa or not cb:
        s5 = 0.0
        s6 = 0.0
    else:
        longest = max(len(qa), len(cb))
        s5 = _longest_common_substring(qa, cb) / longest
        s6 = 1.0 - levenshtein(qa, cb) / longest

    scores = tuple(min(1.0, max(0.0, s)) for s in (s1, s2, s3, s4, s5, s6))
    total = min(1.0, max(0.0, sum(wj * sj for wj, sj in zip(w.values, scores))))
    return SimilarityBreakdown(scores, total)


# --- repository ----------------------------------------------------------------

class Repository:
    """In-memory case collection with line-delimited JSON persistence."""

    def __init__(self, cases: list[RepairCase] | None = None):
        self._cases: dict[str, RepairCase] = {}
        for case in cases or []:
            self.add_case(case)

    def add_case(self, case: RepairCase) -> None:
        if case.id in self._cases:
            raise DuplicateCaseError(f"duplicate case id {case.id!r}")
        self._cases[case.id] = case

    def get(self, case_id: str) -> RepairCase | None:
        return self._cases.get(case_id)

    def cases(self) -> list[RepairCase]:
        return list(self._cases.values())

    def __len__(self) -> int:
        return len(self._cases)

    def __iter__(self):
        return iter(self._cases.values())

    def __eq__(self, other) -> bool:
        return isinstance(other, Repository) and self._cases == other._cases

    def save(self, path) -> None:
        write_jsonl(path, (case.to_record() for case in self._cases.values()))

    @classmethod
    def load(cls, path) -> "Repository":
        repo = cls()
        # Adding while reading makes a duplicate id name its line too.
        read_jsonl(path, lambda record: repo.add_case(RepairCase.from_record(record)))
        return repo


def retrieve(
    q: ErrorQuery,
    repo: Repository,
    k: int,
    w: SimilarityWeights | None = None,
) -> list[tuple[RepairCase, SimilarityBreakdown]]:
    """Top-k cases by weighted similarity, ties broken by case id."""
    cases = repo.cases()
    if not cases:
        raise ValueError("repository is empty")
    if k <= 0:
        raise ValueError("k must be positive")
    weights = w or SimilarityWeights.uniform()
    scored = [(case, similarity(q, case, weights)) for case in cases]
    scored.sort(key=lambda pair: (-pair[1].total, pair[0].id))
    return scored[:k]
