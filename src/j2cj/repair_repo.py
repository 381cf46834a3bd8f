"""Error-repair case repository and weighted multi-dimensional retrieval.

A query error is scored against each stored case as a weighted sum of six
similarity dimensions: error-type tags, diagnostic keyword overlap,
diagnostic term-frequency cosine, code-fragment structure, character
sequence, and edit distance. All dimensions map into [0, 1] and each is 1
for a query built from the case's own fields, so self-similarity is exactly
1.0 under any weight normalization.
"""

from __future__ import annotations

import bisect
import math
import re
from dataclasses import dataclass

from .jsonl import read_jsonl, string_fields, write_jsonl


class DuplicateCaseError(ValueError):
    pass


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

    @classmethod
    def from_record(cls, record: dict) -> "RepairCase":
        if not isinstance(record, dict):
            raise ValueError("case record must be an object")
        case_id, info, suggestion, faulty, corrected = string_fields(
            record, "id", "error_info", "repair_suggestion", "faulty_fragment", "corrected_code"
        )
        tags = record.get("error_tags")
        if not (isinstance(tags, list) and all(isinstance(t, str) for t in tags)):
            raise ValueError("field 'error_tags' must be a list of strings")
        return cls(case_id, tuple(tags), info, suggestion, faulty, corrected)


@dataclass(frozen=True)
class ErrorQuery:
    """Compiler-error probe matched against the repository."""

    error_info: str
    faulty_fragment: str = ""
    error_tags: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.error_info.strip():
            raise ValueError("query error_info must be non-empty")


@dataclass(frozen=True)
class SimilarityWeights:
    """Six finite, non-negative dimension weights, normalized to sum 1."""

    values: tuple[float, float, float, float, float, float]

    def __post_init__(self):
        if len(self.values) != 6:
            raise ValueError("exactly six weights required")
        if not all(0 <= v < math.inf for v in self.values):
            raise ValueError("weights must be non-negative and finite")
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

# Compiler locations, removed in this order by ``normalize_diagnostic``.
_LOCATION_RES = [
    re.compile(r"\b0x[0-9a-fA-F]+"),
    re.compile(r"\b\d+:\d+\b|\b(?:line|col(?:umn)?)\s+\d+\b", re.I),
    re.compile(r"\b\S+\.(?:cj|java|class|jar)\b"),
    re.compile(r"\S*[/\\]\S*"),
]
_WS_RE = re.compile(r"\s+")
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


def normalize_diagnostic(text: str) -> str:
    """A diagnostic without hex addresses, ``N:M``, ``line N``/``col N``/
    ``column N``, file names ending ``.cj/.java/.class/.jar`` and path-like
    words, lowercased and whitespace-collapsed. A hex address starts a word
    and ``line``/``col`` is followed by a space, so the identifiers
    ``buf0xff`` and ``line2`` stay. It is the repair loop's
    stagnation key and the text ``message_tokens`` splits."""
    for pattern in _LOCATION_RES:
        text = pattern.sub(" ", text)
    return _WS_RE.sub(" ", text.lower()).strip()


def message_tokens(diagnostic: str) -> list[str]:
    """Alphanumeric words of the normalized diagnostic minus stop words and numbers."""
    words = _WORD_RE.findall(normalize_diagnostic(diagnostic))
    return [w for w in words if w not in _STOP_WORDS and not w.isdigit()]


# --- code fragment skeletons --------------------------------------------------

_SKELETON_KEYWORDS = frozenset(
    """if else for while do switch match case try catch finally func fun
    function class struct enum interface init return throw break continue
    lambda defer spawn""".split()
)

# An unclosed ``/*`` or quote runs to the end of the text, so none is scanned
# twice; a lone backslash may end it.
_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?(?:\*/|\Z)|#[^\n]*", re.DOTALL)
_STRING_RE = re.compile(r'"(?:\\.|[^"\\])*(?:"|\\?\Z)|\'(?:\\.|[^\'\\])*(?:\'|\\?\Z)', re.DOTALL)
_SKELETON_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*|\{")


def fragment_skeleton(code: str) -> list[str]:
    """Language-neutral structural symbols: control keywords plus blocks."""
    tokens = _SKELETON_RE.findall(_STRING_RE.sub(" ", _COMMENT_RE.sub(" ", code)))
    return ["block" if tok == "{" else tok for tok in tokens if tok == "{" or tok in _SKELETON_KEYWORDS]


# --- similarity dimensions ----------------------------------------------------

class _Features:
    """What the six dimensions read from one side of a comparison, derived
    once per query and once per stored case."""

    __slots__ = ("tags", "token_counts", "token_norm", "tokens", "skeleton")

    def __init__(self, error_info: str, tags: tuple[str, ...], fragment: str):
        self.tags = set(tags) if tags else set(extract_error_tags(error_info))
        counts: dict[str, int] = {}
        for t in message_tokens(error_info):
            counts[t] = counts.get(t, 0) + 1
        self.token_counts = counts
        self.token_norm = sum(v * v for v in counts.values()) ** 0.5
        self.tokens = set(counts)
        self.skeleton = fragment_skeleton(fragment)


def _jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    shared = len(a & b)
    return shared / (len(a) + len(b) - shared)


def _cosine(a: _Features, b: _Features) -> float:
    counts_a, counts_b = a.token_counts, b.token_counts
    if not counts_a and not counts_b:
        return 1.0
    if not counts_a or not counts_b:
        return 0.0
    if counts_a == counts_b:
        return 1.0
    dot = sum(n * counts_b.get(t, 0) for t, n in counts_a.items())
    return dot / (a.token_norm * b.token_norm)


def _lcs_length(a: list[str] | str, b: list[str] | str) -> int:
    """Longest common subsequence length by the bit-parallel algorithm of
    Allison and Dix (IPL 1986) in Hyyrö's form (2004): after each symbol of
    ``b``, the zero bits of ``v`` at positions 0..i count the LCS of
    ``a[:i + 1]`` with the part of ``b`` read so far."""
    if not a or not b:
        return 0
    peq: dict[str, int] = {}
    for i, sym in enumerate(a):
        peq[sym] = peq.get(sym, 0) | (1 << i)
    full = (1 << len(a)) - 1
    v = full
    for sym in b:
        u = v & peq.get(sym, 0)
        v = ((v + u) | (v - u)) & full
    return len(a) - v.bit_count()


class _SuffixAutomaton:
    """Suffix automaton of one string (Blumer et al., TCS 1985): every
    substring of the text is a path from state 0, built in linear time."""

    def __init__(self, text: str):
        nxt: list[dict[str, int]] = [{}]
        link, length = [-1], [0]
        last = 0
        for ch in text:
            cur = len(length)
            nxt.append({})
            length.append(length[last] + 1)
            link.append(0)
            p = last
            while p != -1 and ch not in nxt[p]:
                nxt[p][ch] = cur
                p = link[p]
            if p != -1:
                q = nxt[p][ch]
                if length[p] + 1 == length[q]:
                    link[cur] = q
                else:
                    clone = len(length)
                    nxt.append(dict(nxt[q]))
                    length.append(length[p] + 1)
                    link.append(link[q])
                    while p != -1 and nxt[p].get(ch) == q:
                        nxt[p][ch] = clone
                        p = link[p]
                    link[q] = link[cur] = clone
            last = cur
        self._next, self._link, self._length = nxt, link, length

    def longest_common_substring(self, other: str) -> int:
        """Length of the longest substring shared with ``other``, in one
        pass over it: follow transitions while they match, suffix links
        when they do not."""
        nxt, link, length = self._next, self._link, self._length
        state = run = best = 0
        for ch in other:
            target = nxt[state].get(ch)
            while target is None and state:
                state = link[state]
                run = length[state]
                target = nxt[state].get(ch)
            if target is None:
                run = 0
            else:
                state = target
                run += 1
                if run > best:
                    best = run
        return best


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
    pv, mv = full, 0
    for ch in b:
        eq = peq.get(ch, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        # Complements are taken within the mask: negative ints are slow, and
        # no bit above the mask reaches ``pv`` or ``mv``.
        ph = mv | (full ^ (xh | pv))
        mh = pv & xh
        ph = (ph << 1) | 1
        pv = ((mh << 1) | (full ^ (xv | ph))) & full
        mv = ph & xv
    # The last column starts at len(b) in row 0 and adds its vertical deltas.
    return len(b) + pv.bit_count() - mv.bit_count()


def _structure_scores(q: _Features, c: _Features) -> tuple[float, float, float, float]:
    """Dimensions 1-4: tags, keywords, term-frequency cosine, skeleton LCS."""
    if not q.skeleton and not c.skeleton:
        s4 = 1.0
    elif not q.skeleton or not c.skeleton:
        s4 = 0.0
    else:
        s4 = _lcs_length(q.skeleton, c.skeleton) / max(len(q.skeleton), len(c.skeleton))
    return _jaccard(q.tags, c.tags), _jaccard(q.tokens, c.tokens), _cosine(q, c), s4


def _fragment_bounds(la: int, lb: int) -> tuple[float, float]:
    """Upper bounds on dimensions 5-6 (longest common substring, edit
    distance) from the fragment lengths alone, exact when either fragment
    is empty. A common substring is no longer than the shorter fragment and
    the edit distance is at least the length difference; each bound is the
    same division as its score, so rounding keeps it an upper bound."""
    if not la and not lb:
        return 1.0, 1.0
    if not la or not lb:
        return 0.0, 0.0
    longest = max(la, lb)
    return min(la, lb) / longest, 1.0 - abs(la - lb) / longest


def _substring_score(qa: str, cb: str, automaton: _SuffixAutomaton) -> float:
    """Dimension 5 for non-empty fragments; the automaton is built over ``qa``."""
    return automaton.longest_common_substring(cb) / max(len(qa), len(cb))


def _edit_score(qa: str, cb: str) -> float:
    """Dimension 6 for non-empty fragments."""
    return 1.0 - levenshtein(qa, cb) / max(len(qa), len(cb))


def _total(scores: tuple[float, ...], w: SimilarityWeights) -> float:
    """Weighted sum of the six scores, added left to right. Rounding is
    monotone at every step, so scores that are upper bounds give a total
    that is an upper bound; ``sum()`` on Python 3.12+ compensates and
    carries no such guarantee."""
    total = 0.0
    for wj, sj in zip(w.values, scores):
        total += wj * sj
    return total


def _breakdown(raw: tuple[float, ...], w: SimilarityWeights) -> SimilarityBreakdown:
    """Clamp the six scores and their weighted total into [0, 1]."""
    scores = tuple(min(1.0, max(0.0, s)) for s in raw)
    return SimilarityBreakdown(scores, min(1.0, max(0.0, _total(scores, w))))


def similarity(q: ErrorQuery, c: RepairCase, w: SimilarityWeights) -> SimilarityBreakdown:
    """Weighted six-dimension similarity between a query and a stored case."""
    head = _structure_scores(
        _Features(q.error_info, q.error_tags, q.faulty_fragment),
        _Features(c.error_info, c.error_tags, c.faulty_fragment),
    )
    qa, cb = q.faulty_fragment, c.faulty_fragment
    s5, s6 = _fragment_bounds(len(qa), len(cb))
    if qa and cb:
        s5, s6 = _substring_score(qa, cb, _SuffixAutomaton(qa)), _edit_score(qa, cb)
    return _breakdown(head + (s5, s6), w)


# --- repository ----------------------------------------------------------------

class Repository:
    """In-memory case collection with line-delimited JSON persistence."""

    def __init__(self, cases: list[RepairCase] | None = None):
        self._cases: dict[str, RepairCase] = {}
        self._features: dict[str, _Features] = {}
        for case in cases or []:
            self.add_case(case)

    def add_case(self, case: RepairCase) -> None:
        if case.id in self._cases:
            raise DuplicateCaseError(f"duplicate case id {case.id!r}")
        self._cases[case.id] = case

    def _features_of(self, case: RepairCase) -> _Features:
        """The case's similarity features, derived on the first retrieval
        that reads them. Ids are unique and cases frozen, so an entry never
        goes stale; two threads filling one entry store equal values."""
        features = self._features.get(case.id)
        if features is None:
            features = self._features[case.id] = _Features(
                case.error_info, case.error_tags, case.faulty_fragment
            )
        return features

    def cases(self) -> list[RepairCase]:
        return list(self._cases.values())

    def __len__(self) -> int:
        return len(self._cases)

    def save(self, path) -> None:
        write_jsonl(path, (vars(case) for case in self._cases.values()))

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
    """Top-k cases by weighted similarity, ties broken by case id.

    Equal to scoring every case with ``similarity`` and sorting, but only
    cases that can still enter the top k pay for dimensions 5-6. Each case
    gets a bound total from its exact dimensions 1-4 and the length bounds
    of 5-6. Cases are scored in descending bound order until a bound falls
    below the k-th total or ties it with a larger id. A case skips the edit
    distance when its exact dimension 5 rules it out, or when it is ruled
    out by ``d >= max(la, lb) - LCS``: an alignment matches at most the
    longest common subsequence. The scores are non-negative, so a bound
    total needs no clamp to stay at or above the clamped true total.
    """
    cases = repo.cases()
    if not cases:
        raise ValueError("repository is empty")
    if k <= 0:
        raise ValueError("k must be positive")
    weights = w or SimilarityWeights.uniform()
    probe = _Features(q.error_info, q.error_tags, q.faulty_fragment)
    qa = q.faulty_fragment

    pending = []
    for case in cases:
        head = _structure_scores(probe, repo._features_of(case))
        bounds = _fragment_bounds(len(qa), len(case.faulty_fragment))
        pending.append((-_total(head + bounds, weights), case.id, case, head, bounds))
    pending.sort(key=lambda item: item[:2])

    top: list[tuple[float, str, RepairCase, SimilarityBreakdown]] = []

    def ruled_out(neg_total: float, case_id: str) -> bool:
        return len(top) == k and (neg_total, case_id) > top[-1][:2]

    automaton = _SuffixAutomaton(qa)
    for neg_bound, case_id, case, head, (s5, s6) in pending:
        if ruled_out(neg_bound, case_id):
            break
        cb = case.faulty_fragment
        if qa and cb:
            s5 = _substring_score(qa, cb, automaton)
            if ruled_out(-_total(head + (s5, s6), weights), case_id):
                continue
            longest = max(len(qa), len(cb))
            s6 = 1.0 - (longest - _lcs_length(qa, cb)) / longest
            if ruled_out(-_total(head + (s5, s6), weights), case_id):
                continue
            s6 = _edit_score(qa, cb)
        breakdown = _breakdown(head + (s5, s6), weights)
        bisect.insort(top, (-breakdown.total, case_id, case, breakdown), key=lambda item: item[:2])
        del top[k:]
    return [(case, breakdown) for _, _, case, breakdown in top]
