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

from .jsonl import STRING, STRINGS, fields, read_jsonl, write_jsonl


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
        case_id, info, suggestion, faulty, corrected, tags = fields(
            record, id=STRING, error_info=STRING, repair_suggestion=STRING, faulty_fragment=STRING,
            corrected_code=STRING, error_tags=STRINGS,
        )
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

# Compiler locations and their replacements, applied in this order by
# ``normalize_diagnostic``. The file-name and path patterns start only at the
# start of a run of non-space characters, keeping its leading punctuation,
# so each run is scanned once: ``\b\S+\.cj\b`` and ``\S*/\S*`` give the
# same results but rescan the run from every start, quadratic in its length.
# A text without any of a pattern's literals, one of which every match
# contains, skips it; the ``N:M`` pattern's empty literal makes it always run.
_LOCATION_RES = [
    (re.compile(r"\b0x[0-9a-fA-F]+"), " ", ("0x",)),
    (re.compile(r"\b\d+:\d+\b|\b(?:line|col(?:umn)?)\s+\d+\b", re.I), " ", ("",)),
    (re.compile(r"(?<!\S)([^\w\s]*)\w\S*\.(?:cj|java|class|jar)\b"), r"\1 ", (".",)),
    (re.compile(r"(?<!\S)[^\s/\\]*[/\\]\S*"), " ", ("/", "\\")),
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
    for pattern, replacement, literals in _LOCATION_RES:
        if any(map(text.__contains__, literals)):
            text = pattern.sub(replacement, text)
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
    """What dimensions 1-3 read from one side of a comparison, derived once
    per query and once per stored case."""

    __slots__ = ("tags", "token_counts", "token_squares", "token_norm", "tokens")

    def __init__(self, error_info: str, tags: tuple[str, ...]):
        self.tags = set(tags) if tags else set(extract_error_tags(error_info))
        counts: dict[str, int] = {}
        for t in message_tokens(error_info):
            counts[t] = counts.get(t, 0) + 1
        self.token_counts = counts
        self.token_squares = sum(v * v for v in counts.values())
        self.token_norm = self.token_squares ** 0.5
        self.tokens = set(counts)


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


def _lcs_masks(a: list[str] | str) -> dict[str, int]:
    """Bit i of ``masks[sym]`` is set where ``a[i] == sym``: all ``_lcs_with`` and ``_levenshtein_with`` read of ``a``."""
    peq: dict[str, int] = {}
    for i, sym in enumerate(a):
        peq[sym] = peq.get(sym, 0) | (1 << i)
    return peq


def _lcs_with(peq: dict[str, int], la: int, b: list[str] | str) -> int:
    """The longest common subsequence length of ``a`` and ``b``, from
    ``_lcs_masks(a)`` and ``len(a)``, by the bit-parallel algorithm of Allison
    and Dix (IPL 1986) in Hyyrö's form (2004): after each symbol of ``b``, the
    zero bits of ``v`` at positions 0..i count the LCS of ``a[:i + 1]`` with the
    part of ``b`` read so far."""
    full = (1 << la) - 1
    v = full
    for sym in b:
        u = v & peq.get(sym, 0)
        v = ((v + u) | (v - u)) & full
    return la - v.bit_count()


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
    return _levenshtein_with(_lcs_masks(a), len(a), b)


def _levenshtein_with(peq: dict[str, int], la: int, b: str) -> int:
    """``levenshtein(a, b)`` from ``_lcs_masks(a)`` and ``len(a)``, exact in
    either length order: the order only sets how many times the loop runs."""
    full = (1 << la) - 1
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


def _message_scores(q: _Features, c: _Features) -> tuple[float, float, float]:
    """Dimensions 1-3: tags, keywords, term-frequency cosine."""
    return _jaccard(q.tags, c.tags), _jaccard(q.tokens, c.tokens), _cosine(q, c)


def _skeleton_score(qs: list[str], q_masks: dict[str, int], cs: list[str]) -> float:
    """Dimension 4, the skeleton LCS; ``q_masks`` is ``_lcs_masks(qs)``."""
    if not qs and not cs:
        return 1.0
    if not qs or not cs:
        return 0.0
    return _lcs_with(q_masks, len(qs), cs) / max(len(qs), len(cs))


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
    qa, cb = q.faulty_fragment, c.faulty_fragment
    qs = fragment_skeleton(qa)
    head = _message_scores(_Features(q.error_info, q.error_tags), _Features(c.error_info, c.error_tags)) + (
        _skeleton_score(qs, _lcs_masks(qs), fragment_skeleton(cb)),
    )
    s5, s6 = _fragment_bounds(len(qa), len(cb))
    if qa and cb:
        s5, s6 = _substring_score(qa, cb, _SuffixAutomaton(qa)), _edit_score(qa, cb)
    return _breakdown(head + (s5, s6), w)


# --- repository ----------------------------------------------------------------

class Repository:
    """In-memory case collection with line-delimited JSON persistence."""

    def __init__(self, cases: list[RepairCase] | None = None):
        self._cases: dict[str, RepairCase] = {}
        self._index = None
        self._skeletons: dict[str, list[str]] = {}
        for case in cases or []:
            self.add_case(case)

    def add_case(self, case: RepairCase) -> None:
        if case.id in self._cases:
            raise DuplicateCaseError(f"duplicate case id {case.id!r}")
        self._cases[case.id] = case
        self._index = None

    def _index_of(self) -> tuple:
        """``retrieve``'s inverted index, built on the first retrieval after
        a change: the cases; each tag's case positions; each token's
        (position, count) pairs; and each case's tag and token counts, sum
        of squared counts, norm and fragment length."""
        if self._index is None:
            cases, tags, tokens, stats = self.cases(), {}, {}, []
            for i, case in enumerate(cases):
                f = _Features(case.error_info, case.error_tags)
                for tag in f.tags:
                    tags.setdefault(tag, []).append(i)
                for token, n in f.token_counts.items():
                    tokens.setdefault(token, []).append((i, n))
                stats.append((len(f.tags), len(f.tokens), f.token_squares, f.token_norm, len(case.faulty_fragment)))
            self._index = cases, tags, tokens, stats
        return self._index

    def _skeleton_of(self, case: RepairCase) -> list[str]:
        """The case's fragment skeleton, kept from the first retrieval that
        scores the case: ids are unique and cases frozen."""
        skeleton = self._skeletons.get(case.id)
        if skeleton is None:
            skeleton = self._skeletons[case.id] = fragment_skeleton(case.faulty_fragment)
        return skeleton

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
    floor: float = 0.0,
) -> list[tuple[RepairCase, SimilarityBreakdown]]:
    """Top-k cases by weighted similarity, ties broken by case id.

    Equal to scoring every case with ``similarity`` and sorting whenever the
    best total reaches ``floor``, but only cases that can still enter the
    top k pay for dimensions 4-6. Each case gets a bound total from its
    exact dimensions 1-3, 1.0 for dimension 4 and the length bounds of 5-6.
    Dimensions 1-3 follow ``_jaccard``'s and ``_cosine``'s rules and
    divisions on the shared tags, shared tokens and dot product that one
    walk over the repository's inverted index gives each case.
    Cases are scored in descending bound order until a bound falls below
    the k-th total or ties it with a larger id, or until the best total so
    far and the bound are both below ``floor``: then no case reaches the
    floor, and the cases scored so far are returned. A case skips the
    automaton when its exact dimension 4 rules it out, and the edit
    distance when its exact dimension 5 does, or when it is ruled out by
    ``d >= max(la, lb) - LCS``: an alignment matches at most the longest
    common subsequence. The scores are non-negative, so a bound total needs
    no clamp to stay at or above the clamped true total.
    """
    if not len(repo):
        raise ValueError("repository is empty")
    if k <= 0:
        raise ValueError("k must be positive")
    weights = w or SimilarityWeights.uniform()
    probe = _Features(q.error_info, q.error_tags)
    qa = q.faulty_fragment
    qs = fragment_skeleton(qa)
    skeleton_masks, fragment_masks = _lcs_masks(qs), _lcs_masks(qa)

    cases, tag_postings, token_postings, stats = repo._index_of()
    shared_tags, shared_tokens, dots = ([0] * len(cases) for _ in range(3))
    for tag in probe.tags:
        for i in tag_postings.get(tag, ()):
            shared_tags[i] += 1
    for token, n in probe.token_counts.items():
        for i, m in token_postings.get(token, ()):
            shared_tokens[i] += 1
            dots[i] += n * m
    qt, qw, qsq = len(probe.tags), len(probe.tokens), probe.token_squares
    pending = []
    for case, st, sw, dot, (ct, cw, csq, norm, lb) in zip(cases, shared_tags, shared_tokens, dots, stats):
        if qw and cw:
            s3 = 1.0 if sw == qw == cw and dot == qsq == csq else dot / (probe.token_norm * norm)
        else:
            s3 = 0.0 if qw or cw else 1.0
        head = (st / (qt + ct - st) if qt or ct else 1.0, sw / (qw + cw - sw) if qw or cw else 1.0, s3)
        bounds = _fragment_bounds(len(qa), lb)
        pending.append((-_total(head + (1.0,) + bounds, weights), case.id, case, head, bounds))
    pending.sort(key=lambda item: item[:2])

    top: list[tuple[float, str, RepairCase, SimilarityBreakdown]] = []

    def ruled_out(neg_total: float, case_id: str) -> bool:
        return len(top) == k and (neg_total, case_id) > top[-1][:2]

    automaton = _SuffixAutomaton(qa)
    for neg_bound, case_id, case, head, (s5, s6) in pending:
        if ruled_out(neg_bound, case_id) or (top and -top[0][0] < floor and -neg_bound < floor):
            break
        head += (_skeleton_score(qs, skeleton_masks, repo._skeleton_of(case)),)
        if ruled_out(-_total(head + (s5, s6), weights), case_id):
            continue
        cb = case.faulty_fragment
        if qa and cb:
            s5 = _substring_score(qa, cb, automaton)
            if ruled_out(-_total(head + (s5, s6), weights), case_id):
                continue
            longest = max(len(qa), len(cb))
            s6 = 1.0 - (longest - _lcs_with(fragment_masks, len(qa), cb)) / longest
            if ruled_out(-_total(head + (s5, s6), weights), case_id):
                continue
            # The query's masks serve when its fragment is the longer one.
            d = _levenshtein_with(fragment_masks, len(qa), cb) if len(qa) > len(cb) else levenshtein(qa, cb)
            s6 = 1.0 - d / longest
        breakdown = _breakdown(head + (s5, s6), weights)
        bisect.insort(top, (-breakdown.total, case_id, case, breakdown), key=lambda item: item[:2])
        del top[k:]
    return [(case, breakdown) for _, _, case, breakdown in top]
