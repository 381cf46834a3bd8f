"""Similarity dimensions against hand-computed oracles; retrieval ranking
against exhaustive scans; repository persistence."""

import json
import random
import time
from dataclasses import fields

import pytest
from hypothesis import given, settings, strategies as st

from support import query_from_case

from j2cj.jsonl import JsonlError, read_jsonl
from j2cj.repair_engine import Branch, CompileStatus, IterationRecord, _record_signature
from j2cj.repair_repo import (
    DuplicateCaseError,
    ErrorQuery,
    RepairCase,
    Repository,
    SimilarityWeights,
    extract_error_tags,
    fragment_skeleton,
    levenshtein,
    message_tokens,
    normalize_diagnostic,
    retrieve,
    similarity,
    _lcs_length,
    _SuffixAutomaton,
)

UNIFORM = SimilarityWeights.uniform()


def make_case(case_id="c1", tags=("E1001",), error="error E1001: type mismatch",
              suggestion="use Int32", faulty="let x: Int = 5", corrected="let x: Int32 = 5"):
    return RepairCase(case_id, tuple(tags), error, suggestion, faulty, corrected)


# --- independent mini-oracles for the code dimensions ---------------------------

def lev_brute(a: str, b: str) -> int:
    dp = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        dp[i][0] = i
    for j in range(len(b) + 1):
        dp[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            dp[i][j] = min(dp[i - 1][j] + 1, dp[i][j - 1] + 1, dp[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
    return dp[-1][-1]


def substring_brute(a: str, b: str) -> int:
    best = 0
    for i in range(len(a)):
        for j in range(len(b)):
            k = 0
            while i + k < len(a) and j + k < len(b) and a[i + k] == b[j + k]:
                k += 1
            best = max(best, k)
    return best


def lcs_brute(a: list, b: list) -> int:
    dp = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            dp[i][j] = dp[i - 1][j - 1] + 1 if a[i - 1] == b[j - 1] else max(dp[i - 1][j], dp[i][j - 1])
    return dp[-1][-1]


# --- validation ------------------------------------------------------------------

def test_case_invariants():
    with pytest.raises(ValueError):
        make_case(error="")
    with pytest.raises(ValueError):
        make_case(corrected="")
    with pytest.raises(ValueError):
        make_case(faulty="same", corrected="same")
    with pytest.raises(ValueError):
        ErrorQuery("")


def test_weights_normalize_and_reject_bad_input():
    w = SimilarityWeights((2, 2, 2, 2, 2, 2))
    assert sum(w.values) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        SimilarityWeights((1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        SimilarityWeights((-1, 1, 1, 1, 1, 1))
    with pytest.raises(ValueError):
        SimilarityWeights((0, 0, 0, 0, 0, 0))


# --- per-dimension behavior ---------------------------------------------------------

def test_self_similarity_is_one():
    case = make_case()
    breakdown = similarity(query_from_case(case), case, UNIFORM)
    assert breakdown.scores == (1.0,) * 6
    assert breakdown.total == pytest.approx(1.0, abs=1e-12)


def test_self_similarity_with_empty_fragment_and_tags():
    case = make_case(tags=(), faulty="", corrected="let x = 1")
    breakdown = similarity(query_from_case(case), case, UNIFORM)
    assert breakdown.total == pytest.approx(1.0, abs=1e-12)


def test_tag_only_overlap_scores_one_sixth():
    case = make_case(tags=("E0001",), error="alpha beta gamma",
                     faulty="if (x) { y(); }", corrected="z()")
    query = ErrorQuery("delta epsilon zeta", "", ("E0001",))
    breakdown = similarity(query, case, UNIFORM)
    assert breakdown.scores == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    assert breakdown.total == pytest.approx(1 / 6, abs=1e-12)


def test_disjoint_inputs_score_below_015_with_hand_checked_dimensions():
    # Ten-ish-token inputs crafted so every dimension is tiny: disjoint tags,
    # no shared diagnostic tokens, and structurally unrelated fragments.
    case = make_case(
        tags=("E7777",),
        error="alpha beta gamma delta epsilon",
        faulty="if (alpha) { beta(); }",
        corrected="while (alpha) { beta(); }",
    )
    query = ErrorQuery(
        "omicron sigma tau upsilon phi",
        "return omega + psi;",
        ("E1111",),
    )
    breakdown = similarity(query, case, UNIFORM)

    assert breakdown.scores[0] == 0.0  # disjoint tag sets
    assert breakdown.scores[1] == 0.0  # disjoint token sets
    assert breakdown.scores[2] == 0.0  # orthogonal tf vectors
    skel_q, skel_c = fragment_skeleton(query.faulty_fragment), fragment_skeleton(case.faulty_fragment)
    assert breakdown.scores[3] == pytest.approx(
        lcs_brute(skel_q, skel_c) / max(len(skel_q), len(skel_c))
    )
    longest = max(len(query.faulty_fragment), len(case.faulty_fragment))
    assert breakdown.scores[4] == pytest.approx(
        substring_brute(query.faulty_fragment, case.faulty_fragment) / longest
    )
    assert breakdown.scores[5] == pytest.approx(
        1 - lev_brute(query.faulty_fragment, case.faulty_fragment) / longest
    )
    assert breakdown.total < 0.15


def test_code_dimensions_are_symmetric():
    a = make_case("a", (), "msg one", "s", "if (x) { f(); }", "g()")
    b = make_case("b", (), "msg two", "s", "for (i in 0..9) { h(); }", "k()")
    forward = similarity(query_from_case(a), b, UNIFORM)
    backward = similarity(query_from_case(b), a, UNIFORM)
    assert forward.scores[3:] == backward.scores[3:]


def test_one_hot_weights_project_single_dimension():
    case = make_case(tags=("E1",), error="alpha beta", faulty="if (x) {}", corrected="y")
    query = ErrorQuery("alpha beta", "if (x) {}", ("E9",))
    full = similarity(query, case, UNIFORM)
    for dim in range(6):
        one_hot = SimilarityWeights(tuple(1.0 if j == dim else 0.0 for j in range(6)))
        assert similarity(query, case, one_hot).total == pytest.approx(full.scores[dim])


def test_total_is_linear_in_weights():
    case = make_case()
    query = ErrorQuery("error E1001: something else", "let y = 2", ())
    w_a = SimilarityWeights((1, 0, 0, 0, 0, 0))
    w_b = SimilarityWeights((0, 1, 1, 1, 1, 1))
    blended = SimilarityWeights((0.5, 0.1, 0.1, 0.1, 0.1, 0.1))
    s_a = similarity(query, case, w_a).total
    s_b = similarity(query, case, w_b).total
    s_blend = similarity(query, case, blended).total
    assert s_blend == pytest.approx(0.5 * s_a + 0.5 * s_b)


_TEXT = st.text(alphabet="ab {};()\nxyz.:=+", max_size=60)


@settings(max_examples=150, deadline=None)
@given(error_q=st.text(min_size=1, max_size=40), error_c=st.text(min_size=1, max_size=40),
       frag_q=_TEXT, frag_c=_TEXT)
def test_similarity_bounded_for_arbitrary_inputs(error_q, error_c, frag_q, frag_c):
    case = RepairCase("c", (), error_c if error_c.strip() else "e", "s", frag_q, frag_q + " fixed")
    query = ErrorQuery(error_q if error_q.strip() else "e", frag_c, ())
    breakdown = similarity(query, case, UNIFORM)
    assert 0.0 <= breakdown.total <= 1.0
    assert all(0.0 <= s <= 1.0 for s in breakdown.scores)


def string_pairs(seed: int, long_pairs: int):
    """Short pairs over a small alphabet, a few 200-400-char pairs, and short
    pairs of CJK, astral-plane emoji and a musical symbol."""
    rng = random.Random(seed)
    for alphabet, count, sizes in (
        ("ab{};x ", 200, (0, 70)),
        ("ab{};x ", long_pairs, (200, 400)),
        ("漢字中文ab😀🎉𝄞 ", 100, (0, 70)),
    ):
        for _ in range(count):
            a = "".join(rng.choice(alphabet) for _ in range(rng.randint(*sizes)))
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(*sizes)))
            yield a, b


def test_levenshtein_matches_brute_force_small_and_vectorized():
    for a, b in string_pairs(11, long_pairs=8):
        assert levenshtein(a, b) == lev_brute(a, b)


def test_suffix_automaton_matches_brute_force():
    for a, b in string_pairs(12, long_pairs=3):
        assert _SuffixAutomaton(a).longest_common_substring(b) == substring_brute(a, b)
    assert _SuffixAutomaton("ab" * 150).longest_common_substring("ba" * 90 + "x") == 180


_BOUND_ALPHABET = "ab{};x \n漢字😀𝄞"
_BOUND_TEXT = st.text(_BOUND_ALPHABET, max_size=80)
_BOUND_PAIRS = st.one_of(
    st.tuples(_BOUND_TEXT, _BOUND_TEXT),
    # the same lines in another order
    st.lists(st.text(_BOUND_ALPHABET.replace("\n", ""), max_size=12), max_size=8).flatmap(
        lambda lines: st.tuples(st.just("\n".join(lines)), st.permutations(lines).map("\n".join))
    ),
    # the same characters in another order
    _BOUND_TEXT.flatmap(lambda a: st.tuples(st.just(a), st.permutations(a).map("".join))),
    # long runs of one character, one of them behind a short prefix
    st.tuples(st.sampled_from(_BOUND_ALPHABET), st.integers(0, 300), st.integers(0, 300), _BOUND_TEXT).map(
        lambda t: (t[0] * t[1], t[3][:5] + t[0] * t[2])
    ),
)


@settings(max_examples=300, deadline=None)
@given(pair=_BOUND_PAIRS)
def test_lcs_bounds_edit_distance_from_below(pair):
    # retrieve's LCS tier: an alignment matches at most LCS characters.
    a, b = pair
    lcs = _lcs_length(a, b)
    assert lcs == lcs_brute(a, b)
    assert max(len(a), len(b)) - lcs <= levenshtein(a, b)


def test_bit_parallel_lcs_matches_brute_force():
    rng = random.Random(13)
    symbols = ["if", "block", "for", "return", "while", "match"]
    for size in [(0, 40)] * 300 + [(100, 300)] * 5:
        a = [rng.choice(symbols) for _ in range(rng.randint(*size))]
        b = [rng.choice(symbols[: rng.randint(1, 6)]) for _ in range(rng.randint(*size))]
        assert _lcs_length(a, b) == lcs_brute(a, b)


def test_tag_extraction_table():
    assert "E1001" in extract_error_tags("error E1001: boom")
    assert "type_mismatch" in extract_error_tags("found incompatible types here")
    assert "unresolved_symbol" in extract_error_tags("cannot find symbol 'foo'")
    assert extract_error_tags("all well") == ()


def test_message_tokens_strip_noise():
    tokens = message_tokens("error at /src/main.cj:10:4: the type mismatch on line 10")
    assert "src" not in tokens
    assert "10" not in tokens
    assert "the" not in tokens
    assert "type" in tokens and "mismatch" in tokens


def test_the_normalizer_keeps_identifiers_that_look_like_locations():
    """``line2``, ``col7`` and ``buf0xff`` are names, not locations: they stay in
    the stagnation key and the retrieval tokens, while real locations go."""
    assert normalize_diagnostic("error: undefined symbol 'line2' at 0x1f, line 12, col 3") == (
        "error: undefined symbol 'line2' at , ,"
    )
    assert normalize_diagnostic("bad 'buf0xff' and 'col7'") == "bad 'buf0xff' and 'col7'"
    assert message_tokens("undefined symbol buf0xff at line 12 col 3 (0x1f)") == ["undefined", "symbol", "buf0xff"]

    def signature(text):
        return _record_signature(IterationRecord(0, "", Branch.INITIAL, CompileStatus.FAIL, text))

    moved = [signature(f"error: undefined symbol '{name}'") for name in ("line2", "col7", "buf0xff", "buf0x1f")]
    assert len(set(moved)) == 4
    assert signature("error: undefined symbol at line 12, col 3") == signature("error: undefined symbol at line 4, col 9")


_NUMBER = st.integers(0, 99_999).map(str)
_NAME = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,8}", fullmatch=True)
# One strategy per kind of compiler location.
_LOCATIONS = {
    "hex": st.from_regex(r"0x[0-9a-fA-F]{1,8}", fullmatch=True),
    "line:col": st.builds("{}:{}".format, _NUMBER, _NUMBER),
    "line, col": st.builds("line {}, col {}".format, _NUMBER, _NUMBER),
    "col": st.builds("{} {}".format, st.sampled_from(["col", "Col", "column", "COLUMN"]), _NUMBER),
    "file": _NAME.map(lambda name: name + ".cj"),
    "path": st.builds(
        lambda sep, parts: sep + sep.join(parts), st.sampled_from("/\\"), st.lists(_NAME, min_size=1, max_size=3)
    ),
}
_BODY_WORDS = ["error", "Error:", "E1001", "expected", "';'", "type", "mismatch", "Int64", "at", "near", "x"]


@settings(max_examples=300, deadline=None)
@given(
    head=st.lists(st.sampled_from(_BODY_WORDS), max_size=4),
    tail=st.lists(st.sampled_from(_BODY_WORDS), max_size=4),
    kinds=st.lists(st.sampled_from(sorted(_LOCATIONS)), min_size=1, max_size=3),
    data=st.data(),
)
def test_one_normalizer_ignores_where_an_error_is(head, tail, kinds, data):
    """One body with two locations of the same kinds: the stagnation key and
    the retrieval tokens agree, and no location adds a token."""
    a, b = (
        " ".join([*head, *(data.draw(_LOCATIONS[kind]) for kind in kinds), *tail])
        for _ in range(2)
    )
    assert normalize_diagnostic(a) == normalize_diagnostic(b)
    assert message_tokens(a) == message_tokens(b) == message_tokens(" ".join(head + tail))
    signatures = {
        _record_signature(IterationRecord(0, "", Branch.INITIAL, CompileStatus.FAIL, text)) for text in (a, b)
    }
    assert len(signatures) == 1


def test_fragment_skeleton_runs_in_linear_time(run_isolated):
    code = (
        "import json\n"
        "from j2cj.repair_repo import fragment_skeleton\n"
        "for text in json.loads(sys.stdin.read()):\n"
        "    print(fragment_skeleton(text))\n"
    )
    head = "if (x) { f(); }\n"
    texts = [
        head + "/* while { " * 100_000,  # each unclosed /* once scanned to the end
        # Each quote of an unclosed literal once scanned all the escapes after it.
        head + '"' + '\\"' * 100_000,
        head + "'" + "\\'" * 100_000 + "\\",
        head + '"' + '\\"' * 100_000 + "\\\n while {",
    ]
    result = run_isolated(code, stdin=json.dumps(texts), timeout=20)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "['if', 'block']\n" * 4


def test_unclosed_string_runs_to_the_end_of_the_text():
    assert fragment_skeleton('if (a) { s = "} while {"; }') == ["if", "block"]
    assert fragment_skeleton('if (a) { s = "unclosed; while (b) { }') == ["if", "block"]
    assert fragment_skeleton('if (a) { s = "a \\\n while {" }') == ["if", "block"]  # an escaped newline
    assert fragment_skeleton("for (;;) { c = '\\\\'; } else { '") == ["for", "block", "else", "block"]


# --- retrieval -----------------------------------------------------------------------

_WORDS = "alpha beta gamma delta mismatch undefined symbol type brace semicolon value".split()
_FRAGS = [
    "if (x) { f(); }",
    "for (i in 0..9) { g(i); }",
    "while (ready()) { poll(); }",
    "let total = a + b",
    "func main() { print(1) }",
    "match (k) { case 1 => one() }",
]


def random_case(rng: random.Random, case_id: str) -> RepairCase:
    error = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(3, 10)))
    faulty = rng.choice(_FRAGS)
    corrected = rng.choice([f for f in _FRAGS if f != faulty])
    tags = tuple(rng.sample(["E1", "E2", "E3", "E4"], rng.randint(0, 2)))
    return RepairCase(case_id, tags, error, "swap it", faulty, corrected)


def random_query(rng: random.Random) -> ErrorQuery:
    error = " ".join(rng.choice(_WORDS) for _ in range(rng.randint(3, 10)))
    return ErrorQuery(error, rng.choice(_FRAGS), tuple(rng.sample(["E1", "E2"], rng.randint(0, 1))))


def test_retrieve_head_matches_exhaustive_argmax():
    rng = random.Random(42)
    for _ in range(50):
        cases = [random_case(rng, f"case-{i:03d}") for i in range(rng.randint(1, 50))]
        repo = Repository(cases)
        query = random_query(rng)
        ranked = retrieve(query, repo, 5, UNIFORM)
        best = max(
            ((c, similarity(query, c, UNIFORM).total) for c in cases),
            key=lambda pair: (pair[1], -ord(pair[0].id[-1])),
        )
        assert ranked[0][1].total == pytest.approx(best[1])
        assert all(0.0 <= item[1].total <= 1.0 for item in ranked)
        totals = [item[1].total for item in ranked]
        assert totals == sorted(totals, reverse=True)


def code_fragment(rng: random.Random, size: int) -> str:
    """Code-like text of about ``size`` characters."""
    parts = []
    while sum(map(len, parts)) < size:
        parts.append(rng.choice(_FRAGS).replace("x", rng.choice("xyzw")))
    return "\n".join(parts)[:size]


def exhaustive_top_k(query, repo, k, w):
    scored = [(case, similarity(query, case, w)) for case in repo.cases()]
    return sorted(scored, key=lambda pair: (-pair[1].total, pair[0].id))[:k]


def equivalence_repository(rng: random.Random, kind: str) -> list[RepairCase]:
    """Cases whose fragments and messages repeat, so ties must break by id;
    a few have empty fragments. Ids are not in insertion order. "nested"
    fragments are prefixes of one text, where the length bounds of the
    fragment dimensions are attained. "reordered" fragments put the same
    lines in another order under one message, so their lengths and
    dimensions 1-3 are equal and the LCS bound on dimension 6 tells them
    apart; "same-message" cases all carry one message."""
    base = code_fragment(rng, 1500)
    message = " ".join(rng.sample(_WORDS, 5)) if kind in ("reordered", "same-message") else None
    cases = []
    for i in rng.sample(range(100), 30 if kind == "small" else 10):
        if cases and rng.random() < 0.3:
            source = rng.choice(cases)
            error, faulty = source.error_info, source.faulty_fragment
        else:
            error = message or " ".join(
                rng.choice(_WORDS[:4] if kind == "nested" else _WORDS) for _ in range(rng.randint(3, 6))
            )
            if kind == "reordered":
                lines = base.split("\n")
                faulty = "\n".join(rng.sample(lines, len(lines)))
            elif rng.random() < 0.15:
                faulty = ""
            elif kind == "small":
                faulty = rng.choice(_FRAGS)
            elif kind == "nested":
                faulty = base[: rng.randint(200, 1500)]
            else:
                faulty = code_fragment(rng, rng.randint(200, 1500))
        tags = () if message else tuple(rng.sample(["E1", "E2", "E3"], rng.randint(0, 2)))
        cases.append(RepairCase(f"case-{i:02d}", tags, error, "fix", faulty, faulty + " // fixed"))
    return cases


@pytest.mark.parametrize("kind", ["small", "kilobyte", "nested", "reordered", "same-message"])
def test_retrieve_equals_exhaustive_sort(kind):
    rng = random.Random(kind)
    cases = equivalence_repository(rng, kind)
    repo = Repository(cases)
    source = max(cases, key=lambda case: len(case.faulty_fragment))
    queries = [
        query_from_case(rng.choice(cases)),
        ErrorQuery(source.error_info, source.faulty_fragment[: len(source.faulty_fragment) // 2], source.error_tags),
        ErrorQuery(rng.choice(cases).error_info, "", ()),
        ErrorQuery("type mismatch here", rng.choice(_FRAGS) if kind == "small" else code_fragment(rng, 700), ("E2",)),
        ErrorQuery(source.error_info, "\n".join(reversed(source.faulty_fragment.splitlines())), source.error_tags),
    ]
    for query in queries:
        for w in (UNIFORM, SimilarityWeights((1, 1, 1, 1, 0, 0)), SimilarityWeights((0, 0, 0, 1, 1, 1))):
            expected = exhaustive_top_k(query, repo, len(cases), w)
            for k in range(1, len(cases) + 3):
                assert retrieve(query, repo, k, w) == expected[:k]


def test_retrieve_prunes_edit_distance_to_fewer_than_every_case(monkeypatch):
    rng = random.Random(217)
    cases = [
        RepairCase(
            f"case-{i:04d}",
            tuple(rng.sample(["E1", "E2", "E3", "E4"], rng.randint(0, 2))),
            " ".join(rng.choice(_WORDS) for _ in range(rng.randint(3, 10))),
            "fix",
            code_fragment(rng, 1024),
            "fixed",
        )
        for i in range(217)
    ]
    repo = Repository(cases)
    target = cases[123]
    calls = []
    monkeypatch.setattr("j2cj.repair_repo.levenshtein", lambda a, b: calls.append(1) or levenshtein(a, b))
    ranked = retrieve(query_from_case(target), repo, 1, UNIFORM)
    assert ranked[0][0] is target
    assert ranked[0][1].total == pytest.approx(1.0, abs=1e-12)
    assert 0 < len(calls) < len(repo)


def test_retrieve_prunes_edit_distance_on_the_lcs_bound(monkeypatch):
    # One message and equal-sized fragments: dimensions 1-3 and the length
    # bounds are nearly equal for every case, and no exact dimension 5 rules
    # a case out. Each case that reaches the LCS bound calls _lcs_length on
    # the fragments; every such call not followed by the edit distance is a
    # case that the bound pruned.
    rng = random.Random(40)
    message = " ".join(rng.sample(_WORDS, 6))
    cases = [
        RepairCase(f"case-{i:03d}", (), message, "fix", code_fragment(rng, rng.randint(900, 1100)), "fixed")
        for i in range(40)
    ]
    repo = Repository(cases)
    lines = rng.choice(cases).faulty_fragment.splitlines()
    query = ErrorQuery(message, "\n".join(reversed(lines)))
    lev_calls, lcs_calls = [], []
    monkeypatch.setattr("j2cj.repair_repo.levenshtein", lambda a, b: lev_calls.append(1) or levenshtein(a, b))
    monkeypatch.setattr(
        "j2cj.repair_repo._lcs_length", lambda a, b: isinstance(a, str) and lcs_calls.append(1) or _lcs_length(a, b)
    )
    for k in (1, 3):
        expected = exhaustive_top_k(query, repo, k, UNIFORM)
        lev_calls.clear()
        lcs_calls.clear()
        assert retrieve(query, repo, k, UNIFORM) == expected
        assert 0 < len(lev_calls) < len(lcs_calls)


def test_retrieve_orders_desc_with_stable_id_tiebreak():
    base = make_case("b", ("E1",), "same message", "s", "same frag", "other")
    clone = RepairCase("a", base.error_tags, base.error_info, "s2", base.faulty_fragment, "another")
    different = make_case("z", ("E9",), "entirely different words", "s", "x = 1", "x = 2")
    repo = Repository([base, clone, different])
    ranked = retrieve(query_from_case(base), repo, 3, UNIFORM)
    assert [case.id for case, _ in ranked] == ["a", "b", "z"]


def test_retrieve_k_larger_than_repo_returns_all_sorted():
    rng = random.Random(5)
    repo = Repository([random_case(rng, f"c{i}") for i in range(3)])
    ranked = retrieve(random_query(rng), repo, 10, UNIFORM)
    assert len(ranked) == 3


def test_retrieve_empty_repository_raises():
    with pytest.raises(ValueError):
        retrieve(ErrorQuery("boom"), Repository(), 3, UNIFORM)


def test_self_match_ranks_first_with_total_one():
    rng = random.Random(9)
    cases = [random_case(rng, f"c{i}") for i in range(3)]
    repo = Repository(cases)
    ranked = retrieve(query_from_case(cases[1]), repo, 1, UNIFORM)
    assert ranked[0][0].id == cases[1].id
    assert ranked[0][1].total == pytest.approx(1.0, abs=1e-12)


# --- persistence -----------------------------------------------------------------------

def test_repository_round_trip(tmp_path):
    rng = random.Random(3)
    repo = Repository([random_case(rng, f"c{i}") for i in range(10)])
    path = tmp_path / "repo.jsonl"
    repo.save(path)
    assert Repository.load(path).cases() == repo.cases()
    assert list(read_jsonl(path)[0]) == [f.name for f in fields(RepairCase)]


def test_duplicate_id_rejected():
    repo = Repository([make_case("dup")])
    with pytest.raises(DuplicateCaseError):
        repo.add_case(make_case("dup"))


def test_malformed_repository_file(tmp_path):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"id": "x"}\n', encoding="utf-8")
    with pytest.raises(JsonlError):
        Repository.load(path)
    path.write_text("not json\n", encoding="utf-8")
    with pytest.raises(JsonlError):
        Repository.load(path)


def test_capacity_217_cases_loads_and_retrieves_fast(tmp_path):
    rng = random.Random(217)
    repo = Repository([random_case(rng, f"case-{i:04d}") for i in range(217)])
    path = tmp_path / "repo.jsonl"
    repo.save(path)
    started = time.perf_counter()
    loaded = Repository.load(path)
    ranked = retrieve(random_query(rng), loaded, 3, UNIFORM)
    elapsed = time.perf_counter() - started
    assert len(loaded) == 217
    assert len(ranked) == 3
    assert elapsed < 1.0
