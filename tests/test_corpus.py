"""Dataset construction: reconstruction, CPT serialization, filtering,
annotation, parallel samples, persistence round trips."""

import json
import re
from dataclasses import fields

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from support import transcript_of

from j2cj.ast_summary import default_vocab, summarize, tokenize_structure
from j2cj.corpus import (
    CPT_BOUNDARY,
    _EXTEND_RE,
    _IMPORT_RE,
    _balanced,
    AnnotationError,
    MonolingualSample,
    ParallelSample,
    ReconstructionError,
    SyntaxEntry,
    annotate_snippet,
    build_corpus,
    build_monolingual_sample,
    build_parallel_sample,
    filter_snippets,
    one_sentence,
    reconstruct_chapter,
    serialize_cpt,
    write_cpt_dataset,
    write_monolingual_dataset,
    write_parallel_dataset,
    write_syntax_entries,
)
from j2cj.javaparse import parse
from j2cj.jsonl import read_jsonl
from j2cj.llm import (
    DOC_RECONSTRUCTION_TEMPLATE,
    SEMANTIC_ANNOTATION_TEMPLATE,
    MockBackend,
    Transcript,
)

GOOD_ENTRY = {
    "id": "cj-if-001",
    "title": "Conditional statements",
    "tags": ["control-flow"],
    "typical_questions": ["How do I write an if expression?"],
    "description": "Cangjie if expressions evaluate a boolean condition.",
    "code_examples": ["if (x > 0) { print(\"pos\") }"],
}

SECOND_ENTRY = {
    "id": "cj-while-001",
    "title": "While loops",
    "tags": ["control-flow"],
    "typical_questions": ["How do I loop while a condition holds?"],
    "description": "While loops repeat their body while the condition is true.",
    "code_examples": ["while (i < 3) { i = i + 1 }"],
}

FIVE_LINE_SNIPPET = """func add(a: Int64, b: Int64): Int64 {
    let total = a + b
    println(total)
    return total
}"""


def mock_for(prompt: str, reply: str) -> MockBackend:
    return MockBackend(transcript_of([(prompt, reply)]))


def reconstruction_mock(chapter: str, reply: str) -> MockBackend:
    prompt = DOC_RECONSTRUCTION_TEMPLATE.render({"chapter": chapter})
    return mock_for(prompt, reply)


def annotation_mock(code: str, reply: str) -> MockBackend:
    prompt = SEMANTIC_ANNOTATION_TEMPLATE.render({"code": code})
    return mock_for(prompt, reply)


# --- reconstruction -----------------------------------------------------------------

def test_reconstruct_two_well_formed_entries():
    chapter = "# Conditionals\nCangjie has if expressions."
    reply = json.dumps([GOOD_ENTRY, SECOND_ENTRY])
    result = reconstruct_chapter(chapter, reconstruction_mock(chapter, reply))
    assert len(result.entries) == 2
    assert result.dropped == 0
    assert result.entries[0].id == "cj-if-001"


def test_reconstruct_drops_and_counts_malformed_entries():
    chapter = "# Loops"
    missing_id = {k: v for k, v in GOOD_ENTRY.items() if k != "id"}
    reply = json.dumps([GOOD_ENTRY, missing_id])
    result = reconstruct_chapter(chapter, reconstruction_mock(chapter, reply))
    assert len(result.entries) == 1
    assert result.dropped == 1


def test_reconstruct_accepts_fenced_json_reply():
    chapter = "# Types"
    reply = "```json\n" + json.dumps([GOOD_ENTRY]) + "\n```"
    result = reconstruct_chapter(chapter, reconstruction_mock(chapter, reply))
    assert len(result.entries) == 1


def test_reconstruct_empty_chapter_is_precondition_error():
    with pytest.raises(ValueError):
        reconstruct_chapter("  ", MockBackend(Transcript()))


def test_reconstruct_zero_valid_entries_raises_a_one_line_error():
    chapter = "# Broken"
    reply = json.dumps([{"id": "x"}])
    with pytest.raises(ReconstructionError) as err:
        reconstruct_chapter(chapter, reconstruction_mock(chapter, reply))
    assert str(err.value).splitlines() == ["reply yielded zero valid entries"]
    with pytest.raises(ReconstructionError):
        reconstruct_chapter(chapter, reconstruction_mock(chapter, "not json"))


def test_entry_invariants():
    with pytest.raises(ValueError):
        SyntaxEntry("", "t", (), ("q",), "d", ())
    with pytest.raises(ValueError):
        SyntaxEntry("x", "t", (), ("q",), "  ", ())
    with pytest.raises(ValueError):
        SyntaxEntry("x", "t", (), (), "d", ())  # no questions and no examples


# --- CPT serialization -----------------------------------------------------------------

def test_serialize_cpt_field_order_and_markers():
    entry = SyntaxEntry.from_record(GOOD_ENTRY)
    [record] = serialize_cpt([entry])
    positions = [record.index(f"[{name}]") for name in ("ID", "TITLE", "TAGS", "QUESTIONS", "DESCRIPTION", "EXAMPLES")]
    assert positions == sorted(positions)
    assert record.count(CPT_BOUNDARY) == 5


def test_serialize_cpt_zero_entries():
    assert serialize_cpt([]) == []


def test_serialize_cpt_markers_identical_across_records():
    records = serialize_cpt([SyntaxEntry.from_record(GOOD_ENTRY), SyntaxEntry.from_record(SECOND_ENTRY)])
    marker_lines_a = [l for l in records[0].splitlines() if CPT_BOUNDARY in l]
    marker_lines_b = [l for l in records[1].splitlines() if CPT_BOUNDARY in l]
    assert marker_lines_a == marker_lines_b == [CPT_BOUNDARY] * 5


# --- snippet filtering -------------------------------------------------------------------

def test_filter_rejects_short_snippets():
    outcome = filter_snippets(["let a = 1\nlet b = 2\nlet c = 3\nprintln(a)"])
    assert outcome.retained == []
    assert outcome.rejected == {"too_short": 1}


def test_filter_retains_std_import_snippet():
    for import_line in ["import std.collection.ArrayList", "from std import math.*"]:
        snippet = import_line + "\n" + FIVE_LINE_SNIPPET
        outcome = filter_snippets([snippet])
        assert outcome.retained == [snippet], import_line


def test_filter_rejects_unbalanced_braces_as_incomplete():
    snippet = FIVE_LINE_SNIPPET + "\nfunc g(): Unit {"
    outcome = filter_snippets([snippet])
    assert outcome.rejected == {"incomplete": 1}


def test_filter_rejects_third_party_imports():
    for import_line in [
        "import vendor.http.Client",
        "import stdx.net.http.*",  # shares a prefix with std, not a package
        "import stdlib.foo",
        "public import net.http.*",  # an access modifier does not hide the import
    ]:
        outcome = filter_snippets([import_line + "\n" + FIVE_LINE_SNIPPET])
        assert outcome.rejected == {"disallowed_import": 1}, import_line


def test_filter_rejects_extend_and_declaration_free_snippets():
    extend_snippet = "extend Int64 {\n    func double(): Int64 {\n        return this * 2\n    }\n}\nlet q = 1"
    fragment = "let a = 1\nlet b = 2\nlet c = 3\nlet d = 4\nlet e = 5"
    outcome = filter_snippets([extend_snippet, fragment])
    assert outcome.rejected == {"incomplete": 2}


def test_filter_conserves_counts():
    snippets = ["short", FIVE_LINE_SNIPPET, "import x.y\n" + FIVE_LINE_SNIPPET]
    outcome = filter_snippets(snippets)
    assert len(outcome.retained) + sum(outcome.rejected.values()) == len(snippets)


# Oracle: the per-character scan ``_balanced`` made before it walked only
# the brackets, kept as it was.
_PAIRS = {")": "(", "]": "[", "}": "{"}


def _balanced_per_character(stripped: str) -> bool:
    stack: list[str] = []
    for ch in stripped:
        if ch in "([{":
            stack.append(ch)
        elif ch in ")]}":
            if not stack or stack[-1] != _PAIRS[ch]:
                return False
            stack.pop()
    return not stack


_nested = st.recursive(
    st.text(alphabet="ab <>\n\"'", max_size=3),
    lambda inner: st.tuples(st.sampled_from(["()", "[]", "{}"]), st.lists(inner, max_size=3)).map(
        lambda t: t[0][0] + "".join(t[1]) + t[0][1]
    ),
)


@given(st.lists(_nested | st.sampled_from("()[]{}") | st.characters(), max_size=12).map("".join))
@example("(]")
@example("a)(b")
@example("{[()]}x")
def test_balanced_matches_the_per_character_scan(text):
    assert _balanced(text) == _balanced_per_character(text)


# Oracle: the import and extend patterns as they were before their leading
# blanks stopped at a newline, kept as they were.
_IMPORT_ORACLE_RE = re.compile(
    r"^\s*(?:(?:public|protected|internal|private)\s+)?(?:from\s+(\S+)\s+)?import\s+(\S+)", re.MULTILINE
)
_EXTEND_ORACLE_RE = re.compile(r"^\s*(?:public\s+)?extend\b", re.MULTILINE)
_LINE_PIECES = st.sampled_from(
    ["import", "from", "public", "private", "extend", "std.math", "x", "\n", " ", "\t", "\r", "\x0b", "\x1c", "\x85",
     "\u2028", "\u3000", "{"]
)


@given(st.lists(_LINE_PIECES | st.characters(), max_size=16).map("".join))
@example("\n\n  import std.math\n")
@example(" \n\t\npublic\n\nfrom std import\n x\n extend")
def test_import_and_extend_patterns_match_the_oracle(text):
    assert _IMPORT_RE.findall(text) == _IMPORT_ORACLE_RE.findall(text)
    assert bool(_EXTEND_RE.search(text)) == bool(_EXTEND_ORACLE_RE.search(text))


def test_filter_snippets_runs_in_linear_time(run_isolated):
    code = (
        "import json\n"
        "from j2cj.corpus import filter_snippets\n"
        "outcome = filter_snippets(json.loads(sys.stdin.read()))\n"
        "print(dict(outcome.rejected), len(outcome.retained))\n"
    )
    snippets = [
        # Five lines of 20,001 opening brackets, then five of closing ones:
        # 200 KB nested over 100,000 deep, with no declaration.
        "\n".join(["({[" * 6_667 + "("] * 5 + [")" + "]})" * 6_667] * 5),
        FIVE_LINE_SNIPPET + "\n" * 100_000,  # each line start once scanned all the blank lines after it
        FIVE_LINE_SNIPPET + "/* " * 100_000,  # each unclosed /* once scanned to the end
        # Each quote of an unclosed literal once scanned all the escapes after it.
        FIVE_LINE_SNIPPET + '"' + '\\"' * 100_000,
        FIVE_LINE_SNIPPET + "'" + "\\'" * 100_000 + "\\",
        FIVE_LINE_SNIPPET + '"""' + '\\"' * 100_000,
    ]
    result = run_isolated(code, stdin=json.dumps(snippets), timeout=20)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "{'incomplete': 1} 5\n"


def test_unclosed_string_runs_to_the_end_of_its_line():
    # The "{" is blanked out with its literal, and the final "}" is not.
    snippet = 'func f(): Unit {\n    let s = "{ unclosed\n    println(s)\n    return\n}'
    assert filter_snippets([snippet]).retained == [snippet]


def test_braces_inside_strings_do_not_unbalance():
    snippet = 'func f(): Unit {\n    let s = "}}}{{{"\n    println(s)\n    return\n}'
    outcome = filter_snippets([snippet])
    assert outcome.retained == [snippet]


# --- annotation ------------------------------------------------------------------------

def test_annotate_passes_reply_through():
    reply = "Compute the sum of a list."
    assert annotate_snippet(FIVE_LINE_SNIPPET, annotation_mock(FIVE_LINE_SNIPPET, reply)) == reply


def test_annotate_trims_to_first_sentence():
    reply = "Compute the sum. Then print it."
    result = annotate_snippet(FIVE_LINE_SNIPPET, annotation_mock(FIVE_LINE_SNIPPET, reply))
    assert result == "Compute the sum."


def test_annotate_empty_reply_is_error():
    with pytest.raises(AnnotationError):
        annotate_snippet(FIVE_LINE_SNIPPET, annotation_mock(FIVE_LINE_SNIPPET, "   "))


def test_one_sentence_rules():
    assert one_sentence("One. Two.") == "One."
    assert one_sentence("No terminator") == "No terminator"
    assert one_sentence('Prints "a. b" to stdout. Extra.') == 'Prints "a. b" to stdout.'
    assert one_sentence("Returns 3.14 as pi. More.") == "Returns 3.14 as pi."
    assert one_sentence("Does it work? Yes.") == "Does it work?"


def test_monolingual_sample_invariants():
    sample = build_monolingual_sample(FIVE_LINE_SNIPPET, "Add two integers.")
    assert sample.input == "Add two integers."
    with pytest.raises(ValueError):
        MonolingualSample("i", "Two sentences. Here.", FIVE_LINE_SNIPPET)
    with pytest.raises(ValueError):
        MonolingualSample("i", "One sentence.", "too\nshort")


# --- parallel samples ---------------------------------------------------------------------

JAVA_METHOD = "class A { static int f(int x) { return x + 1; } }"


def test_parallel_sample_structure_block_matches_pipeline():
    sample = build_parallel_sample(JAVA_METHOD, "func f(x: Int64): Int64 { x + 1 }")
    expected = tokenize_structure(summarize(parse(JAVA_METHOD)), default_vocab())
    assert list(sample.structure_block) == expected
    assert sample.structure_block[0] == "<STRUCT:CLASS_DECLARATION>"


def test_parallel_sample_minimal_class():
    sample = build_parallel_sample("class A {}", "class A {}")
    assert list(sample.structure_block) == ["<STRUCT:CLASS_DECLARATION>", "<STRUCT:CLASS_BODY>"]


def test_parallel_sample_preconditions():
    with pytest.raises(ValueError):
        build_parallel_sample("", "x")
    with pytest.raises(ValueError):
        build_parallel_sample(JAVA_METHOD, " ")
    with pytest.raises(ValueError):
        build_parallel_sample("int x = ;", "x")


def test_parallel_sample_marker_collision():
    from j2cj.ast_summary import MarkerCollisionError

    with pytest.raises(MarkerCollisionError):
        build_parallel_sample("class A { } // <<<CODE>>>", "x")


# --- persistence ----------------------------------------------------------------------------

def test_dataset_round_trips(tmp_path):
    entries = [SyntaxEntry.from_record(GOOD_ENTRY), SyntaxEntry.from_record(SECOND_ENTRY)]
    entries_path = tmp_path / "entries.jsonl"
    write_syntax_entries(entries, entries_path)
    assert read_jsonl(entries_path, SyntaxEntry.from_record) == entries
    assert list(read_jsonl(entries_path, dict)[0]) == [f.name for f in fields(SyntaxEntry)]

    records = serialize_cpt(entries)
    cpt_path = tmp_path / "cpt.jsonl"
    write_cpt_dataset(records, cpt_path)
    assert read_jsonl(cpt_path, lambda r: r["text"]) == records
    first = json.loads(cpt_path.read_text(encoding="utf-8").splitlines()[0])
    assert set(first) == {"text"}

    samples = [build_monolingual_sample(FIVE_LINE_SNIPPET, "Add numbers.")]
    mono_path = tmp_path / "mono.jsonl"
    write_monolingual_dataset(samples, mono_path)
    assert read_jsonl(mono_path, lambda r: MonolingualSample(r["instruction"], r["input"], r["output"])) == samples
    assert list(read_jsonl(mono_path, dict)[0]) == [f.name for f in fields(MonolingualSample)]

    parallel = [build_parallel_sample(JAVA_METHOD, "func f() {}")]
    par_path = tmp_path / "par.jsonl"
    write_parallel_dataset(parallel, par_path)
    assert read_jsonl(par_path, lambda r: ParallelSample(
        r["instruction"], tuple(r["structure_block"]), r["java_source"], r["cangjie_target"]
    )) == parallel
    assert list(read_jsonl(par_path, dict)[0]) == [f.name for f in fields(ParallelSample)]


# --- directory orchestration ------------------------------------------------------------------

def _chapter_fixture(tmp_path, count: int) -> tuple:
    chapters_dir = tmp_path / "chapters"
    chapters_dir.mkdir()
    pairs: list[tuple[str, str]] = []
    for i in range(count):
        chapter = f"# Chapter {i}\nConcept {i} of the Cangjie language."
        (chapters_dir / f"ch{i:03d}.md").write_text(chapter, encoding="utf-8")
        entry = dict(GOOD_ENTRY)
        entry["id"] = f"entry-{i:03d}"
        prompt = DOC_RECONSTRUCTION_TEMPLATE.render({"chapter": chapter})
        pairs.append((prompt, json.dumps([entry])))
    return chapters_dir, transcript_of(pairs)


def test_build_corpus_end_to_end(tmp_path):
    chapters_dir, transcript = _chapter_fixture(tmp_path, 3)

    snippets_dir = tmp_path / "snippets"
    snippets_dir.mkdir()
    (snippets_dir / "ok.cj").write_text(FIVE_LINE_SNIPPET, encoding="utf-8")
    (snippets_dir / "short.cj").write_text("let x = 1", encoding="utf-8")
    annotation_prompt = SEMANTIC_ANNOTATION_TEMPLATE.render({"code": FIVE_LINE_SNIPPET})
    transcript.add(annotation_prompt, "Add two integers and print the total.")

    pairs_dir = tmp_path / "pairs"
    pairs_dir.mkdir()
    (pairs_dir / "unit0.java").write_text(JAVA_METHOD, encoding="utf-8")
    (pairs_dir / "unit0.cj").write_text("func f(x: Int64): Int64 { x + 1 }", encoding="utf-8")
    (pairs_dir / "orphan.java").write_text(JAVA_METHOD, encoding="utf-8")

    out_dir = tmp_path / "out"
    stats = build_corpus(chapters_dir, snippets_dir, pairs_dir, out_dir, MockBackend(transcript))
    assert stats["chapters"] == 3
    assert stats["entries"] == 3
    assert stats["snippets_retained"] == 1
    assert stats["snippets_rejected"] == {"too_short": 1}
    assert stats["parallel_pairs"] == 1
    assert stats["parallel_skipped"] == 1
    assert any("orphan" in problem for problem in stats["errors"])
    for name in ("cpt.jsonl", "syntax_entries.jsonl", "monolingual.jsonl", "parallel.jsonl", "stats.json"):
        assert (out_dir / name).exists()


def test_build_corpus_rerun_is_byte_identical(tmp_path):
    chapters_dir, transcript = _chapter_fixture(tmp_path, 5)
    out_a = tmp_path / "out_a"
    out_b = tmp_path / "out_b"
    build_corpus(chapters_dir, None, None, out_a, MockBackend(transcript))
    build_corpus(chapters_dir, None, None, out_b, MockBackend(transcript))
    for name in ("cpt.jsonl", "syntax_entries.jsonl", "stats.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_build_corpus_duplicate_ids_are_dropped_and_counted(tmp_path):
    chapters_dir = tmp_path / "chapters"
    chapters_dir.mkdir()
    pairs = []
    for i in range(2):
        chapter = f"# Same {i}"
        (chapters_dir / f"c{i}.md").write_text(chapter, encoding="utf-8")
        prompt = DOC_RECONSTRUCTION_TEMPLATE.render({"chapter": chapter})
        pairs.append((prompt, json.dumps([GOOD_ENTRY])))  # same id twice
    stats = build_corpus(chapters_dir, None, None, tmp_path / "out", MockBackend(transcript_of(pairs)))
    assert stats["entries"] == 1
    assert stats["entries_dropped"] == 1


def test_build_corpus_empty_chapter_dir_is_error(tmp_path):
    empty = tmp_path / "chapters"
    empty.mkdir()
    with pytest.raises(ValueError):
        build_corpus(empty, None, None, tmp_path / "out", MockBackend(Transcript()))


def test_scale_sanity_paper_sized_datasets(tmp_path):
    """Capacity check at the paper's dataset sizes: 6779 entries, 3241
    monolingual samples, 2140 parallel samples, all through the writers
    and back."""
    entries = [
        SyntaxEntry(f"id-{i:05d}", f"title {i}", ("t",), (f"q {i}?",), f"desc {i}", (f"let v = {i}",))
        for i in range(6779)
    ]
    cpt_path = tmp_path / "cpt.jsonl"
    write_cpt_dataset(serialize_cpt(entries), cpt_path)
    assert len(read_jsonl(cpt_path, dict)) == 6779

    mono = [
        build_monolingual_sample(FIVE_LINE_SNIPPET, f"Add two integers, case {i}.")
        for i in range(3241)
    ]
    mono_path = tmp_path / "mono.jsonl"
    write_monolingual_dataset(mono, mono_path)
    assert len(read_jsonl(mono_path, dict)) == 3241

    parallel = [
        build_parallel_sample(JAVA_METHOD, f"func f(x: Int64): Int64 {{ x + {i} }}")
        for i in range(2140)
    ]
    par_path = tmp_path / "par.jsonl"
    write_parallel_dataset(parallel, par_path)
    assert len(read_jsonl(par_path, dict)) == 2140
