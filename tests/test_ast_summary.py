"""Structural summaries: hand-traced golden set, invariants, prompt blocks.

Golden expectations were derived by hand-tracing DFS pre-order over the
grammar's internal nodes with the default retained category set, before
running the implementation.
"""

import random

import pytest

from support import extract_blocks

from j2cj.ast_summary import (
    DEFAULT_RETAINED_CATEGORIES,
    MarkerCollisionError,
    default_vocab,
    render_structured_prompt,
    structure_tokens,
    summarize,
    tokenize_structure,
)
from j2cj.javaparse import CATEGORIES, parse

# (source, hand-traced DFS summary under the default retained set)
GOLDEN = [
    ("class A {}", ["class_declaration", "class_body"]),
    (
        "int f(int x){ if(x>0){return 1;} return 0; }",
        ["method_declaration", "formal_parameters", "block", "if_statement", "block",
         "return_statement", "return_statement"],
    ),
    (
        "class A { void m() {} }",
        ["class_declaration", "class_body", "method_declaration", "formal_parameters", "block"],
    ),
    (
        "class A { A() {} }",
        ["class_declaration", "class_body", "constructor_declaration", "formal_parameters"],
    ),
    (
        "void loop() { for (int i = 0; i < 10; i++) { } }",
        ["method_declaration", "formal_parameters", "block", "for_statement", "block"],
    ),
    (
        "void each(int[] xs) { for (int x : xs) { use(x); } }",
        ["method_declaration", "formal_parameters", "block", "enhanced_for_statement", "block"],
    ),
    (
        "void w() { while (true) { break; } }",
        ["method_declaration", "formal_parameters", "block", "while_statement", "block"],
    ),
    (
        "void d() { do { poke(); } while (ready()); }",
        ["method_declaration", "formal_parameters", "block", "do_statement", "block"],
    ),
    (
        "int s(int k) { switch (k) { case 1: return 1; default: return 0; } }",
        ["method_declaration", "formal_parameters", "block", "switch_expression",
         "return_statement", "return_statement"],
    ),
    (
        "void t() { try { risky(); } catch (Exception e) { log(e); } finally { done(); } }",
        ["method_declaration", "formal_parameters", "block", "try_statement", "block",
         "catch_clause", "block", "block"],
    ),
    (
        "int neg(int x) { if (x < 0) return -1; else return 1; }",
        ["method_declaration", "formal_parameters", "block", "if_statement",
         "return_statement", "return_statement"],
    ),
    (
        'void t() { throw new IllegalStateException("boom"); }',
        ["method_declaration", "formal_parameters", "block", "throw_statement"],
    ),
    (
        "class Outer { class Inner { void m() {} } }",
        ["class_declaration", "class_body", "class_declaration", "class_body",
         "method_declaration", "formal_parameters", "block"],
    ),
    ("interface I { int f(); }", ["method_declaration", "formal_parameters"]),
    (
        "Runnable r = () -> { run(); };",
        ["lambda_expression", "formal_parameters", "block"],
    ),
    ("Function<Integer, Integer> f = x -> x + 1;", ["lambda_expression"]),
    (
        "class A { static { init(); } }",
        ["class_declaration", "class_body", "block"],
    ),
    (
        "enum E { A, B; void m() { } }",
        ["method_declaration", "formal_parameters", "block"],
    ),
    (
        "int max(int a, int b) { return a > b ? a : b; }",
        ["method_declaration", "formal_parameters", "block", "return_statement"],
    ),
    (
        "void multi() { if (a) { if (b) { f(); } } }",
        ["method_declaration", "formal_parameters", "block", "if_statement", "block",
         "if_statement", "block"],
    ),
    (
        "Object o = new Runnable() { public void run() { } };",
        ["class_body", "method_declaration", "formal_parameters", "block"],
    ),
    (
        'String pick(int k) { String s = switch (k) { case 1 -> "a"; default -> "b"; }; return s; }',
        ["method_declaration", "formal_parameters", "block", "switch_expression",
         "return_statement"],
    ),
    (
        "void g() { try (AutoCloseable c = open()) { use(c); } catch (Exception e) { } }",
        ["method_declaration", "formal_parameters", "block", "block", "catch_clause", "block"],
    ),
    (
        "class P { int x; P(int x) { this.x = x; } }",
        ["class_declaration", "class_body", "constructor_declaration", "formal_parameters"],
    ),
]


@pytest.mark.parametrize("source,expected", GOLDEN, ids=range(len(GOLDEN)))
def test_golden_summaries(source, expected):
    assert list(summarize(parse(source))) == expected


def test_empty_retained_set_is_rejected():
    with pytest.raises(ValueError):
        summarize(parse("class A {}"), frozenset())
    # The retained set is checked first, even for a source that does not parse cleanly.
    with pytest.raises(ValueError, match="^retained category set must be non-empty$"):
        structure_tokens("int x = ;", frozenset())


def test_vacuous_retention_yields_empty_summary():
    summary = summarize(parse("class A {}"), frozenset({"while_statement"}))
    assert summary == ()


# --- fuzz corpus ---------------------------------------------------------------

_STATEMENTS = [
    "int {v} = {n};",
    "{v} = {v} + {n};",
    "if ({v} > {n}) {{ {inner} }}",
    "if ({v} > {n}) {{ {inner} }} else {{ {inner} }}",
    "for (int i = 0; i < {n}; i++) {{ {inner} }}",
    "for (int e : data) {{ {inner} }}",
    "while ({v} < {n}) {{ {inner} }}",
    "do {{ {inner} }} while ({v} < {n});",
    "switch ({v}) {{ case {n}: {inner} break; default: break; }}",
    "try {{ {inner} }} catch (Exception ex) {{ {inner} }}",
    "return {v};",
    "throw new RuntimeException(\"e{n}\");",
    "Runnable r{n} = () -> {{ {inner} }};",
    "call({v}, x -> x + {n});",
    "System.out.println({v});",
    "int[] a{n} = new int[]{{{n}, {n}}};",
]

_MEMBERS = [
    "int field{n} = {n};",
    "void m{n}(int {v}) {{ {stmts} }}",
    "int g{n}(int {v}, String s) {{ {stmts} return {v}; }}",
    "static int h{n}() {{ {stmts} return 0; }}",
]


def _gen_statement(rng: random.Random, depth: int) -> str:
    template = rng.choice(_STATEMENTS if depth < 2 else _STATEMENTS[:2] + _STATEMENTS[-2:])
    inner = _gen_statement(rng, depth + 1) if depth < 2 else "ping();"
    return template.format(v=rng.choice("xyz"), n=rng.randint(0, 99), inner=inner)


def gen_snippet(rng: random.Random) -> str:
    members = []
    for index in range(rng.randint(1, 3)):
        stmts = " ".join(_gen_statement(rng, 0) for _ in range(rng.randint(1, 3)))
        # At least one method so every snippet has a retained declaration.
        template = _MEMBERS[1] if index == 0 else rng.choice(_MEMBERS)
        members.append(template.format(n=rng.randint(0, 99), v=rng.choice("xyz"), stmts=stmts))
    if rng.random() < 0.8:
        return "class C { " + " ".join(members) + " }"
    return " ".join(members)


def test_fuzz_no_terminal_categories_and_length_bound():
    rng = random.Random(20240811)
    for _ in range(1000):
        source = gen_snippet(rng)
        tree = parse(source)
        summary = summarize(tree, DEFAULT_RETAINED_CATEGORIES)
        terminal_categories = {n.category for n in tree.walk() if n.is_terminal}
        assert not terminal_categories & set(summary)
        assert len(summary) <= sum(1 for node in tree.walk() if not node.is_terminal)


def test_declaration_sources_have_nonempty_summaries():
    rng = random.Random(7)
    for _ in range(100):
        summary = summarize(parse(gen_snippet(rng)))
        assert len(summary) > 0


# --- vocab ----------------------------------------------------------------------

def test_default_vocab_is_injective_and_total():
    vocab = default_vocab(CATEGORIES)
    assert len(set(vocab.values())) == len(vocab)
    assert set(vocab) == set(CATEGORIES)
    assert vocab["if_statement"] == "<STRUCT:IF_STATEMENT>"
    assert default_vocab() == {c: vocab[c] for c in DEFAULT_RETAINED_CATEGORIES}


def test_tokenize_structure_examples():
    vocab = {"if_statement": "<STRUCT:IF>"}
    summary = summarize(parse("void f() { if (x) {} }"), frozenset({"if_statement"}))
    assert tokenize_structure(summary, vocab) == ["<STRUCT:IF>"]
    empty = summarize(parse("class A {}"), frozenset({"if_statement"}))
    assert tokenize_structure(empty, vocab) == []


# --- prompt rendering --------------------------------------------------------------

def test_prompt_block_order_and_content():
    prompt = render_structured_prompt(["<STRUCT:IF>"], "int x;", "Translate")
    assert prompt.index("Translate") < prompt.index("<<<STRUCT>>>") < prompt.index("<<<CODE>>>")
    tokens, source = extract_blocks(prompt)
    assert tokens == ["<STRUCT:IF>"]
    assert source == "int x;"


def test_empty_token_list_renders_empty_block():
    prompt = render_structured_prompt([], "class A {}", "Translate")
    tokens, source = extract_blocks(prompt)
    assert tokens == []
    assert source == "class A {}"


def test_marker_collision_is_rejected():
    with pytest.raises(MarkerCollisionError):
        render_structured_prompt([], "a <<<CODE>>> b", "Translate")
    with pytest.raises(MarkerCollisionError):
        render_structured_prompt([], "ok", "do <<<STRUCT>>>")


def test_round_trip_over_random_sources():
    rng = random.Random(99)
    alphabet = "abc {}()<>;=+\n\té∑"
    vocab = default_vocab()
    for _ in range(200):
        source = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 120)))
        tokens = tokenize_structure(summarize(parse("class A {}")), vocab)
        prompt = render_structured_prompt(tokens, source, "Translate this")
        assert extract_blocks(prompt) == (tokens, source)


def test_determinism_byte_identical_prompts():
    source = "class A { void m() { if (x) {} } }"
    vocab = default_vocab()

    def build() -> str:
        summary = summarize(parse(source))
        return render_structured_prompt(tokenize_structure(summary, vocab), source, "Translate")

    assert build() == build()
