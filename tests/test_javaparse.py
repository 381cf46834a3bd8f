"""Parser-level behavior: tree shape, spans, error tolerance."""

import hashlib
import importlib.util
import random
import re
import signal
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import javaparse_oracle
from javaparse_oracle import Token

from j2cj.ast_summary import DEFAULT_RETAINED_CATEGORIES, default_vocab, structure_tokens, summarize, tokenize_structure
from j2cj import javaparse
from j2cj.javaparse import CATEGORIES, KEYWORDS, SyntaxNode, _lex, _tokenize, parse, tree_has_errors


def kinds(node: SyntaxNode) -> list[str]:
    return [child.category for child in node.children]


def test_minimal_class_shape():
    root = parse("class A {}")
    assert root.category == "program"
    assert not root.is_terminal
    decl = root.children[0]
    assert decl.category == "class_declaration"
    assert kinds(decl) == ["class", "identifier", "class_body"]


def test_empty_source_has_no_children():
    root = parse("")
    assert root.children == []
    assert not tree_has_errors(root)


def test_unparseable_fragment_produces_error_node():
    root = parse("int x = ;")
    assert tree_has_errors(root)


def test_terminal_nodes_have_no_children():
    root = parse("class A { int f(int x) { return x + 1; } }")
    for node in root.walk():
        if node.is_terminal:
            assert node.children == []


def test_child_spans_are_ordered_and_contained():
    source = "class A { void m() { int total = 1 + 2; } }"
    root = parse(source)
    for node in root.walk():
        lo, hi = node.span
        assert lo <= hi
        previous_end = lo
        for child in node.children:
            assert child.span[0] >= previous_end
            assert child.span[1] <= hi
            previous_end = child.span[1]


def test_spans_are_byte_offsets():
    source = 'class A { String s = "héllo"; }'
    root = parse(source)
    data = source.encode("utf-8")
    leaves = [n for n in root.walk() if n.is_terminal]
    string_leaf = next(n for n in leaves if n.category == "string_literal")
    assert data[string_leaf.span[0] : string_leaf.span[1]].decode("utf-8") == '"héllo"'


def test_comments_and_strings_do_not_confuse_structure():
    source = """
    class A {
        // a comment with } and {
        /* another { */
        String s = "a } b { c;";
        char c = '{';
        void m() { }
    }
    """
    root = parse(source)
    assert not tree_has_errors(root)
    categories = [n.category for n in root.walk()]
    assert categories.count("method_declaration") == 1
    assert categories.count("class_body") == 1


def test_nested_generics_do_not_become_shift_operators():
    root = parse("class A { Map<String, List<Integer>> index = new HashMap<>(); }")
    assert not tree_has_errors(root)
    assert any(n.category == "generic_type" for n in root.walk())


def test_constructor_vs_method_distinction():
    root = parse("class A { A() {} int f() { return 0; } }")
    categories = [n.category for n in root.walk()]
    assert categories.count("constructor_declaration") == 1
    assert categories.count("method_declaration") == 1


def test_enhanced_for_and_classic_for():
    root = parse("class A { void m(int[] xs) { for (int x : xs) {} for (int i = 0; i < 2; i++) {} } }")
    categories = [n.category for n in root.walk()]
    assert categories.count("enhanced_for_statement") == 1
    assert categories.count("for_statement") == 1


def test_ternary_in_for_init_is_not_enhanced():
    root = parse("class A { void m(boolean b) { for (int i = b ? 1 : 0; i < 2; i++) {} } }")
    categories = [n.category for n in root.walk()]
    assert categories.count("for_statement") == 1
    assert categories.count("enhanced_for_statement") == 0


def test_wildcard_generic_in_enhanced_for_header():
    root = parse("class A { void m(List<List<? extends Number>> ls) { for (List<? extends Number> l : ls) {} } }")
    categories = [n.category for n in root.walk()]
    assert categories.count("enhanced_for_statement") == 1


def test_anonymous_class_body_is_discovered():
    root = parse("class A { Object o = new Runnable() { public void run() {} }; }")
    categories = [n.category for n in root.walk()]
    assert categories.count("class_body") == 2
    assert categories.count("method_declaration") == 1


def test_lambda_parameter_varieties():
    source = """
    class A {
        Runnable a = () -> {};
        F b = x -> x;
        G c = (int u, int v) -> u + v;
        H d = (p, q) -> p;
    }
    """
    root = parse(source)
    lambdas = [n for n in root.walk() if n.category == "lambda_expression"]
    assert len(lambdas) == 4
    param_kinds = sorted(l.children[0].category for l in lambdas)
    assert param_kinds == ["formal_parameters", "formal_parameters", "identifier", "inferred_parameters"]


def test_array_creation_initializer_is_not_a_class_body():
    root = parse("class A { int[] xs = new int[]{1, 2}; }")
    categories = [n.category for n in root.walk()]
    assert "array_initializer" in categories
    assert categories.count("class_body") == 1


def test_error_recovery_resumes_at_next_member():
    source = "class B { void f( { int x = ; } int ok() { return 1; } }"
    root = parse(source)
    assert tree_has_errors(root)
    methods = [n for n in root.walk() if n.category == "method_declaration"]
    assert any(not tree_has_errors(m) for m in methods)


def test_parser_always_terminates_on_garbage():
    for garbage in ["}}}", "((((", "class", "@@@ ???", "int int int", "\x00\x01", "“smart quotes”"]:
        root = parse(garbage)
        assert isinstance(root, SyntaxNode)


def test_internal_node_count_bounds_walk():
    source = "class A { void m() { if (x) { y(); } } }"
    root = parse(source)
    internal = sum(1 for node in root.walk() if not node.is_terminal)
    total = sum(1 for _ in root.walk())
    assert 0 < internal < total


@pytest.mark.parametrize(
    "source,expected",
    [
        ("package com.example.app;", "package_declaration"),
        ("import java.util.List;", "import_declaration"),
        ("import static java.lang.Math.max;", "import_declaration"),
    ],
)
def test_header_declarations(source, expected):
    root = parse(source)
    assert root.children[0].category == expected


def test_interface_enum_record_annotations():
    source = """
    @interface Marker { int value(); }
    interface I extends Other { default int f() { return 1; } }
    enum E implements I { A(1), B(2) { int g() { return 2; } }; E(int v) {} }
    record Point(int x, int y) { int sum() { return x + y; } }
    """
    root = parse(source)
    categories = [n.category for n in root.walk()]
    for expected in (
        "annotation_type_declaration",
        "interface_declaration",
        "interface_body",
        "enum_declaration",
        "enum_body",
        "enum_constant",
        "record_declaration",
        "constructor_declaration",
    ):
        assert expected in categories, expected


# Pre-order (category, is_terminal, span) digests recorded before the parser
# was restructured; a refactor of javaparse must leave every one unchanged.
PINNED_TREES = [
    ('package a.b; import java.util.*; import static java.lang.Math.max;',
     "d19110eb9f51c43d0f255fa46f8e639c8158ed3deebc3842466b7d54489657d0"),
    ('record Point(int x, int y) implements Shape { Point(int x) { this(x, 0); } int sum() { return x + y; } static Point of() { return new Point(0, 0); } }',
     "69c88afbaf544dd89ee81a94c3956048234d3ccc52f303f5a11a24f7d7f5d4f8"),
    ('record Empty();',
     "83fdcd96879132d9e71bf403566399e3f79f6ba8c37b138a466c2d411772f9db"),
    ('enum Op implements F { PLUS("+") { int apply(int a, int b) { return a + b; } }, MINUS("-"), TIMES; private final String s; Op(String s) { this.s = s; } Op() { this(""); } }',
     "15fc1787c94c271f01ac61ba34e83b5f384b5d9a1f4c7d8ab4a87d2f7ed007b6"),
    ('enum E { A, B, }',
     "3f58b861ab6cb31d8bc61df6423df7407b3a7d10b1be19ebab96f13e2346b101"),
    ('@interface Marker { int value() default 1; String[] names(); }',
     "1455cab751e1179d7d90f3ac649cc839f2e2939d8ff22ff3a6e4c6404370a3ef"),
    ('@Deprecated @SuppressWarnings("unchecked") public final class A<T extends Comparable<T>> extends B<T> implements C, D<List<T>> { }',
     "46872f667ed22d95696078141190fe7cc19b331c71594ea98686a1ed07e0dae2"),
    ('class G { static <T, R> List<R> map(List<? extends T> xs, Function<? super T, ? extends R> f) { return null; } public <K> K id(K k) { return k; } }',
     "952c0317c360439d2ace839338f0bfa763eb432cfabd5a8c62495a41e07faf74"),
    ('class L { Runnable r = () -> { run(); }; F f = x -> x * 2; G g = (int a, long b) -> a + b; H h = (p, q) -> { return p; }; I i = String::valueOf; }',
     "1cb96604247cac41008e293ef36d09f55730b2ad521639bc1e368fe235028888"),
    ('class S { int f(int d) { return switch (d) { case 1, 2 -> 10; case 3 -> { yield 30; } default -> throw new X(); }; } }',
     "00345a03aca3539a4775bc562471d157c073aff0996ac133037c310d1c80d123"),
    ('class S { void g(int d) { switch (d) { case 1: a(); case 2: { b(); break; } default: c(); } } }',
     "82795d0c432697932319326dddae7f6650773857dc45cb01852faf16f8bcb889"),
    ('class T { void t() throws IOException, E { try (var in = open(); Reader r = new Reader(in)) { read(in); } catch (IOException | RuntimeException e) { log(e); } finally { close(); } } }',
     "3e4570ca656b8c7873655618ebfdf256bda8ba0d6ead487caad6bd8235aaed4f"),
    ('class T { void t() { try { a(); } catch (E e) { } try { } finally { } } }',
     "de007f4db75b03e8feb1040059e62612c3270e04d9cc8c5dab3306c3c3704cad"),
    ('class Arr { int[] a = new int[]{1, 2, 3}; int[][] b = new int[3][4]; int[][] c = {{1}, {2, 3}, {}}; String[] s = new String[n + 1]; Object o = new int[2][]{}; }',
     "a1f21d2ce3bda857542c89cf8831253b835e69528fd91b4d286ec9a1977d823b"),
    ('class F { void f(int[] xs, List<String> ys) { for (int x : xs) sum += x; for (final String y : ys) { } for (int i = 0, j = 1; i < n; i++, j--) { } for (;;) { break; } } }',
     "7cc97ade1db877249d2ca7c6dd817a42decbd9712c82782e65c5f23ac60052bb"),
    ('class M { void m() { outer: for (;;) { inner: while (true) { continue outer; } } assert x > 0 : "bad"; assert y; synchronized (lock) { n++; } do { n--; } while (n > 0); } }',
     "b7301605a4952e312686463cfe391f93ffa11fd2212cf569ae62dcd0baebbd9b"),
    ('class D { int legacy()[] { return null; } int a[], b[][] = {{1}}; void f(String args[], int... rest) { } void r(D this, final int n) { int c[] = new int[1]; } }',
     "cbe83b7a5e9e7fb2cf69840bd6db59f22eb8bb27b748a36ace789dd67d4f7f31"),
    ('public interface Shape permits Circle, Square { default double area() { return 0; } static Shape unit() { return null; } } abstract class Base<T> extends Object implements Shape permits Leaf { }',
     "b045671a073f051a19f9740172a2f345ae0878352fab48186f4782e8d97744b8"),
    ('class Anon { Object o = new Runnable() { @Override public void run() { } }; static { init(); } { inst(); } Anon() { super(); } }',
     "0535246ca2025e666c4bd5b9c8054444c65d1a32cf38e485125810633e21ebc5"),
    ('class Lit { String t = """\n  text block\n  """; char c = \'\\\'\'; long h = 0xFF_FFL; double d = 1.5e-3; float f = .5f; int b = 0b1010; String u = "héllo 世界"; }',
     "8e4430609ef38db6b662e3fe83c1fe4282e719367a37578680a0e7f500517da8"),
    ('class Ops { boolean f(Object o) { return o instanceof String s && s.length() >= 2 || !(a != b) ? x << 2 >> 1 : y >>> 3; } void g() { a += 1; b -= 2; c *= 3; d /= 4; e %= 5; f &= 6; g |= 7; h ^= 8; i++; --j; } }',
     "9fe2064034bdde8630a2060d1ac00129e94689957170b290acb8110d2af60a92"),
    ('class Loc { void f() { class Inner { } interface J { } enum K { X } final int z = 1, w; var v = List.of(1, 2); Map<String, List<Integer>> m = new HashMap<>(); } }',
     "d1978d0739769b1296cf35f746ba2f4445de9c25f9029028c467aa16e6a0711c"),
    ('class Gen { List<List<String>> a; Map.Entry<K, V> e; java.util.List<?> q; boolean lt = a < b && c > d; }',
     "fff798538a4a4acb018bf996155e58bad06ee3a7d7901db4725c06f00a389e7c"),
    ('class Bad { void f( { int x = ; } int ok() { return 1; } } public static ; int = 3;',
     "6cd1019d61cf933dd6b7d7762744afca845503d41f62ba3b0bcb1e9c48144754"),
    ('class Err { int f() { return g(1, , 2) + h[; } void k() { x = y ? : z; } } } } @ # “',
     "babb1706ed6e1251d076932ff39e5866f24ce2bc8b46bab08e72b973f2681746"),
    ('// comment only\n/* block */ class C { /* inner { */ void m() { } // trailing }\n }',
     "a489f04094187355cf97bc871bcf322972583e369c9128d241f8d1f4acf542eb"),
    ('int x = 1; foo(); if (a) b(); else if (c) { d(); } else e(); while (x) x--; return; throw e;',
     "35df966194103f26bd9106c509aa7c821d254da5086198c67c1d104691f443c1"),
]


def tree_digest(root: SyntaxNode) -> str:
    dump = "\n".join(f"{n.category} {int(n.is_terminal)} {n.span[0]} {n.span[1]}" for n in root.walk())
    return hashlib.sha256(dump.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("source,digest", PINNED_TREES)
def test_tree_digests_are_pinned(source, digest):
    assert tree_digest(parse(source)) == digest


def _load_make_synthetic():
    path = Path(__file__).resolve().parents[1] / "bench" / "make_synthetic.py"
    spec = importlib.util.spec_from_file_location("make_synthetic", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("make_synthetic", module)
    spec.loader.exec_module(module)
    return module


# sha256 over the pre-order (category, is_terminal, span, child count) dump of
# every Java file the benchmark generator writes for translate-mix and
# corpus-build at small size, seeds 1-10 (recorded before any parser change).
GENERATED_CORPUS_DIGEST = "1291eb81f28e1e0e9b9cb940296bcfa3fe6a2344935b0639105482c2e1cdadec"


@pytest.fixture(scope="module")
def generated_java(tmp_path_factory) -> list[tuple[str, str]]:
    """(label, text) of every Java file the generator writes for translate-mix
    and corpus-build at small size, seeds 1-10."""
    make_synthetic = _load_make_synthetic()
    root = tmp_path_factory.mktemp("generated")
    files = []
    for workload in ("translate-mix", "corpus-build"):
        for seed in range(1, 11):
            out = root / workload / str(seed)
            make_synthetic.generate(workload, seed, out, small=True)
            for path in sorted(out.rglob("*.java")):
                files.append((f"{workload} {seed} {path.relative_to(out).as_posix()}", path.read_text(encoding="utf-8")))
    return files


def test_generated_corpus_trees_are_pinned(generated_java):
    digest = hashlib.sha256()
    for label, text in generated_java:
        digest.update(f"# {label}\n".encode("utf-8"))
        for n in parse(text).walk():
            line = f"{n.category} {int(n.is_terminal)} {n.span[0]} {n.span[1]} {len(n.children)}\n"
            digest.update(line.encode("utf-8"))
    assert len(generated_java) == 180
    assert digest.hexdigest() == GENERATED_CORPUS_DIGEST


HANGING_AT_PARENT = [
    "f(1;);",
    "x = f(a ] b);",
    "new A(1};",
    "enum E { A(1;) }",
    "int[] a = { 1; };",
    "x = (a ; b);",
    "record P(int x) { P { if (x < 0) throw new E(); } }",
]


@pytest.mark.parametrize("source", HANGING_AT_PARENT)
def test_stray_delimiter_terminates_with_error_tree(run_isolated, source):
    code = "from j2cj.javaparse import parse, tree_has_errors\nprint(tree_has_errors(parse(sys.stdin.read())))\n"
    result = run_isolated(code, stdin=source, timeout=20)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True\n"


def test_declared_categories_are_exactly_what_the_corpora_emit():
    from test_ast_summary import GOLDEN, gen_snippet

    rng = random.Random(5)
    sources = [
        *(source for source, _ in PINNED_TREES),
        *HANGING_AT_PARENT,
        *(source for source, _ in GOLDEN),
        *(gen_snippet(rng) for _ in range(1000)),
    ]
    emitted = {node.category for source in sources for node in parse(source).walk() if not node.is_terminal}
    assert emitted == CATEGORIES
    assert len(CATEGORIES) == 74
    assert DEFAULT_RETAINED_CATEGORIES <= CATEGORIES


def test_nesting_too_deep_becomes_one_error_node():
    source = "class B { void f() " + "{" * 600 + "}" * 600 + " }"
    root = parse(source)
    [error] = root.children
    assert error.category == "ERROR"
    assert len(error.children) == 1208
    assert all(leaf.is_terminal for leaf in error.children)
    assert root.span == error.span == (0, len(source))
    assert tree_has_errors(root)


SOUP_LEXEMES = sorted(KEYWORDS) + [
    "record", "permits", "var", "x", "Foo", "1", "0x1F", "2.5f", "'c'", '"s"',
    "...", "->", "::", "==", "!=", "<=", ">=", "&&", "||", "++", "--",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    *"{}()[];,.@?:=+-*/%&|^!~<>",
]


@settings(max_examples=300, deadline=1000)
@given(st.lists(st.sampled_from(SOUP_LEXEMES), max_size=60))
def test_every_token_lands_in_the_tree_once(lexemes):
    source, expected = "", []
    for lexeme in lexemes:
        expected.append((len(source), len(source) + len(lexeme)))
        source += lexeme + " "
    # The deadline only judges calls that return; the alarm ends one that
    # never would before its memory grows far.
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(2)
    try:
        root = parse(source)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    spans = [n.span for n in root.walk() if n.is_terminal and n.span[0] < n.span[1]]
    assert spans == expected


def _timeout(signum, frame):
    raise TimeoutError("parse did not return")


def assert_matches_oracle(source: str) -> None:
    """The event parser's tree is the recursive oracle's, and ``structure_tokens``
    is the tree path's tokens, raising exactly when the tree holds an ERROR node."""
    tree = parse(source)
    assert tree == javaparse_oracle.parse(source)
    for retained in (DEFAULT_RETAINED_CATEGORIES, CATEGORIES):
        if tree_has_errors(tree):
            with pytest.raises(ValueError, match="^java source does not parse cleanly$"):
                structure_tokens(source, retained)
        else:
            assert structure_tokens(source, retained) == tokenize_structure(
                summarize(tree, retained), default_vocab(retained))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(SOUP_LEXEMES), max_size=60))
@example(["class", "A", "{", "int", "x", "=", ";", "}"])
def test_event_parser_matches_the_oracle_on_token_soup(lexemes):
    assert_matches_oracle(" ".join(lexemes))


def test_event_parser_matches_the_oracle_on_fixed_sources():
    from test_ast_summary import GOLDEN, gen_snippet

    rng = random.Random(20240811)  # the fuzz corpus of test_ast_summary
    sources = [
        *(source for source, _ in PINNED_TREES),
        *HANGING_AT_PARENT,
        *(source for source, _ in GOLDEN),
        *(gen_snippet(rng) for _ in range(1000)),
        "class A { int x = ; }",
        "class A { int x = 1 # 2; }",
        "",
    ]
    for source in sources:
        assert_matches_oracle(source)


def test_event_parser_matches_the_oracle_on_the_generated_corpus(generated_java):
    for _, text in generated_java:
        assert_matches_oracle(text)


# Statements on both sides of try_parse_local_declaration's early return (a
# dotted name not followed by a name, '<' or '['), with the category of the
# statement each one becomes in a method body.
DECLARATION_EDGES = [
    ("a.b.c(x);", "expression_statement"),
    ("a.b = c;", "expression_statement"),
    ("a.this.x = 1;", "expression_statement"),
    ("a.b.C<T> x = y;", "local_variable_declaration"),
    ("a.B[] x;", "local_variable_declaration"),
    ("a[0] = 1;", "expression_statement"),
    ("var x = 1;", "local_variable_declaration"),
    ("x++;", "expression_statement"),
    ("f = x -> x;", "expression_statement"),
    ("record R(int a) {}", "expression_statement"),  # a local record is not told apart, in the oracle either
]


@pytest.mark.parametrize("statement,category", DECLARATION_EDGES)
def test_statements_at_the_declaration_edge_match_the_oracle(statement, category):
    in_body = f"class A {{ void m() {{ {statement} }} }}"
    assert_matches_oracle(in_body)
    assert_matches_oracle(f"class A {{ void m() {{ for ({statement} i < n; i++) {{ }} }} }}")
    block = next(node for node in parse(in_body).walk() if node.category == "block")
    assert block.children[1].category == category


# Oracle: the hand-written scanner that ``_tokenize`` replaced, kept as it
# was. ``_tokenize`` must return the same (kind, text, start, end) list,
# except for the numeric characters that are not letters (next test).
# '<' and '>' are always lexed alone (except '<=' / '>=') so that nested
# generics like List<List<String>> are not glued into shift operators.
# Alternatives are tried in order, so multi-character operators win.
_OP_RE = re.compile(
    "|".join(
        re.escape(op)
        for op in ("...", "->", "::", "==", "!=", "<=", ">=", "&&", "||", "++", "--",
                   "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=")
    )
    + "|[" + re.escape("{}()[];,.@?:=+-*/%&|^!~<>") + "]"
)


class _Lexer:
    def __init__(self, source: str):
        self.src = source
        self.pos = 0
        self.n = len(source)

    def tokens(self) -> list[Token]:
        out = []
        while True:
            self._skip_trivia()
            if self.pos >= self.n:
                break
            out.append(self._next_token())
        return out

    def _skip_trivia(self):
        src, n = self.src, self.n
        while self.pos < n:
            ch = src[self.pos]
            if ch.isspace():
                self.pos += 1
            elif ch == "/" and self.pos + 1 < n and src[self.pos + 1] == "/":
                nl = src.find("\n", self.pos)
                self.pos = n if nl < 0 else nl + 1
            elif ch == "/" and self.pos + 1 < n and src[self.pos + 1] == "*":
                close = src.find("*/", self.pos + 2)
                self.pos = n if close < 0 else close + 2
            else:
                return

    def _next_token(self) -> Token:
        src, start = self.src, self.pos
        ch = src[start]

        if ch.isalpha() or ch in "_$":
            self.pos += 1
            while self.pos < self.n and (src[self.pos].isalnum() or src[self.pos] in "_$"):
                self.pos += 1
            text = src[start : self.pos]
            kind = text if text in KEYWORDS else "identifier"
            return Token(kind, text, start, self.pos)

        if ch.isdigit() or (ch == "." and start + 1 < self.n and src[start + 1].isdigit()):
            return self._number(start)

        if src.startswith('"""', start):
            return self._text_block(start)
        if ch == '"':
            return self._quoted(start, '"', "string_literal")
        if ch == "'":
            return self._quoted(start, "'", "character_literal")

        op = _OP_RE.match(src, start)
        if op is not None:
            self.pos = op.end()
            return Token(op.group(), op.group(), start, self.pos)

        # Unknown byte: emit as a one-char ERROR terminal so parsing continues.
        self.pos = start + 1
        return Token("ERROR", ch, start, self.pos)

    def _number(self, start: int) -> Token:
        src, n = self.src, self.n
        i = start
        kind = "decimal_integer_literal"
        if src.startswith(("0x", "0X"), i):
            i += 2
            while i < n and (src[i] in "0123456789abcdefABCDEF_"):
                i += 1
            kind = "hex_integer_literal"
        elif src.startswith(("0b", "0B"), i):
            i += 2
            while i < n and src[i] in "01_":
                i += 1
            kind = "binary_integer_literal"
        else:
            while i < n and (src[i].isdigit() or src[i] == "_"):
                i += 1
            if i < n and src[i] == "." and not src.startswith("...", i):
                kind = "decimal_floating_point_literal"
                i += 1
                while i < n and (src[i].isdigit() or src[i] == "_"):
                    i += 1
            if i < n and src[i] in "eE":
                j = i + 1
                if j < n and src[j] in "+-":
                    j += 1
                if j < n and src[j].isdigit():
                    kind = "decimal_floating_point_literal"
                    i = j
                    while i < n and src[i].isdigit():
                        i += 1
        if i < n and src[i] in "fFdD":
            kind = "decimal_floating_point_literal"
            i += 1
        elif i < n and src[i] in "lL":
            i += 1
        self.pos = i
        return Token(kind, src[start:i], start, i)

    def _text_block(self, start: int) -> Token:
        close = self.src.find('"""', start + 3)
        end = self.n if close < 0 else close + 3
        self.pos = end
        return Token("text_block", self.src[start:end], start, end)

    def _quoted(self, start: int, quote: str, kind: str) -> Token:
        i = start + 1
        src, n = self.src, self.n
        while i < n:
            if src[i] == "\\":
                i += 2
            elif src[i] == quote or src[i] == "\n":
                i += 1
                break
            else:
                i += 1
        self.pos = min(i, n)
        return Token(kind, src[start : self.pos], start, self.pos)


def _lexed(tokens: list[Token]) -> list[tuple[str, str, int, int]]:
    return [(t.kind, t.text, t.start, t.end) for t in tokens]


# Lexemes glued together without separators, so numbers, quotes, comments
# and words run into each other. LEX_EDGES holds the edges of the number,
# literal and comment rules, then Unicode spaces, quotes, letters and Nd
# digits; it is drawn as often as SOUP_LEXEMES and as single characters.
# Unicode categories Nl and No are left out on purpose: their rule changed
# (test below).
LEX_EDGES = [
    "0x", "0b", "0B1", "0b1f", ".5", "1e", "1e+", "1e_1", "1..", "1...", "1_0", "0", "7",
    "e", "E", "_", "$", "f", "D", "L", '"', "'", '"""', '"""t"""', "/*", "*/", "//", "// c\n",
    "\\", "\n", "\t", " ", "#", "`", "\u00a0", "\u2003", "\u3000", "“", "é", "ж", "漢", "٣", "५", "０",
]
LEXEMES = st.sampled_from(LEX_EDGES) | st.sampled_from(SOUP_LEXEMES) | st.characters(exclude_categories=("Nl", "No"))


@settings(max_examples=1000, deadline=None)
@given(st.lists(LEXEMES, max_size=40))
@example(['"', "a", "\\"])
@example(["'", "\\"])
@example(['"""', "x", '"'])
@example(["/*", "*", "/"])
def test_tokenize_matches_the_hand_written_scanner(lexemes):
    source = "".join(lexemes)
    assert _lexed(javaparse_oracle.tokens(source)) == _lexed(_Lexer(source).tokens())


@settings(max_examples=1000, deadline=None)
@given(st.lists(LEXEMES, max_size=40))
@example([])
@example(["x", " \n"])
@example(["x", "// c"])
@example(["x", "/*"])
def test_lex_matches_tokenize(lexemes):
    """``parse_events``' lexer, which keeps no offsets, gives ``_tokenize``'s
    kinds, and the texts at ``_tokenize``'s offsets."""
    source = "".join(lexemes)
    kinds, texts = _lex(source)
    tokenized, _, starts, ends = _tokenize(source)
    assert kinds == tokenized
    assert texts == [source[start:end] for start, end in zip(starts, ends)]


def test_structure_tokens_computes_no_token_offsets(monkeypatch):
    source = "class A { int f(int x) { if (x > 0) { return x; } return -x; } }"
    expected = tokenize_structure(summarize(parse(source)), default_vocab())

    def offsets(source):
        raise AssertionError("token offsets computed")

    monkeypatch.setattr(javaparse, "_tokenize", offsets)
    assert structure_tokens(source) == expected


# (source, the scanner's tokens, tokens now): a numeric character that is
# not a letter (Unicode Nl or No) may start an identifier, as Nl may in
# JLS 17 §3.8, instead of starting a number or being an ERROR token.
NUMERIC_NOT_LETTER = [
    ("Ⅻ", [("ERROR", "Ⅻ")], [("identifier", "Ⅻ")]),
    ("½", [("ERROR", "½")], [("identifier", "½")]),
    ("²x", [("decimal_integer_literal", "²"), ("identifier", "x")], [("identifier", "²x")]),
    ("1²", [("decimal_integer_literal", "1²")], [("decimal_integer_literal", "1"), ("identifier", "²")]),
    ("x²Ⅻ", [("identifier", "x²Ⅻ")], [("identifier", "x²Ⅻ")]),
]


@pytest.mark.parametrize("source,before,now", NUMERIC_NOT_LETTER)
def test_numeric_characters_that_are_not_letters_start_identifiers(source, before, now):
    assert [(t.kind, t.text) for t in _Lexer(source).tokens()] == before
    assert [(t.kind, t.text) for t in javaparse_oracle.tokens(source)] == now


# Inputs on which a lexer that fails at a position and searches again from
# the next one takes minutes (each failure scans to the end of input), with
# (token count, kinds, end of the last token) as lexed in linear time.
LINEAR_LEXING = [
    ("x" + " " * 200_000, "1 ['identifier'] 1"),
    ("/*" * 50_000, "16666 ['*'] 99996"),  # the comment /*/*/, then the token *, repeated
    ('"' * 100_000, "16667 ['text_block'] 100000"),
]


@pytest.mark.parametrize("source,expected", LINEAR_LEXING, ids=["trailing-whitespace", "comment-opens", "quotes"])
def test_tokenize_runs_in_linear_time(run_isolated, source, expected):
    code = (
        "from j2cj.javaparse import _tokenize\n"
        "kinds, _, starts, ends = _tokenize(sys.stdin.read())\n"
        "print(len(kinds), sorted(set(kinds)), ends[-1])\n"
    )
    result = run_isolated(code, stdin=source, timeout=20)
    assert result.returncode == 0, result.stderr
    assert result.stdout == expected + "\n"
