"""Parser-level behavior: tree shape, token order, error tolerance."""

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
from j2cj.javaparse import CATEGORIES, KEYWORDS, SyntaxNode, _lex, parse, parse_events, tree_has_errors


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


# Pre-order (category, is_terminal, child count) digests. Each token lands in
# the tree exactly once, in order (test_every_token_lands_in_the_tree_once), so
# the leaves fix which token each one is. Recorded from the trees of the parser
# as it was when byte spans were dropped from them; a refactor of javaparse
# must leave every one unchanged.
PINNED_TREES = [
    ('package a.b; import java.util.*; import static java.lang.Math.max;',
     "cfd3fdf373bd73207b2162ed2147bd4377aca49526be7322532b6b91101407d8"),
    ('record Point(int x, int y) implements Shape { Point(int x) { this(x, 0); } int sum() { return x + y; } static Point of() { return new Point(0, 0); } }',
     "29e659779030af936ec5e7056f86e0b29a4494961112831cd971ecbdd72f5ece"),
    ('record Empty();',
     "c40d8ab708843e2349ea7adaa7b37126a1e2360d8e1d081d6db9a57e00dd24e5"),
    ('enum Op implements F { PLUS("+") { int apply(int a, int b) { return a + b; } }, MINUS("-"), TIMES; private final String s; Op(String s) { this.s = s; } Op() { this(""); } }',
     "044a4cb2470cbff312252b2a3e128369c061c10b62d0819abff9fffb5336123d"),
    ('enum E { A, B, }',
     "84d8ff0fd32c2a49d82b67eda9c7f3989e07dc0956a021cca9684ac87276c309"),
    ('@interface Marker { int value() default 1; String[] names(); }',
     "14c4981b1f20fc0e5faa6eaf44ffa336340d155792483b737b4f3bd21037f305"),
    ('@Deprecated @SuppressWarnings("unchecked") public final class A<T extends Comparable<T>> extends B<T> implements C, D<List<T>> { }',
     "1acb3f993bd6fefff0f66138bea7e0cdf34f225586978a897268538f838f9d16"),
    ('class G { static <T, R> List<R> map(List<? extends T> xs, Function<? super T, ? extends R> f) { return null; } public <K> K id(K k) { return k; } }',
     "4be54c817b4217d8e2bef11500366995518e433f9ad57103ae8c183ea17d4cfb"),
    ('class L { Runnable r = () -> { run(); }; F f = x -> x * 2; G g = (int a, long b) -> a + b; H h = (p, q) -> { return p; }; I i = String::valueOf; }',
     "ecaf6d14cca95ec994430a30797e504975f49b2a4d372334e5695e22ad0e0c85"),
    ('class S { int f(int d) { return switch (d) { case 1, 2 -> 10; case 3 -> { yield 30; } default -> throw new X(); }; } }',
     "91ddde90da84a0f087dcc59f3b16afd1c6deb4fefe8a02aab43c38c28f397bcb"),
    ('class S { void g(int d) { switch (d) { case 1: a(); case 2: { b(); break; } default: c(); } } }',
     "a48c3d64d9ac2d7e4f8b27d99ec1b54cbbc49fdccbec4f6dff543c2056616c25"),
    ('class T { void t() throws IOException, E { try (var in = open(); Reader r = new Reader(in)) { read(in); } catch (IOException | RuntimeException e) { log(e); } finally { close(); } } }',
     "f8b4a3f2ab66e9f021a597434c938f85a10fc8cb8ec91a19cfa34f40f6d68418"),
    ('class T { void t() { try { a(); } catch (E e) { } try { } finally { } } }',
     "bcdf8f938f478dda365cc6135cafef7815c042f0d46654b705b65ed642370368"),
    ('class Arr { int[] a = new int[]{1, 2, 3}; int[][] b = new int[3][4]; int[][] c = {{1}, {2, 3}, {}}; String[] s = new String[n + 1]; Object o = new int[2][]{}; }',
     "d0607646f1121b8b740c6ac32534a8b8f4e85c4b182db7c89584b5f659bce4ce"),
    ('class F { void f(int[] xs, List<String> ys) { for (int x : xs) sum += x; for (final String y : ys) { } for (int i = 0, j = 1; i < n; i++, j--) { } for (;;) { break; } } }',
     "e8632ad88aabcd0aa8fbbb8a0cac9d6746fe877e58bd156e58c2cabcb4fb83d5"),
    ('class M { void m() { outer: for (;;) { inner: while (true) { continue outer; } } assert x > 0 : "bad"; assert y; synchronized (lock) { n++; } do { n--; } while (n > 0); } }',
     "e7a90503ad6247a71572a904c135c2a5b8b779ac5761c4c3a36e4880d4aead38"),
    ('class D { int legacy()[] { return null; } int a[], b[][] = {{1}}; void f(String args[], int... rest) { } void r(D this, final int n) { int c[] = new int[1]; } }',
     "c71b6154dbee8b8f09ba8334f432d291906a63c0d5ca223d35035e5ffe13adf6"),
    ('public interface Shape permits Circle, Square { default double area() { return 0; } static Shape unit() { return null; } } abstract class Base<T> extends Object implements Shape permits Leaf { }',
     "ecfcef42c75709f9fc66e846763dab8275423cbac353852790dfeb201058778a"),
    ('class Anon { Object o = new Runnable() { @Override public void run() { } }; static { init(); } { inst(); } Anon() { super(); } }',
     "8387543807ad3abbd8715bde440ff77eab2435ca75a9eeea9d0527825021c75e"),
    ('class Lit { String t = """\n  text block\n  """; char c = \'\\\'\'; long h = 0xFF_FFL; double d = 1.5e-3; float f = .5f; int b = 0b1010; String u = "héllo 世界"; }',
     "09e8d4a74c1751058b3276d36135993773eb1daf26888825c2d99175b32d8aba"),
    ('class Ops { boolean f(Object o) { return o instanceof String s && s.length() >= 2 || !(a != b) ? x << 2 >> 1 : y >>> 3; } void g() { a += 1; b -= 2; c *= 3; d /= 4; e %= 5; f &= 6; g |= 7; h ^= 8; i++; --j; } }',
     "9b91cadae5d1904313f9eeaa9c4dbef2f00db5b7f68ce2d593f6ce8bd86a317b"),
    ('class Loc { void f() { class Inner { } interface J { } enum K { X } final int z = 1, w; var v = List.of(1, 2); Map<String, List<Integer>> m = new HashMap<>(); } }',
     "ad37c0add29fa63bfc3b71e0ba675a03b26e03ee18b4fb0f20775937d40e1b2b"),
    ('class Gen { List<List<String>> a; Map.Entry<K, V> e; java.util.List<?> q; boolean lt = a < b && c > d; }',
     "279c35c66d6310f27e563344b6c443fc162976e6147dd9017e1d5bd5228ffe49"),
    ('class Bad { void f( { int x = ; } int ok() { return 1; } } public static ; int = 3;',
     "b4af457c55bba296cc69ea58807e3a6b765635672c455647850fe4d6b6fbb7b2"),
    ('class Err { int f() { return g(1, , 2) + h[; } void k() { x = y ? : z; } } } } @ # “',
     "a1a0e76bbf6bfdb6f79dc1564e756c5d7f2154e1d5210bf766c3764268932cf7"),
    ('// comment only\n/* block */ class C { /* inner { */ void m() { } // trailing }\n }',
     "2bd3cb0df4e7e4013ffaabed27ca074a2f963e52453684489c4595be3d113bca"),
    ('int x = 1; foo(); if (a) b(); else if (c) { d(); } else e(); while (x) x--; return; throw e;',
     "1b29acc270f915bc34e6961a9753b0a1ab559f8f1e9ba05d4efdda1b2a1b8435"),
]


def tree_digest(root: SyntaxNode) -> str:
    dump = "\n".join(f"{n.category} {int(n.is_terminal)} {len(n.children)}" for n in root.walk())
    return hashlib.sha256(dump.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("source,digest", PINNED_TREES, ids=[source for source, _ in PINNED_TREES])
def test_tree_digests_are_pinned(source, digest):
    assert tree_digest(parse(source)) == digest


def _load_make_synthetic():
    path = Path(__file__).resolve().parents[1] / "bench" / "make_synthetic.py"
    spec = importlib.util.spec_from_file_location("make_synthetic", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("make_synthetic", module)
    spec.loader.exec_module(module)
    return module


# sha256 over the pre-order (category, is_terminal, child count) dump of
# every Java file the benchmark generator writes for translate-mix and
# corpus-build at small size, seeds 1-10 (recorded, like PINNED_TREES, from
# the trees of the parser as it was when byte spans were dropped).
GENERATED_CORPUS_DIGEST = "fddad8b32373ad1f65519189e05a6c222a8ca6a0e1f10ff1ae4f0c1e4a696373"


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
            line = f"{n.category} {int(n.is_terminal)} {len(n.children)}\n"
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
    source = "".join(lexeme + " " for lexeme in lexemes)
    assert _lex(source)[1] == lexemes
    # The deadline only judges calls that return; the alarm ends one that
    # never would before its memory grows far.
    previous = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(2)
    try:
        kinds, events = parse_events(source)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    tokens = [event if event >= 0 else ~event for event in events if event.__class__ is int]
    assert tokens == list(range(len(kinds)))


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


# Oracle: the hand-written scanner that the regular-expression lexer replaced,
# kept as it was but for the token offsets. ``_lex`` must return the same
# (kind, text) list, except for the numeric characters that are not letters
# (test below).
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
            return Token(kind, text)

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
            return Token(op.group(), op.group())

        # Unknown byte: emit as a one-char ERROR terminal so parsing continues.
        self.pos = start + 1
        return Token("ERROR", ch)

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
        return Token(kind, src[start:i])

    def _text_block(self, start: int) -> Token:
        close = self.src.find('"""', start + 3)
        end = self.n if close < 0 else close + 3
        self.pos = end
        return Token("text_block", self.src[start:end])

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
        return Token(kind, src[start : self.pos])


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
    assert list(zip(*_lex(source))) == [(t.kind, t.text) for t in _Lexer(source).tokens()]


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
# (token count, kinds, the last token's text) as lexed in linear time.
LINEAR_LEXING = [
    ("x" + " " * 200_000, "1 ['identifier'] 'x'"),
    ("/*" * 50_000, "16666 ['*'] '*'"),  # the comment /*/*/, then the token *, repeated
    ('"' * 100_000, "16667 ['text_block'] '\"\"\"\"'"),
]


@pytest.mark.parametrize("source,expected", LINEAR_LEXING, ids=["trailing-whitespace", "comment-opens", "quotes"])
def test_tokenize_runs_in_linear_time(run_isolated, source, expected):
    code = (
        "from j2cj.javaparse import _lex\n"
        "kinds, texts = _lex(sys.stdin.read())\n"
        "print(len(kinds), sorted(set(kinds)), repr(texts[-1]))\n"
    )
    result = run_isolated(code, stdin=source, timeout=20)
    assert result.returncode == 0, result.stderr
    assert result.stdout == expected + "\n"


# A declaration whose type is a long dotted name, with (scoped type
# identifiers, generic types, ERROR nodes) in its tree. Each wrapper of the
# name once inserted its open event at the name's first event, moving every
# event after it: quadratic in the length of the name.
LINEAR_TYPES = [
    ("class A { void f() { " + "a." * 300_000 + "b c; } }", "300000 0 0"),
    ("class A { " + "a<b>." * 125_000 + "c d; }", "125000 125000 0"),
]


@pytest.mark.parametrize("source,expected", LINEAR_TYPES, ids=["dotted-local", "generic-dotted-field"])
def test_long_dotted_type_parses_in_linear_time(run_isolated, source, expected):
    code = (
        "from j2cj.javaparse import parse_events\n"
        "_, events = parse_events(sys.stdin.read())\n"
        "print(*(events.count(c) for c in ('scoped_type_identifier', 'generic_type', 'ERROR')))\n"
    )
    result = run_isolated(code, stdin=source, timeout=20)
    assert result.returncode == 0, result.stderr
    assert result.stdout == expected + "\n"
