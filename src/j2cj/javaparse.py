"""Java lexer and parser producing flat pre-order events, and trees from them.

This is the default parser adapter behind the structural-summary machinery.
It is a tolerant recursive-descent parser: node categories follow the
tree-sitter-java naming scheme (class_declaration, if_statement, ...), and
unparseable stretches become ERROR nodes instead of raising, so slightly
malformed translation inputs still yield usable trees. Structure tokens
are read from ``parse_events``; ``parse`` builds the concrete syntax tree
from the same events, on demand. A replacement parser provides both.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import partial


@dataclass(slots=True)
class SyntaxNode:
    """One node of the concrete parse tree. Terminal nodes have no children."""

    category: str
    children: list["SyntaxNode"] = field(default_factory=list)
    is_terminal: bool = False

    def walk(self):
        """Yield this node and all descendants in DFS pre-order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while true false null""".split()
)

PRIMITIVE_TYPES = {
    "byte": "integral_type",
    "short": "integral_type",
    "int": "integral_type",
    "long": "integral_type",
    "char": "integral_type",
    "float": "floating_point_type",
    "double": "floating_point_type",
    "boolean": "boolean_type",
    "void": "void_type",
}

MODIFIER_KEYWORDS = frozenset(
    """public protected private static final abstract native synchronized
    transient volatile strictfp default""".split()
)

# Every category an internal (non-terminal) node of a parse tree can have.
CATEGORIES = frozenset(
    """program ERROR package_declaration import_declaration modifiers annotation
    marker_annotation annotation_argument_list class_declaration interface_declaration
    enum_declaration record_declaration annotation_type_declaration class_body
    interface_body enum_body annotation_type_body enum_constant superclass
    super_interfaces type_parameters type_arguments generic_type scoped_type_identifier
    array_type dimensions integral_type floating_point_type boolean_type void_type
    field_declaration method_declaration constructor_declaration constructor_body
    static_initializer formal_parameters formal_parameter spread_parameter
    inferred_parameters throws variable_declarator local_variable_declaration block
    expression_statement if_statement for_statement enhanced_for_statement
    while_statement do_statement switch_expression switch_block
    switch_block_statement_group switch_label switch_rule try_statement
    try_with_resources_statement resource_specification catch_clause
    catch_formal_parameter finally_clause return_statement throw_statement
    break_statement continue_statement assert_statement labeled_statement
    synchronized_statement expression parenthesized_expression lambda_expression
    argument_list array_creation_expression array_initializer object_creation_expression""".split()
)


# One match per token: the trivia before it (whitespace and comments), not
# captured, then the token, so ``findall`` gives the token texts; the trivia at
# the end of input comes with an empty token. The last alternative takes any
# character, as an ERROR token, so the engine never backtracks into the trivia.
# The kinds of token start with different characters, so the order of the
# alternatives matters only within a kind (0x before a decimal, a text block
# before a string, longer operators first) and for '.': a digit after it makes
# a number, tried before the operator. \s, \w and \d are Python's Unicode
# classes (str.isspace, str.isalnum or "_", str.isdecimal). '<' and '>' are
# lexed alone (except in '<=' and '>='), so that List<List<String>> is not
# read as a shift.
_TEXT_RE = re.compile(r"""
    (?: \s* (?: (?: //[^\n]* | /\*.*?(?:\*/|\Z) ) \s* )* )
    ( [^\W\d][\w$]* | \$[\w$]*                                     # word
    | 0[xX][0-9a-fA-F_]*[lL]? | 0[bB][01_]*[fFdDlL]?               # number; 1... is 1 ...
    | (?:\d[\d_]*(?:\.(?!\.\.)[\d_]*)? | \.\d[\d_]*) (?:[eE][+-]?\d+)? [fFdDlL]?
    | \"\"\".*?(?:\"\"\"|\Z)                                       # text block
    | "(?:[^"\\\n]|\\.)*["\n\\]? | '(?:[^'\\\n]|\\.)*['\n\\]?       # string, character: up to
                                                                   # a quote, newline or the end
    | \.\.\. | -> | :: | [=!<>]= | && | \|\| | \+\+ | -- | [-+*/%&|^]=  # operator
    | [{}()\[\];,.@?:=+\-*/%&|^!~<>]
    | . | \Z )                                                     # ERROR; the end of input
    """, re.VERBOSE | re.DOTALL)


def _lex(source: str) -> tuple[list[str], list[str]]:
    """The kinds and texts of the tokens of ``source``. A character no rule
    takes is an ERROR token."""
    texts = _TEXT_RE.findall(source)
    while texts and not texts[-1]:  # the end of input
        texts.pop()
    return _kinds(texts), texts


def _kinds(texts: list[str]) -> list[str]:
    """The kind of each token text, told once per distinct text."""
    kind_of = {text: _kind(text) for text in set(texts)}
    return list(map(kind_of.__getitem__, texts))


def _kind(text: str) -> str:
    """The kind of a token's text, told by its first character; a keyword or
    an operator is its own kind."""
    first = text[0]
    if first == '"':
        return "text_block" if text[:3] == '"""' else "string_literal"
    if first == "'":
        return "character_literal"
    if first.isdecimal() or first == "." and text[1:2].isdecimal():
        if text[:2] in ("0x", "0X"):
            return "hex_integer_literal"
        if any(ch in ".eEfFdD" for ch in text):
            return "decimal_floating_point_literal"
        return "binary_integer_literal" if text[:2] in ("0b", "0B") else "decimal_integer_literal"
    if first.isalnum() or first in "_$":
        return text if text in KEYWORDS else "identifier"
    return text if len(text) > 1 or text in "{}()[];,.@?:=+-*/%&|^!~<>" else "ERROR"


class _Parser:
    """Recursive descent with index-based backtracking, into flat events.

    A method that parses something appends its events and returns its mark,
    the index of its first event, or None when it appended nothing. ``node``
    inserts a node's open event at the mark of its first child once the
    category is known; backtracking truncates the events back to a mark.
    """

    __slots__ = ("kinds", "texts", "n", "pos", "events")

    def __init__(self, kinds: list[str], texts: list[str]):
        self.kinds, self.texts = kinds, texts
        self.n = len(kinds)
        self.pos = 0
        self.events: list = []

    # -- token utilities -------------------------------------------------

    def peek(self) -> str | None:
        return self.kinds[self.pos] if self.pos < self.n else None

    def text(self) -> str:
        return self.texts[self.pos]

    def at(self, kind: str, offset: int = 0) -> bool:
        i = self.pos + offset
        return i < self.n and self.kinds[i] == kind

    def take(self, event: int | None = None) -> int:
        """Append the next token (as ``event`` when given) and return its mark."""
        self.events.append(self.pos if event is None else event)
        self.pos += 1
        return len(self.events) - 1

    def take_if(self, kind: str) -> int | None:
        return self.take() if self.pos < self.n and self.kinds[self.pos] == kind else None

    def take_until(self, stop: set[str]) -> int | None:
        """Take tokens until a ``stop`` token or EOF."""
        kinds, start, end, mark = self.kinds, self.pos, self.pos, len(self.events)
        while end < self.n and kinds[end] not in stop:
            end += 1
        self.events.extend(range(start, end))
        self.pos = end
        return mark if end > start else None

    def dims(self) -> int | None:
        """Take ``[]`` pairs."""
        mark = len(self.events)
        while self.at("[") and self.at("]", 1):
            self.take()
            self.take()
        return mark if len(self.events) > mark else None

    def node(self, category: str, *children: int | None) -> int:
        """Close a node whose first child has the first mark that is not None
        in ``children``; with none, append a childless, terminal node."""
        events = self.events
        for mark in children:
            if mark is not None:
                events.insert(mark, category)
                events.append(None)
                return mark
        events.append((category,))
        return len(events) - 1

    def rewind(self, pos: int, mark: int) -> None:
        self.pos = pos
        del self.events[mark:]

    def error_until(self, sync: set[str], consume_sync: bool = True) -> int:
        """Consume tokens into an ERROR node until a sync token or EOF."""
        first = self.take_until(sync)
        last = self.take() if consume_sync and self.pos < self.n else None
        return self.node("ERROR", first, last)

    def sequence(self, stop: set[str], item, sep: str | None = None) -> None:
        """Parse ``item()``, each followed by an optional ``sep``, until a
        ``stop`` token or EOF. A pass that consumes nothing takes the next
        token as an ERROR node, so every sequence terminates."""
        kinds, n, events = self.kinds, self.n, self.events
        while (before := self.pos) < n and kinds[before] not in stop:
            item()
            if (pos := self.pos) < n and kinds[pos] == sep:
                events.append(pos)
                self.pos = pos = pos + 1
            if pos == before:
                self.node("ERROR", self.take())

    def _braced(self, category: str, item, sep: str | None = None) -> int:
        """``{`` items ``}``; the closing brace is optional at EOF."""
        mark = self.take()
        self.sequence({"}"}, item, sep)
        self.take_if("}")
        return self.node(category, mark)

    # -- entry point -----------------------------------------------------

    def parse_program(self) -> list:
        """The events of the whole token list (see ``parse_events``)."""
        try:
            self.events.append("program")
            self.sequence(set(), self.parse_top_level)
            self.events.append(None)
        except RecursionError:
            self.events = ["program", "ERROR", *range(self.n), None, None]
        return self.events

    def parse_top_level(self) -> int:
        kind = self.peek()
        if kind in ("package", "import"):
            return self.node(f"{kind}_declaration", self.take(), self.take_until({";"}), self.take_if(";"))
        return self.try_parse_member(in_class=False) or self.parse_statement()

    # -- declarations ----------------------------------------------------

    def parse_modifiers(self) -> int | None:
        mark = len(self.events)
        while self.pos < self.n:
            kind = self.kinds[self.pos]
            if kind == "@" and not self.at("interface", 1):
                self.parse_annotation()
            elif kind in MODIFIER_KEYWORDS:
                # 'default'/'synchronized' only act as modifiers before a member.
                if kind == "synchronized" and self.at("(", 1):
                    break
                if kind == "default" and (self.at(":", 1) or self.at("->", 1)):
                    break
                self.take()
            else:
                break
        return self.node("modifiers", mark) if len(self.events) > mark else None

    def parse_annotation(self) -> int:
        mark = self.take()  # '@'
        while self.at("identifier"):
            self.take()
            if self.take_if(".") is None:
                break
        if self.at("("):
            self._balanced("annotation_argument_list", "(", ")")
            return self.node("annotation", mark)
        return self.node("marker_annotation", mark)

    def _balanced(self, category: str, open_kind: str, close_kind: str) -> int:
        """Consume a balanced delimiter group shallowly (no inner structure)."""
        mark = self.take()
        depth = 1
        while self.pos < self.n and depth > 0:
            if self.at(open_kind):
                depth += 1
            elif self.at(close_kind):
                depth -= 1
            self.take()
        return self.node(category, mark)

    def try_parse_member(self, in_class: bool) -> int | None:
        """Class member or top-level declaration; None if not a declaration."""
        start, mark = self.pos, len(self.events)
        if self.at("static") and self.at("{", 1):
            return self.node("static_initializer", self.take(), self.parse_block())
        if in_class and self.at("{"):
            return self.parse_block()

        mods = self.parse_modifiers()

        kind = self.peek()
        if kind is None:
            return self.rewind(start, mark)
        decl = self._type_declaration(mods)
        if decl is not None:
            return decl
        if kind == "@" and self.at("interface", 1):
            return self.node(
                "annotation_type_declaration", mods, self.take(), self.take(), self.take_if("identifier"),
                self._balanced("annotation_type_body", "{", "}") if self.at("{") else None,
            )
        if kind == "identifier" and self.text() == "record" and self.at("identifier", 1) and self.at("(", 2):
            return self.parse_record(mods)

        # Constructor: bare identifier followed by '(' inside a class body.
        if in_class and kind == "identifier" and self.at("(", 1):
            return self.parse_constructor(mods)

        # Generic method: type parameters before the return type.
        type_params = None
        if self.at("<") and (type_params := self._angle_group("type_parameters")) is None:
            return self.rewind(start, mark)

        ty = self.try_parse_type()
        if ty is not None and self.at("identifier"):
            name = self.take()
            if self.at("("):
                return self.parse_method(mods, type_params, ty)
            if type_params is None:
                decl = self.parse_variable_rest(mods, ty, name, "field_declaration" if in_class else "local_variable_declaration")
                if decl is not None:
                    return decl

        self.rewind(start, mark)
        if mods is not None or type_params is not None:
            # Modifiers with nothing valid after them: error recovery.
            return self.error_until({";", "}"})
        return None

    def _type_declaration(self, mods: int | None) -> int | None:
        """A class, interface or enum declaration at the cursor, else None."""
        kind = self.peek()
        if kind in ("class", "interface"):
            return self.parse_class_like(f"{kind}_declaration", mods)
        return self.parse_enum(mods) if kind == "enum" else None

    def parse_class_like(self, category: str, mods: int | None) -> int:
        first = self.take()  # 'class' / 'interface'
        self.take_if("identifier")
        if self.at("<") and self._angle_group("type_parameters") is None:
            self.error_until({"{", ";"}, consume_sync=False)
        # 'extends'/'implements' clauses, plus contextual 'permits'.
        while self.peek() in ("extends", "implements") or (self.at("identifier") and self.text() == "permits"):
            clause = "superclass" if self.at("extends") else "super_interfaces"
            self.node(clause, self.take(), self.take_until({"{", "extends", "implements", ";"}))
        if self.at("{"):
            self.parse_class_body("class_body" if category == "class_declaration" else "interface_body")
        else:
            self.error_until({";", "}"})
        return self.node(category, mods, first)

    def parse_record(self, mods: int | None) -> int:
        return self.node(
            "record_declaration", mods, self.take(), self.take(), self.parse_formal_parameters(),  # 'record' name (...)
            self.take_until({"{", ";"}),  # 'implements' clause, kept flat
            self.parse_class_body() if self.at("{") else self.take_if(";"),
        )

    def parse_enum(self, mods: int | None) -> int:
        return self.node(
            "enum_declaration", mods, self.take(), self.take_if("identifier"),  # 'enum' name
            self.take_until({"{"}),  # 'implements' clause, kept flat
            self.parse_enum_body() if self.at("{") else None,
        )

    def parse_enum_body(self) -> int:
        # Constant list runs until ';' or '}', then optional members.
        mark = self.take()
        self.sequence({";", "}"}, self._enum_constant)
        if self.take_if(";") is not None:
            self.sequence({"}"}, self._class_member)
        self.take_if("}")
        return self.node("enum_body", mark)

    def _enum_constant(self) -> int:
        if self.at(","):
            return self.take()
        if not self.at("identifier"):
            return self.error_until({",", ";", "}"}, consume_sync=False)
        mark = self.take()
        arguments = self._argument_group() if self.at("(") else None
        return self.node("enum_constant", mark, arguments, self.parse_class_body() if self.at("{") else None)

    def parse_class_body(self, category: str = "class_body") -> int:
        return self._braced(category, self._class_member)

    def _class_member(self) -> int:
        return self.try_parse_member(in_class=True) or self.parse_statement()

    def parse_constructor(self, mods: int | None) -> int:
        return self.node(
            "constructor_declaration", mods, self.take(), self.parse_formal_parameters(), self._throws(),  # name (params)
            self.parse_block("constructor_body") if self.at("{") else self.error_until({";", "}"}),
        )

    def parse_method(self, mods: int | None, type_params: int | None, return_type: int) -> int:
        """The rest of a method declaration, after its name."""
        self.parse_formal_parameters()
        self.dims()  # legacy array dims after params
        self._throws()
        if self.at("{"):
            self.parse_block()
        else:
            self.take_if(";") or self.error_until({";", "}"})
        return self.node("method_declaration", mods, type_params, return_type)

    def _throws(self) -> int | None:
        if not self.at("throws"):
            return None
        return self.node("throws", self.take(), self.take_until({"{", ";"}))

    def parse_variable_rest(self, mods: int | None, ty: int, first_name: int, category: str) -> int | None:
        """Declarators after `type name`; None if this is not a declaration."""
        if self.peek() not in ("=", ";", ",", "["):
            return None
        self._declarator(first_name)
        while self.take_if(",") is not None:
            if self.at("identifier"):
                self._declarator(self.take())
            else:
                self.error_until({";", ","}, consume_sync=False)
        self.take_if(";") or self.error_until({";"})
        return self.node(category, mods, ty)

    def _declarator(self, name: int) -> int:
        self.dims()
        if self.take_if("=") is not None:
            self.parse_expression({";", ","}, required=True)
        return self.node("variable_declarator", name)

    # -- types -----------------------------------------------------------

    def try_parse_type(self, allow_dims: bool = True) -> int | None:
        start, mark = self.pos, len(self.events)
        kind = self.peek()
        if kind in PRIMITIVE_TYPES:
            base = self.node(PRIMITIVE_TYPES[kind], self.take())
        elif kind == "identifier":
            base = self._named_type()
            if base is None:
                return self.rewind(start, mark)
        else:
            return None
        dims = self.dims() if allow_dims else None
        if dims is not None:
            base = self.node("array_type", base, self.node("dimensions", dims))
        return base

    def _named_type(self) -> int | None:
        node = self.take(~self.pos)  # ~i: token i as a type_identifier
        while True:
            if self.at("<"):
                if self._angle_group("type_arguments") is None:
                    return None
                node = self.node("generic_type", node)
            if self.at(".") and self.at("identifier", 1):
                self.take()
                self.take(~self.pos)
                node = self.node("scoped_type_identifier", node)
            else:
                break
        return node

    def _angle_group(self, category: str) -> int | None:
        """Balanced <...> holding only type-ish tokens; None on mismatch."""
        start, mark = self.pos, self.take()  # '<'
        depth = 1
        while self.pos < self.n and depth > 0:
            k = self.kinds[self.pos]
            if k == "<":
                depth += 1
            elif k == ">":
                depth -= 1
            elif k in {";", "{", "}", ")", "(", "=", "&&", "||", "+", "-", "string_literal"}:
                # Cannot occur inside type arguments: this '<' was a comparison.
                return self.rewind(start, mark)
            self.take()
        if depth > 0:
            return self.rewind(start, mark)
        return self.node(category, mark)

    # -- parameters --------------------------------------------------------

    def parse_formal_parameters(self) -> int:
        sync = {")", "{", "}", ";"}
        mark = self.take()  # '('
        self.sequence(sync, lambda: self._formal_parameter() or self.error_until(sync | {","}, consume_sync=False), sep=",")
        self.take_if(")")
        return self.node("formal_parameters", mark)

    def _formal_parameter(self) -> int | None:
        start, mark = self.pos, len(self.events)
        mods = self.parse_modifiers()
        ty = self.try_parse_type()
        if ty is not None:
            spread = self.take_if("...")
            if (self.take_if("this") or self.take_if("identifier")) is not None:  # 'this': receiver parameter
                self.dims()
                return self.node("spread_parameter" if spread else "formal_parameter", mods, ty)
        return self.rewind(start, mark)

    def try_parse_strict_formal_parameters(self) -> int | None:
        """Strict variant for lambda parameter lists: every param is typed."""
        start, mark = self.pos, self.take()  # '('
        if not self.at(")"):
            while True:
                if self._formal_parameter() is None:
                    return self.rewind(start, mark)
                if self.take_if(",") is None:
                    break
        if self.take_if(")") is None:
            return self.rewind(start, mark)
        return self.node("formal_parameters", mark)

    # -- statements --------------------------------------------------------

    def parse_block(self, category: str = "block") -> int:
        return self._braced(category, self.parse_statement)

    def parse_statement(self) -> int:
        kind = self.peek()
        if kind is None:
            return self.node("ERROR")
        if kind == "{":
            return self.parse_block()
        if kind == ";":
            return self.take()
        if kind == "if":
            return self.parse_if()
        if kind == "while":
            return self.node("while_statement", self.take(), self.parse_parenthesized(), self.parse_statement())
        if kind == "do":
            mark = self.take()
            self.parse_statement()
            if self.take_if("while") is not None:
                self.parse_parenthesized()
            return self.node("do_statement", mark, self.take_if(";"))
        if kind == "for":
            return self.parse_for()
        if kind == "switch":
            return self.parse_switch()
        if kind == "try":
            return self.parse_try()
        if kind == "return":
            mark = self.take()
            expression = None if self.at(";") else self.parse_expression({";"}, required=True)
            return self.node("return_statement", mark, expression, self.take_if(";"))
        if kind == "throw":
            return self.node("throw_statement", self.take(), self.parse_expression({";"}, required=True), self.take_if(";"))
        if kind in ("break", "continue"):
            return self.node(f"{kind}_statement", self.take(), self.take_if("identifier"), self.take_if(";"))
        if kind == "synchronized":
            mark = self.take()
            lock = self.parse_parenthesized() if self.at("(") else None
            return self.node("synchronized_statement", mark, lock, self._optional_block())
        if kind == "assert":
            mark = self.take()
            self.parse_expression({";", ":"}, required=True)
            if self.take_if(":") is not None:
                self.parse_expression({";"}, required=True)
            return self.node("assert_statement", mark, self.take_if(";"))
        if kind == "identifier" and self.at(":", 1):
            return self.node("labeled_statement", self.take(), self.take(), self.parse_statement())

        # Local declarations inside class bodies / blocks.
        member = self.try_parse_local_declaration()
        if member is not None:
            return member

        return self.node("expression_statement", self.parse_expression({";"}, required=True), self.take_if(";"))

    def _optional_block(self) -> int | None:
        return self.parse_block() if self.at("{") else None

    def try_parse_local_declaration(self) -> int | None:
        start, mark = self.pos, len(self.events)
        kinds, n, i = self.kinds, self.n, start + 1
        if start < n and kinds[start] == "identifier":
            # A name, after any '.name', not followed by a name, '<' or '[':
            # no type and name, so no declaration, can start here.
            while i + 1 < n and kinds[i] == "." and kinds[i + 1] == "identifier":
                i += 2
            if i == n or kinds[i] not in ("identifier", "<", "["):
                return None
        mods = self.parse_modifiers()
        after_mods, after_mark = self.pos, len(self.events)
        ty = self.try_parse_type()
        if ty is not None and self.at("identifier"):
            decl = self.parse_variable_rest(mods, ty, self.take(), "local_variable_declaration")
            if decl is not None:
                return decl
        # Local type declarations.
        self.rewind(after_mods, after_mark)
        decl = self._type_declaration(mods)
        if decl is None:
            self.rewind(start, mark)
        return decl

    def parse_if(self) -> int:
        return self.node(
            "if_statement", self.take(), self.parse_parenthesized(), self.parse_statement(),
            self.parse_statement() if self.take_if("else") is not None else None,
        )

    def parse_parenthesized(self) -> int:
        if not self.at("("):
            return self.error_until({")", "{", ";"}, consume_sync=False)
        mark = self.take()
        inner = None if self.at(")") else self.parse_expression({")"}, required=True)
        return self.node("parenthesized_expression", mark, inner, self.take_if(")"))

    def parse_for(self) -> int:
        mark = self.take()
        if not self.at("("):
            self.error_until({"{", ";"}, consume_sync=False)
            return self.node("for_statement", mark)
        enhanced = self._for_is_enhanced()
        self.take()  # '('
        if enhanced:
            return self.node(
                "enhanced_for_statement", mark, self.parse_modifiers(), self.try_parse_type(), self.take_if("identifier"),
                self.take_if(":"), self.parse_expression({")"}, required=True), self.take_if(")"), self.parse_statement(),
            )

        # init: a local declaration consumes its own ';'
        if self.take_if(";") is None and self.try_parse_local_declaration() is None:
            self.parse_expression({";"}, required=False)
            self.take_if(";")
        # condition
        if not self.at(";"):
            self.parse_expression({";"}, required=False)
        self.take_if(";")
        # update
        if not self.at(")"):
            self.parse_expression({")"}, required=False)
        self.take_if(")")
        self.parse_statement()
        return self.node("for_statement", mark)

    def _for_is_enhanced(self) -> bool:
        """Look ahead inside for(...) for a ':' before any ';' at depth 1."""
        depth = 0
        pending_ternary = 0
        kinds = self.kinds
        for i in range(self.pos, self.n):
            k = kinds[i]
            if k == "(":
                depth += 1
            elif k == ")":
                depth -= 1
                if depth == 0:
                    return False
            elif depth == 1:
                if k == ";":
                    return False
                if k == "?":
                    if (kinds[i + 1] if i + 1 < self.n else "") not in {"extends", "super", ",", ">"}:
                        pending_ternary += 1
                elif k == ":":
                    if pending_ternary:
                        pending_ternary -= 1
                    else:
                        return True
        return False

    def parse_switch(self) -> int:
        return self.node(
            "switch_expression", self.take(), self.parse_parenthesized(),
            self._braced("switch_block", self._switch_item) if self.at("{") else None,
        )

    def _switch_item(self) -> int:
        if self.peek() in ("case", "default"):
            return self.parse_switch_group()
        return self.parse_statement()

    def parse_switch_group(self) -> int:
        is_case = self.at("case")
        label = self.take()  # 'case' | 'default'
        if is_case:
            self.parse_expression({":", "->"}, required=False)
        self.node("switch_label", label)
        if self.at("->"):
            self.take()
            if self.peek() in ("{", "throw"):
                self.parse_statement()
            else:
                body = self.parse_expression({";"}, required=True)
                if self.take_if(";") is not None:
                    self.node("expression_statement", body)
            return self.node("switch_rule", label)
        self.take_if(":")
        self.sequence({"case", "default", "}"}, self.parse_statement)
        return self.node("switch_block_statement_group", label)

    def parse_try(self) -> int:
        mark = self.take()
        with_resources = self.at("(")
        if with_resources:
            self._balanced("resource_specification", "(", ")")
        self._optional_block()
        while self.at("catch"):
            catch = self.take()
            parameter = self._balanced("catch_formal_parameter", "(", ")") if self.at("(") else None
            self.node("catch_clause", catch, parameter, self._optional_block())
        if self.at("finally"):
            self.node("finally_clause", self.take(), self._optional_block())
        return self.node("try_with_resources_statement" if with_resources else "try_statement", mark)

    # -- expressions -------------------------------------------------------

    def parse_expression(self, stop: set[str], required: bool) -> int:
        """Shallow expression parse: delimiter-aware, surfaces lambdas,
        anonymous classes, switch expressions and nested initializers."""
        kinds, n, events = self.kinds, self.n, self.events
        mark, children = len(events), 0
        while (pos := self.pos) < n:
            k = kinds[pos]
            if k in stop or k in {";", ")", "]", "}"}:
                break
            children += 1
            if k == "identifier" and pos + 1 < n and kinds[pos + 1] == "->":
                self.node("lambda_expression", self.take(), self.take(), self._lambda_body())
            elif k == "(":
                if self._paren_starts_lambda():
                    self.parse_lambda_from_parens()
                else:
                    self._argument_group("argument_list" if children > 1 else "parenthesized_expression")
            elif k == "new":
                self.parse_object_creation()
            elif k == "switch":
                self.parse_switch()
            elif k == "{":
                self.parse_array_initializer()
            elif k == "[":
                children += self._index() - 1
            else:
                events.append(pos)
                self.pos = pos + 1

        if not children:
            return self.node("ERROR" if required else "expression")
        return mark if children == 1 else self.node("expression", mark)

    def _index(self) -> int:
        """``[`` expression ``]``, the expression omitted when empty; the number of children."""
        self.take()
        inner = not self.at("]") and self.parse_expression({"]"}, required=False) is not None
        return 1 + inner + (self.take_if("]") is not None)

    def _lambda_body(self) -> int:
        if self.at("{"):
            return self.parse_block()
        return self.parse_expression({",", ";", ")"}, required=True)

    def _paren_starts_lambda(self) -> bool:
        depth = 0
        kinds = self.kinds
        for i in range(self.pos, self.n):
            k = kinds[i]
            if k == "(":
                depth += 1
            elif k == ")":
                depth -= 1
                if depth == 0:
                    return i + 1 < self.n and kinds[i + 1] == "->"
            elif k in {";", "{"} and depth == 1:
                return False
        return False

    def parse_lambda_from_parens(self) -> int:
        params = self.try_parse_strict_formal_parameters() or self._balanced("inferred_parameters", "(", ")")
        return self.node("lambda_expression", params, self.take_if("->"), self._lambda_body())

    def _argument_group(self, category: str = "argument_list") -> int:
        """``(`` comma-separated expressions ``)``."""
        mark = self.take()
        self.sequence({")"}, partial(self.parse_expression, {",", ")"}, False), sep=",")
        self.take_if(")")
        return self.node(category, mark)

    def parse_object_creation(self) -> int:
        mark = self.take()  # 'new'
        self.try_parse_type(allow_dims=False)
        if self.at("["):
            while self.at("["):
                self._index()
            if self.at("{"):
                self.parse_array_initializer()
            return self.node("array_creation_expression", mark)
        if self.at("("):
            self._argument_group()
        if self.at("{"):
            self.parse_class_body()
        return self.node("object_creation_expression", mark)

    def parse_array_initializer(self) -> int:
        return self._braced("array_initializer", self._initializer_item, sep=",")

    def _initializer_item(self) -> int:
        if self.at("{"):
            return self.parse_array_initializer()
        return self.parse_expression({",", "}"}, required=False)


def parse_events(source: str) -> tuple[list[str], list]:
    """The kinds of the tokens of Java source text, and its parse tree as a
    list of pre-order events.

    An event ``str`` opens an internal node of that category and ``None``
    closes the innermost open one. An ``int`` ``i`` is token ``i`` as a
    terminal of its kind, and ``~i`` is token ``i`` as a ``type_identifier``.
    A 1-tuple ``(category,)`` is a childless node: terminal, at the next
    token. Tokens appear in order, each exactly once; ``program`` opens first.

    Never raises or hangs on malformed input: broken stretches become ERROR
    nodes and parsing resumes at the next statement boundary. A source nested
    too deeply to parse recursively (at the default recursion limit, beyond 245
    blocks, 326 parentheses, 81 anonymous classes in method bodies or 486
    ``else if`` arms) becomes a program whose only child is one ERROR node
    holding every token.
    """
    kinds, texts = _lex(source)
    return kinds, _Parser(kinds, texts).parse_program()


def parse(source: str) -> SyntaxNode:
    """Parse Java source text into a concrete syntax tree (see ``parse_events``)."""
    kinds, events = parse_events(source)
    stack, category, children = [], None, []
    for event in events:
        if event.__class__ is int:
            children.append(SyntaxNode(kinds[event] if event >= 0 else "type_identifier", [], True))
        elif event.__class__ is str:
            stack.append((category, children))
            category, children = event, []
        elif event is None:
            node = SyntaxNode(category, children)
            category, children = stack.pop()
            children.append(node)
        else:
            children.append(SyntaxNode(event[0], [], True))
    return children[0]


def tree_has_errors(root: SyntaxNode) -> bool:
    """True when the tree contains at least one ERROR node."""
    return any(node.category == "ERROR" for node in root.walk())
