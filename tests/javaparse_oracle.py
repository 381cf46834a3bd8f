"""The recursive-descent parser that built ``SyntaxNode`` trees directly,
before ``j2cj.javaparse`` parsed into a flat event stream, kept as it was.

It is the oracle for the event parser: ``parse`` here must return the same
tree as ``j2cj.javaparse.parse`` for every source. It reads ``Token``
objects made from ``j2cj.javaparse``'s lexer, whose own oracle is the
hand-written scanner in ``test_javaparse.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from j2cj.javaparse import MODIFIER_KEYWORDS, PRIMITIVE_TYPES, SyntaxNode, _byte_offsets, _tokenize


@dataclass
class Token:
    kind: str
    text: str
    start: int  # char offset
    end: int


def tokens(source: str) -> list[Token]:
    kinds, starts, ends = _tokenize(source)
    return [Token(kind, source[start:end], start, end) for kind, start, end in zip(kinds, starts, ends)]


class _Parser:
    """Recursive descent with index-based backtracking."""

    def __init__(self, tokens: list[Token], byte_of: list[int]):
        self.toks = tokens
        self.byte_of = byte_of
        self.pos = 0
        self.n = len(tokens)

    # -- token utilities -------------------------------------------------

    def peek(self, offset: int = 0) -> Token | None:
        i = self.pos + offset
        return self.toks[i] if i < self.n else None

    def at(self, kind: str, offset: int = 0) -> bool:
        t = self.peek(offset)
        return t is not None and t.kind == kind

    def at_any(self, kinds: set[str]) -> bool:
        t = self.peek()
        return t is not None and t.kind in kinds

    def eof(self) -> bool:
        return self.pos >= self.n

    def take(self) -> SyntaxNode:
        tok = self.toks[self.pos]
        self.pos += 1
        return SyntaxNode(tok.kind, [], True, (self.byte_of[tok.start], self.byte_of[tok.end]))

    def take_if(self, kind: str) -> SyntaxNode | None:
        return self.take() if self.at(kind) else None

    def take_until(self, children: list, stop: set[str]) -> list:
        """Append raw tokens to ``children`` until a ``stop`` token or EOF."""
        while not self.eof() and not self.at_any(stop):
            children.append(self.take())
        return children

    def dims(self) -> list[SyntaxNode]:
        """Consume ``[]`` pairs and return their tokens."""
        out = []
        while self.at("[") and self.at("]", 1):
            out += (self.take(), self.take())
        return out

    def node(self, category: str, children: list[SyntaxNode | None]) -> SyntaxNode:
        children = [c for c in children if c is not None]
        if children:
            span = (children[0].span[0], children[-1].span[1])
        else:
            at = self.byte_of[self.toks[self.pos].start] if self.pos < self.n else self.byte_of[-1]
            span = (at, at)
        return SyntaxNode(category, children, not children, span)

    def error_until(self, sync: set[str], consume_sync: bool = True) -> SyntaxNode:
        """Consume tokens into an ERROR node until a sync token or EOF."""
        children = self.take_until([], sync)
        if consume_sync and not self.eof():
            children.append(self.take())
        return self.node("ERROR", children)

    def sequence(self, children: list, stop: set[str], item, sep: str | None = None) -> list:
        """Append ``item()`` results, each followed by an optional ``sep``,
        until a ``stop`` token or EOF. A pass that consumes nothing appends
        the next token as an ERROR node, so every sequence terminates."""
        while not self.eof() and not self.at_any(stop):
            before = self.pos
            children.append(item())
            if sep is not None and self.at(sep):
                children.append(self.take())
            if self.pos == before:
                children.append(self.node("ERROR", [self.take()]))
        return children

    def _braced(self, category: str, item, sep: str | None = None) -> SyntaxNode:
        """``{`` items ``}``; the closing brace is optional at EOF."""
        children = self.sequence([self.take()], {"}"}, item, sep)
        return self.node(category, children + [self.take_if("}")])

    # -- entry point -----------------------------------------------------

    def parse_program(self) -> SyntaxNode:
        children = self.sequence([], set(), self.parse_top_level)
        span = (children[0].span[0], children[-1].span[1]) if children else (0, 0)
        return SyntaxNode("program", children, False, span)

    def parse_top_level(self) -> SyntaxNode:
        kind = self.peek().kind
        if kind in ("package", "import"):
            clause = self.take_until([self.take()], {";"})
            return self.node(f"{kind}_declaration", clause + [self.take_if(";")])
        return self.try_parse_member(in_class=False) or self.parse_statement()

    # -- declarations ----------------------------------------------------

    def parse_modifiers(self) -> SyntaxNode | None:
        children = []
        while True:
            t = self.peek()
            if t is None:
                break
            if t.kind == "@" and not self.at("interface", 1):
                children.append(self.parse_annotation())
            elif t.kind in MODIFIER_KEYWORDS:
                # 'default'/'synchronized' only act as modifiers before a member.
                if t.kind == "synchronized" and self.at("(", 1):
                    break
                if t.kind == "default" and (self.at(":", 1) or self.at("->", 1)):
                    break
                children.append(self.take())
            else:
                break
        if not children:
            return None
        return self.node("modifiers", children)

    def parse_annotation(self) -> SyntaxNode:
        children = [self.take()]  # '@'
        while self.at("identifier"):
            children.append(self.take())
            if self.at("."):
                children.append(self.take())
            else:
                break
        if self.at("("):
            children.append(self._balanced("annotation_argument_list", "(", ")"))
            return self.node("annotation", children)
        return self.node("marker_annotation", children)

    def _balanced(self, category: str, open_kind: str, close_kind: str) -> SyntaxNode:
        """Consume a balanced delimiter group shallowly (no inner structure)."""
        children = [self.take()]
        depth = 1
        while not self.eof() and depth > 0:
            if self.at(open_kind):
                depth += 1
            elif self.at(close_kind):
                depth -= 1
            children.append(self.take())
        return self.node(category, children)

    def try_parse_member(self, in_class: bool) -> SyntaxNode | None:
        """Class member or top-level declaration; None if not a declaration."""
        start = self.pos
        if self.at("static") and self.at("{", 1):
            return self.node("static_initializer", [self.take(), self.parse_block()])
        if in_class and self.at("{"):
            return self.parse_block()

        mods = self.parse_modifiers()

        t = self.peek()
        if t is None:
            self.pos = start
            return None
        decl = self._type_declaration(mods)
        if decl is not None:
            return decl
        if t.kind == "@" and self.at("interface", 1):
            children = [mods, self.take(), self.take(), self.take_if("identifier")]
            if self.at("{"):
                children.append(self._balanced("annotation_type_body", "{", "}"))
            return self.node("annotation_type_declaration", children)
        if (
            t.kind == "identifier"
            and t.text == "record"
            and self.at("identifier", 1)
            and self.at("(", 2)
        ):
            return self.parse_record(mods)

        # Constructor: bare identifier followed by '(' inside a class body.
        if in_class and t.kind == "identifier" and self.at("(", 1):
            return self.parse_constructor(mods)

        # Generic method: type parameters before the return type.
        type_params = None
        if self.at("<"):
            type_params = self._angle_group("type_parameters")
            if type_params is None:
                self.pos = start
                return None

        ty = self.try_parse_type()
        if ty is not None and self.at("identifier"):
            name = self.take()
            if self.at("("):
                return self.parse_method(mods, type_params, ty, name)
            if type_params is None:
                decl = self.parse_variable_rest(mods, ty, name, "field_declaration" if in_class else "local_variable_declaration")
                if decl is not None:
                    return decl

        self.pos = start
        if mods is not None or type_params is not None:
            # Modifiers with nothing valid after them: error recovery.
            return self.error_until({";", "}"})
        return None

    def _type_declaration(self, mods: SyntaxNode | None) -> SyntaxNode | None:
        """A class, interface or enum declaration at the cursor, else None."""
        if self.at("class"):
            return self.parse_class_like("class_declaration", mods)
        if self.at("interface"):
            return self.parse_class_like("interface_declaration", mods)
        if self.at("enum"):
            return self.parse_enum(mods)
        return None

    def parse_class_like(self, category: str, mods: SyntaxNode | None) -> SyntaxNode:
        children = [mods, self.take(), self.take_if("identifier")]  # 'class' / 'interface'
        if self.at("<"):
            tp = self._angle_group("type_parameters")
            children.append(tp or self.error_until({"{", ";"}, consume_sync=False))
        # 'extends'/'implements' clauses, plus contextual 'permits'.
        while self.at_any({"extends", "implements"}) or (self.at("identifier") and self.peek().text == "permits"):
            kw = self.take()
            clause = self.take_until([kw], {"{", "extends", "implements", ";"})
            children.append(self.node("superclass" if kw.category == "extends" else "super_interfaces", clause))
        if self.at("{"):
            children.append(self.parse_class_body("class_body" if category == "class_declaration" else "interface_body"))
        else:
            children.append(self.error_until({";", "}"}))
        return self.node(category, children)

    def parse_record(self, mods: SyntaxNode | None) -> SyntaxNode:
        children = [mods, self.take(), self.take(), self.parse_formal_parameters()]  # 'record' name (...)
        self.take_until(children, {"{", ";"})  # 'implements' clause, kept flat
        children.append(self.parse_class_body() if self.at("{") else self.take_if(";"))
        return self.node("record_declaration", children)

    def parse_enum(self, mods: SyntaxNode | None) -> SyntaxNode:
        children = [mods, self.take(), self.take_if("identifier")]  # 'enum' name
        self.take_until(children, {"{"})  # 'implements' clause, kept flat
        if self.at("{"):
            children.append(self.parse_enum_body())
        return self.node("enum_declaration", children)

    def parse_enum_body(self) -> SyntaxNode:
        # Constant list runs until ';' or '}', then optional members.
        children = self.sequence([self.take()], {";", "}"}, self._enum_constant)
        if self.at(";"):
            children.append(self.take())
            self.sequence(children, {"}"}, self._class_member)
        return self.node("enum_body", children + [self.take_if("}")])

    def _enum_constant(self) -> SyntaxNode:
        if self.at(","):
            return self.take()
        if not self.at("identifier"):
            return self.error_until({",", ";", "}"}, consume_sync=False)
        const = [self.take()]
        if self.at("("):
            const.append(self._argument_group())
        if self.at("{"):
            const.append(self.parse_class_body())
        return self.node("enum_constant", const)

    def parse_class_body(self, category: str = "class_body") -> SyntaxNode:
        return self._braced(category, self._class_member)

    def _class_member(self) -> SyntaxNode:
        return self.try_parse_member(in_class=True) or self.parse_statement()

    def parse_constructor(self, mods: SyntaxNode | None) -> SyntaxNode:
        children = [mods, self.take(), self.parse_formal_parameters(), self._throws()]  # name (params)
        if self.at("{"):
            children.append(self.parse_block("constructor_body"))
        else:
            children.append(self.error_until({";", "}"}))
        return self.node("constructor_declaration", children)

    def parse_method(
        self,
        mods: SyntaxNode | None,
        type_params: SyntaxNode | None,
        return_type: SyntaxNode,
        name: SyntaxNode,
    ) -> SyntaxNode:
        children = [mods, type_params, return_type, name, self.parse_formal_parameters()]
        children += self.dims()  # legacy array dims after params
        children.append(self._throws())
        if self.at("{"):
            children.append(self.parse_block())
        else:
            children.append(self.take_if(";") or self.error_until({";", "}"}))
        return self.node("method_declaration", children)

    def _throws(self) -> SyntaxNode | None:
        if not self.at("throws"):
            return None
        return self.node("throws", self.take_until([self.take()], {"{", ";"}))

    def parse_variable_rest(
        self,
        mods: SyntaxNode | None,
        ty: SyntaxNode,
        first_name: SyntaxNode,
        category: str,
    ) -> SyntaxNode | None:
        """Declarators after `type name`; None if this is not a declaration."""
        if not self.at_any({"=", ";", ",", "["}):
            return None
        children = [mods, ty, self._declarator(first_name)]
        while self.at(","):
            children.append(self.take())
            if self.at("identifier"):
                children.append(self._declarator(self.take()))
            else:
                children.append(self.error_until({";", ","}, consume_sync=False))
        children.append(self.take_if(";") or self.error_until({";"}))
        return self.node(category, children)

    def _declarator(self, name: SyntaxNode) -> SyntaxNode:
        decl = [name, *self.dims()]
        if self.at("="):
            decl += (self.take(), self.parse_expression({";", ","}, required=True))
        return self.node("variable_declarator", decl)

    # -- types -----------------------------------------------------------

    def try_parse_type(self, allow_dims: bool = True) -> SyntaxNode | None:
        start = self.pos
        t = self.peek()
        if t is None:
            return None
        if t.kind in PRIMITIVE_TYPES:
            base = self.node(PRIMITIVE_TYPES[t.kind], [self.take()])
        elif t.kind == "identifier":
            base = self._named_type()
            if base is None:
                self.pos = start
                return None
        else:
            return None
        dims = self.dims() if allow_dims else []
        if dims:
            base = self.node("array_type", [base, self.node("dimensions", dims)])
        return base

    def _named_type(self) -> SyntaxNode | None:
        node = self.take()
        node.category = "type_identifier"
        while True:
            if self.at("<"):
                args = self._angle_group("type_arguments")
                if args is None:
                    return None
                node = self.node("generic_type", [node, args])
            if self.at(".") and self.at("identifier", 1):
                dot = self.take()
                ident = self.take()
                ident.category = "type_identifier"
                node = self.node("scoped_type_identifier", [node, dot, ident])
            else:
                break
        return node

    def _angle_group(self, category: str) -> SyntaxNode | None:
        """Balanced <...> holding only type-ish tokens; None on mismatch."""
        start = self.pos
        children = [self.take()]  # '<'
        depth = 1
        while not self.eof() and depth > 0:
            k = self.peek().kind
            if k == "<":
                depth += 1
            elif k == ">":
                depth -= 1
            elif k in {";", "{", "}", ")", "(", "=", "&&", "||", "+", "-", "string_literal"}:
                # Cannot occur inside type arguments: this '<' was a comparison.
                self.pos = start
                return None
            children.append(self.take())
        if depth > 0:
            self.pos = start
            return None
        return self.node(category, children)

    # -- parameters --------------------------------------------------------

    def parse_formal_parameters(self) -> SyntaxNode:
        sync = {")", "{", "}", ";"}
        children = self.sequence(
            [self.take()],  # '('
            sync,
            lambda: self._formal_parameter() or self.error_until(sync | {","}, consume_sync=False),
            sep=",",
        )
        return self.node("formal_parameters", children + [self.take_if(")")])

    def _formal_parameter(self) -> SyntaxNode | None:
        start = self.pos
        mods = self.parse_modifiers()
        ty = self.try_parse_type()
        if ty is not None:
            spread = self.take_if("...")
            name = self.take_if("this") or self.take_if("identifier")  # 'this': receiver parameter
            if name is not None:
                children = [mods, ty, spread, name, *self.dims()]
                return self.node("spread_parameter" if spread else "formal_parameter", children)
        self.pos = start
        return None

    def try_parse_strict_formal_parameters(self) -> SyntaxNode | None:
        """Strict variant for lambda parameter lists: every param is typed."""
        start = self.pos
        children = [self.take()]  # '('
        if not self.at(")"):
            while True:
                param = self._formal_parameter()
                if param is None:
                    self.pos = start
                    return None
                children.append(param)
                if not self.at(","):
                    break
                children.append(self.take())
        if not self.at(")"):
            self.pos = start
            return None
        return self.node("formal_parameters", children + [self.take()])

    # -- statements --------------------------------------------------------

    def parse_block(self, category: str = "block") -> SyntaxNode:
        return self._braced(category, self.parse_statement)

    def parse_statement(self) -> SyntaxNode:
        t = self.peek()
        if t is None:
            return self.node("ERROR", [])
        kind = t.kind

        if kind == "{":
            return self.parse_block()
        if kind == ";":
            return self.take()
        if kind == "if":
            return self.parse_if()
        if kind == "while":
            return self.node("while_statement", [self.take(), self.parse_parenthesized(), self.parse_statement()])
        if kind == "do":
            children = [self.take(), self.parse_statement()]
            if self.at("while"):
                children += (self.take(), self.parse_parenthesized())
            return self.node("do_statement", children + [self.take_if(";")])
        if kind == "for":
            return self.parse_for()
        if kind == "switch":
            return self.parse_switch()
        if kind == "try":
            return self.parse_try()
        if kind == "return":
            children = [self.take()]
            if not self.at(";"):
                children.append(self.parse_expression({";"}, required=True))
            return self.node("return_statement", children + [self.take_if(";")])
        if kind == "throw":
            children = [self.take(), self.parse_expression({";"}, required=True), self.take_if(";")]
            return self.node("throw_statement", children)
        if kind in ("break", "continue"):
            return self.node(f"{kind}_statement", [self.take(), self.take_if("identifier"), self.take_if(";")])
        if kind == "synchronized":
            kw = self.take()
            lock = self.parse_parenthesized() if self.at("(") else None
            return self.node("synchronized_statement", [kw, lock, self._optional_block()])
        if kind == "assert":
            children = [self.take(), self.parse_expression({";", ":"}, required=True)]
            if self.at(":"):
                children += (self.take(), self.parse_expression({";"}, required=True))
            return self.node("assert_statement", children + [self.take_if(";")])
        if kind == "identifier" and self.at(":", 1):
            return self.node("labeled_statement", [self.take(), self.take(), self.parse_statement()])

        # Local declarations inside class bodies / blocks.
        member = self.try_parse_local_declaration()
        if member is not None:
            return member

        expr = self.parse_expression({";"}, required=True)
        return self.node("expression_statement", [expr, self.take_if(";")])

    def _optional_block(self) -> SyntaxNode | None:
        return self.parse_block() if self.at("{") else None

    def try_parse_local_declaration(self) -> SyntaxNode | None:
        start = self.pos
        mods = self.parse_modifiers()
        after_mods = self.pos
        ty = self.try_parse_type()
        if ty is not None and self.at("identifier"):
            decl = self.parse_variable_rest(mods, ty, self.take(), "local_variable_declaration")
            if decl is not None:
                return decl
        # Local type declarations.
        self.pos = after_mods
        decl = self._type_declaration(mods)
        if decl is None:
            self.pos = start
        return decl

    def parse_if(self) -> SyntaxNode:
        children = [self.take(), self.parse_parenthesized(), self.parse_statement()]
        if self.at("else"):
            children += (self.take(), self.parse_statement())
        return self.node("if_statement", children)

    def parse_parenthesized(self) -> SyntaxNode:
        if not self.at("("):
            return self.error_until({")", "{", ";"}, consume_sync=False)
        children = [self.take()]
        if not self.at(")"):
            children.append(self.parse_expression({")"}, required=True))
        return self.node("parenthesized_expression", children + [self.take_if(")")])

    def parse_for(self) -> SyntaxNode:
        children = [self.take()]
        if not self.at("("):
            children.append(self.error_until({"{", ";"}, consume_sync=False))
            return self.node("for_statement", children)
        enhanced = self._for_is_enhanced()
        children.append(self.take())  # '('
        if enhanced:
            children += (
                self.parse_modifiers(),
                self.try_parse_type(),
                self.take_if("identifier"),
                self.take_if(":"),
                self.parse_expression({")"}, required=True),
                self.take_if(")"),
                self.parse_statement(),
            )
            return self.node("enhanced_for_statement", children)

        # init: a local declaration consumes its own ';'
        init = self.take_if(";") or self.try_parse_local_declaration()
        if init is None:
            children += (self.parse_expression({";"}, required=False), self.take_if(";"))
        else:
            children.append(init)
        # condition
        if not self.at(";"):
            children.append(self.parse_expression({";"}, required=False))
        children.append(self.take_if(";"))
        # update
        if not self.at(")"):
            children.append(self.parse_expression({")"}, required=False))
        children += (self.take_if(")"), self.parse_statement())
        return self.node("for_statement", children)

    def _for_is_enhanced(self) -> bool:
        """Look ahead inside for(...) for a ':' before any ';' at depth 1."""
        depth = 0
        pending_ternary = 0
        i = self.pos
        while i < self.n:
            k = self.toks[i].kind
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
                    nxt = self.toks[i + 1].kind if i + 1 < self.n else ""
                    if nxt not in {"extends", "super", ",", ">"}:
                        pending_ternary += 1
                elif k == ":":
                    if pending_ternary:
                        pending_ternary -= 1
                    else:
                        return True
            i += 1
        return False

    def parse_switch(self) -> SyntaxNode:
        children = [self.take(), self.parse_parenthesized()]
        if self.at("{"):
            children.append(self._braced("switch_block", self._switch_item))
        return self.node("switch_expression", children)

    def _switch_item(self) -> SyntaxNode:
        if self.at_any({"case", "default"}):
            return self.parse_switch_group()
        return self.parse_statement()

    def parse_switch_group(self) -> SyntaxNode:
        label = [self.take()]  # 'case' | 'default'
        if label[0].category == "case":
            label.append(self.parse_expression({":", "->"}, required=False))
        label = self.node("switch_label", label)
        if self.at("->"):
            arrow = self.take()
            if self.at_any({"{", "throw"}):
                body = self.parse_statement()
            else:
                body = self.parse_expression({";"}, required=True)
                semi = self.take_if(";")
                if semi is not None:
                    body = self.node("expression_statement", [body, semi])
            return self.node("switch_rule", [label, arrow, body])
        children = self.sequence([label, self.take_if(":")], {"case", "default", "}"}, self.parse_statement)
        return self.node("switch_block_statement_group", children)

    def parse_try(self) -> SyntaxNode:
        children = [self.take()]
        with_resources = self.at("(")
        if with_resources:
            children.append(self._balanced("resource_specification", "(", ")"))
        children.append(self._optional_block())
        while self.at("catch"):
            catch = [self.take()]
            if self.at("("):
                catch.append(self._balanced("catch_formal_parameter", "(", ")"))
            children.append(self.node("catch_clause", catch + [self._optional_block()]))
        if self.at("finally"):
            children.append(self.node("finally_clause", [self.take(), self._optional_block()]))
        category = "try_with_resources_statement" if with_resources else "try_statement"
        return self.node(category, children)

    # -- expressions -------------------------------------------------------

    def parse_expression(self, stop: set[str], required: bool) -> SyntaxNode:
        """Shallow expression parse: delimiter-aware, surfaces lambdas,
        anonymous classes, switch expressions and nested initializers."""
        children: list[SyntaxNode] = []
        while not self.eof():
            t = self.peek()
            k = t.kind
            if k in stop or k in {";", ")", "]", "}"}:
                break
            if k == "identifier" and self.at("->", 1):
                ident, arrow = self.take(), self.take()
                children.append(self.node("lambda_expression", [ident, arrow, self._lambda_body()]))
            elif k == "(":
                if self._paren_starts_lambda():
                    children.append(self.parse_lambda_from_parens())
                else:
                    children.append(self._argument_group("argument_list" if children else "parenthesized_expression"))
            elif k == "new":
                children.append(self.parse_object_creation())
            elif k == "switch":
                children.append(self.parse_switch())
            elif k == "{":
                children.append(self.parse_array_initializer())
            elif k == "[":
                children += self._index()
            else:
                children.append(self.take())

        if not children:
            return self.node("ERROR" if required else "expression", [])
        if len(children) == 1:
            return children[0]
        return self.node("expression", children)

    def _index(self) -> list[SyntaxNode]:
        """``[`` expression ``]`` tokens; the expression is omitted when empty."""
        children = [self.take()]
        if not self.at("]"):
            children.append(self.parse_expression({"]"}, required=False))
        if self.at("]"):
            children.append(self.take())
        return children

    def _lambda_body(self) -> SyntaxNode:
        if self.at("{"):
            return self.parse_block()
        return self.parse_expression({",", ";", ")"}, required=True)

    def _paren_starts_lambda(self) -> bool:
        depth = 0
        i = self.pos
        while i < self.n:
            k = self.toks[i].kind
            if k == "(":
                depth += 1
            elif k == ")":
                depth -= 1
                if depth == 0:
                    return i + 1 < self.n and self.toks[i + 1].kind == "->"
            elif k in {";", "{"} and depth == 1:
                return False
            i += 1
        return False

    def parse_lambda_from_parens(self) -> SyntaxNode:
        params = self.try_parse_strict_formal_parameters() or self._balanced("inferred_parameters", "(", ")")
        return self.node("lambda_expression", [params, self.take_if("->"), self._lambda_body()])

    def _argument_group(self, category: str = "argument_list") -> SyntaxNode:
        """``(`` comma-separated expressions ``)``."""
        item = partial(self.parse_expression, {",", ")"}, False)
        children = self.sequence([self.take()], {")"}, item, sep=",")
        return self.node(category, children + [self.take_if(")")])

    def parse_object_creation(self) -> SyntaxNode:
        children = [self.take(), self.try_parse_type(allow_dims=False)]  # 'new' type
        if self.at("["):
            while self.at("["):
                children += self._index()
            if self.at("{"):
                children.append(self.parse_array_initializer())
            return self.node("array_creation_expression", children)
        if self.at("("):
            children.append(self._argument_group())
        if self.at("{"):
            children.append(self.parse_class_body())
        return self.node("object_creation_expression", children)

    def parse_array_initializer(self) -> SyntaxNode:
        return self._braced("array_initializer", self._initializer_item, sep=",")

    def _initializer_item(self) -> SyntaxNode:
        if self.at("{"):
            return self.parse_array_initializer()
        return self.parse_expression({",", "}"}, required=False)


def parse(source: str) -> SyntaxNode:
    """Parse Java source text into a concrete syntax tree.

    Never raises or hangs on malformed input: broken stretches are wrapped
    in ERROR nodes and parsing resumes at the next statement boundary. A
    source nested too deeply to parse recursively becomes a program whose
    only child is one ERROR node holding every token.
    """
    byte_of = _byte_offsets(source)
    parser = _Parser(tokens(source), byte_of)
    try:
        return parser.parse_program()
    except RecursionError:
        parser.pos = 0
        error = parser.error_until(set())
        return SyntaxNode("program", [error], False, error.span)
