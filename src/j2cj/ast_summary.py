"""Structural summaries of Java parse trees and their prompt encoding.

A summary is the DFS pre-order sequence of retained internal node
categories: the control-flow and declaration skeleton of a program with
all token-level detail discarded. Summaries are discretized into
structural tokens and embedded into translation prompts between fixed
boundary markers. ``structure_tokens`` reads them off the parser's event
stream, without building a tree.
"""

from __future__ import annotations

from .javaparse import SyntaxNode, parse_events

# Control-flow and semantic node kinds kept in summaries by default.
# class_body is included so type skeletons survive for declaration-only
# sources; the set is configurable end to end.
DEFAULT_RETAINED_CATEGORIES = frozenset(
    {
        "class_declaration",
        "class_body",
        "method_declaration",
        "constructor_declaration",
        "formal_parameters",
        "block",
        "if_statement",
        "for_statement",
        "enhanced_for_statement",
        "while_statement",
        "do_statement",
        "switch_expression",
        "try_statement",
        "catch_clause",
        "return_statement",
        "throw_statement",
        "lambda_expression",
    }
)

STRUCT_OPEN = "<<<STRUCT>>>"
STRUCT_CLOSE = "<<<END_STRUCT>>>"
CODE_OPEN = "<<<CODE>>>"
CODE_CLOSE = "<<<END_CODE>>>"
_ALL_MARKERS = (STRUCT_OPEN, STRUCT_CLOSE, CODE_OPEN, CODE_CLOSE)


class MarkerCollisionError(ValueError):
    """Raised when a text to embed already contains a boundary marker."""


def default_vocab(categories: frozenset[str] = DEFAULT_RETAINED_CATEGORIES) -> dict[str, str]:
    """Each category's structural token: its name, upper-cased, as `<STRUCT:NAME>`."""
    return {c: f"<STRUCT:{c.upper()}>" for c in categories}


def summarize(
    tree: SyntaxNode,
    retained: frozenset[str] | set[str] = DEFAULT_RETAINED_CATEGORIES,
    source: str | None = None,
) -> tuple[str, ...]:
    """The retained internal node categories, in DFS pre-order.

    Terminal nodes never contribute; ERROR nodes are not retained by
    default, so partially broken sources still summarize. ``source`` is
    accepted and unused: the benchmark's input generator
    (bench/make_synthetic.py) still passes it.
    """
    if not retained:
        raise ValueError("retained category set must be non-empty")
    return tuple(
        node.category for node in tree.walk() if not node.is_terminal and node.category in retained
    )


def structure_tokens(java: str, retained: frozenset[str] = DEFAULT_RETAINED_CATEGORIES) -> list[str]:
    """``tokenize_structure(summarize(parse(java), retained), default_vocab(retained))``
    from one pass over ``parse_events(java)``. Raises ValueError when the tree
    would hold an ERROR node: an ERROR token, or an ERROR node with or without children."""
    if not retained:
        raise ValueError("retained category set must be non-empty")
    kinds, events = parse_events(java)
    # Internal nodes open with their category; childless (terminal) ones are 1-tuples.
    table = {**default_vocab(retained), "ERROR": None, ("ERROR",): None}
    tokens = [table[event] for event in events if event in table]
    if None in tokens or "ERROR" in kinds:
        raise ValueError("java source does not parse cleanly")
    return tokens


def tokenize_structure(summary: tuple[str, ...], vocab: dict[str, str]) -> list[str]:
    """One structural token per summary category."""
    return [vocab[category] for category in summary]


def ensure_no_markers(text: str, what: str = "text") -> None:
    """Reject texts that already contain a boundary marker."""
    for marker in _ALL_MARKERS:
        if marker in text:
            raise MarkerCollisionError(f"{what} contains boundary marker {marker}")


def render_structured_prompt(tokens: list[str], source: str, instruction: str) -> str:
    """Assemble instruction, structural block and code block into one prompt.

    The blocks are delimited by fixed markers so they can be extracted
    back verbatim; inputs containing a marker are rejected outright.
    """
    if not instruction.strip():
        raise ValueError("instruction must be non-empty")
    ensure_no_markers(source, "source")
    ensure_no_markers(instruction, "instruction")
    struct_body = " ".join(tokens)
    return (
        f"{instruction}\n"
        f"{STRUCT_OPEN}\n{struct_body}\n{STRUCT_CLOSE}\n"
        f"{CODE_OPEN}\n{source}\n{CODE_CLOSE}\n"
    )
