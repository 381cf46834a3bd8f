"""Structural summaries of Java parse trees and their prompt encoding.

A summary is the DFS pre-order sequence of retained internal node
categories: the control-flow and declaration skeleton of a program with
all token-level detail discarded. Summaries are discretized into
structural tokens and embedded into translation prompts between fixed
boundary markers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .javaparse import SyntaxNode
from .jsonl import read_text

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

STRUCT_OTHER_TOKEN = "<STRUCT:OTHER>"

STRUCT_OPEN = "<<<STRUCT>>>"
STRUCT_CLOSE = "<<<END_STRUCT>>>"
CODE_OPEN = "<<<CODE>>>"
CODE_CLOSE = "<<<END_CODE>>>"
_ALL_MARKERS = (STRUCT_OPEN, STRUCT_CLOSE, CODE_OPEN, CODE_CLOSE)


class MarkerCollisionError(ValueError):
    """Raised when a text to embed already contains a boundary marker."""


class VocabError(ValueError):
    """Raised for non-injective or malformed structural-token vocabularies."""


@dataclass(frozen=True)
class StructuralSummary:
    """DFS pre-order sequence of retained internal node categories."""

    categories: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.categories)


@dataclass(frozen=True)
class StructuralTokenVocab:
    """Injective mapping from node category to a `<STRUCT:NAME>` token."""

    mapping: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        seen: dict[str, str] = {}
        for category, token in self.mapping.items():
            if not (token.startswith("<STRUCT:") and token.endswith(">")):
                raise VocabError(f"malformed structural token for {category!r}: {token!r}")
            if token in seen:
                raise VocabError(f"token {token!r} mapped from both {seen[token]!r} and {category!r}")
            seen[token] = category

    def token_for(self, category: str) -> str:
        return self.mapping.get(category, STRUCT_OTHER_TOKEN)


def default_vocab(categories: frozenset[str] = DEFAULT_RETAINED_CATEGORIES) -> StructuralTokenVocab:
    """Vocabulary mapping each category to `<STRUCT:UPPER_NAME>`."""
    return StructuralTokenVocab({c: f"<STRUCT:{c.upper()}>" for c in sorted(categories)})


def load_vocab(path) -> StructuralTokenVocab:
    mapping: dict[str, str] = {}
    for lineno, line in enumerate(read_text(path).split("\n"), 1):
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise VocabError(f"{path}:{lineno}: expected 'category<TAB>token'")
        mapping[parts[0]] = parts[1]
    return StructuralTokenVocab(mapping)


def summarize(
    tree: SyntaxNode,
    retained: frozenset[str] | set[str] = DEFAULT_RETAINED_CATEGORIES,
    source: str | None = None,
) -> StructuralSummary:
    """Collect retained internal node categories in DFS pre-order.

    Terminal nodes never contribute; ERROR nodes are not retained, so
    partially broken sources still summarize. ``source`` is accepted and
    unused: the benchmark's input generator (bench/make_synthetic.py)
    still passes it.
    """
    if not retained:
        raise ValueError("retained category set must be non-empty")
    categories = [
        node.category
        for node in tree.walk()
        if not node.is_terminal and node.category in retained
    ]
    return StructuralSummary(tuple(categories))


def tokenize_structure(summary: StructuralSummary, vocab: StructuralTokenVocab) -> list[str]:
    """One structural token per summary category, unknown kinds -> OTHER."""
    return [vocab.token_for(category) for category in summary.categories]


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
    for token in tokens:
        ensure_no_markers(token, "structural token")
    struct_body = " ".join(tokens)
    return (
        f"{instruction}\n"
        f"{STRUCT_OPEN}\n{struct_body}\n{STRUCT_CLOSE}\n"
        f"{CODE_OPEN}\n{source}\n{CODE_CLOSE}\n"
    )
