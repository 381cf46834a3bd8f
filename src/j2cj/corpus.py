"""Training-dataset construction: syntax entries, monolingual samples,
AST-aware parallel samples.

Three line-delimited JSON datasets come out of here: pretraining records
rebuilt from documentation chapters, (description -> code) instruction
samples from filtered monolingual snippets, and structure-annotated
Java/Cangjie pairs. Everything is deterministic given the same inputs and
the same completion transcript.
"""

from __future__ import annotations

import json
import os
import re
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Iterable

from .ast_summary import DEFAULT_RETAINED_CATEGORIES, ensure_no_markers, structure_tokens

# Unused here: the benchmark's tracer (bench/spans.py) still wraps these two
# names in this module until it looks them up elsewhere (ROADMAP item 3).
from .ast_summary import summarize  # noqa: F401
from .javaparse import parse  # noqa: F401
from .llm import (
    DOC_RECONSTRUCTION_TEMPLATE,
    MONOLINGUAL_INSTRUCTION,
    SEMANTIC_ANNOTATION_TEMPLATE,
    TRANSLATE_INSTRUCTION,
    extract_code_block,
)
from .jsonl import STRING, STRINGS, atomic_write, fields, read_text, write_jsonl

CPT_BOUNDARY = "<<<PARA>>>"

DEFAULT_IMPORT_ALLOWLIST = ("std",)

REASON_TOO_SHORT = "too_short"
REASON_INCOMPLETE = "incomplete"
REASON_DISALLOWED_IMPORT = "disallowed_import"


class ReconstructionError(RuntimeError):
    """The reconstruction reply yielded zero valid entries."""


class AnnotationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SyntaxEntry:
    """One structured knowledge unit rebuilt from documentation."""

    id: str
    title: str
    tags: tuple[str, ...]
    typical_questions: tuple[str, ...]
    description: str
    code_examples: tuple[str, ...]

    def __post_init__(self):
        if not self.id.strip():
            raise ValueError("entry id must be non-empty")
        if not self.description.strip():
            raise ValueError(f"entry {self.id}: description must be non-empty")
        if not self.typical_questions and not self.code_examples:
            raise ValueError(f"entry {self.id}: needs at least one question or code example")

    @classmethod
    def from_record(cls, record: dict) -> "SyntaxEntry":
        if not isinstance(record, dict):
            raise ValueError(f"entry record must be an object, got {type(record).__name__}")
        entry_id, title, description, tags, questions, examples = fields(
            {"tags": [], "typical_questions": [], "code_examples": [], **record},
            id=STRING, title=STRING, description=STRING, tags=STRINGS, typical_questions=STRINGS, code_examples=STRINGS,
        )
        return cls(entry_id, title, tuple(tags), tuple(questions), description, tuple(examples))


@dataclass(frozen=True)
class MonolingualSample:
    instruction: str
    input: str
    output: str

    def __post_init__(self):
        if len(self.output.splitlines()) < 5:
            raise ValueError("monolingual output must have at least 5 lines")
        if one_sentence(self.input) != self.input.strip():
            raise ValueError("monolingual input must be a single sentence")


@dataclass(frozen=True)
class ParallelSample:
    instruction: str
    structure_block: tuple[str, ...]
    java_source: str
    cangjie_target: str


@dataclass
class ReconstructionResult:
    entries: list[SyntaxEntry]
    dropped: int = 0


def reconstruct_chapter(chapter: str, llm) -> ReconstructionResult:
    """Turn one documentation chapter into validated syntax entries.

    Malformed entries in the reply are dropped and counted; a reply with no
    valid entry at all raises.
    """
    if not chapter.strip():
        raise ValueError("chapter must be non-empty")
    prompt = DOC_RECONSTRUCTION_TEMPLATE.render({"chapter": chapter})
    reply = llm.complete(prompt)
    payload = extract_code_block(reply)
    try:
        items = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ReconstructionError(f"reply is not valid JSON: {exc}") from exc
    if not isinstance(items, list):
        raise ReconstructionError("reply JSON is not an array")

    result = ReconstructionResult(entries=[])
    for item in items:
        try:
            result.entries.append(SyntaxEntry.from_record(item))
        except ValueError:
            result.dropped += 1
    if not result.entries:
        raise ReconstructionError("reply yielded zero valid entries")
    return result


def serialize_cpt(entries: list[SyntaxEntry]) -> list[str]:
    """One pretraining text record per entry: fixed field order, uniform
    paragraph boundary markers."""
    records = []
    for entry in entries:
        sections = [
            f"[ID] {entry.id}",
            f"[TITLE] {entry.title}",
            "[TAGS] " + "; ".join(entry.tags),
            "[QUESTIONS]\n" + "\n".join(f"- {q}" for q in entry.typical_questions),
            f"[DESCRIPTION]\n{entry.description}",
            "[EXAMPLES]\n" + "\n\n".join(entry.code_examples),
        ]
        records.append(f"\n{CPT_BOUNDARY}\n".join(sections))
    return records


# --- snippet filtering ---------------------------------------------------------

# An unclosed ``/*`` runs to the end of the text, and an unclosed quote to the
# end of its line (a lone backslash may end it), so none is scanned twice.
_CJ_COMMENT_RE = re.compile(r"//[^\n]*|/\*.*?(?:\*/|\Z)", re.DOTALL)
_CJ_STRING_RE = re.compile(
    r'"""(?:.|\n)*?"""|"(?:\\.|[^"\\\n])*(?:"|\\?$)|\'(?:\\.|[^\'\\\n])*(?:\'|\\?$)', re.MULTILINE
)
# (package of a `from ... import`, imported name); an access modifier may lead.
# Leading blanks stop at a newline, so a run of blank lines is scanned once, not once per line.
_IMPORT_RE = re.compile(
    r"^[^\S\n]*(?:(?:public|protected|internal|private)\s+)?(?:from\s+(\S+)\s+)?import\s+(\S+)", re.MULTILINE
)
_DECLARATION_RE = re.compile(r"\b(?:func|class|struct|enum|interface|init|main)\b")
_EXTEND_RE = re.compile(r"^[^\S\n]*(?:public\s+)?extend\b", re.MULTILINE)
_BRACKET_RE = re.compile(r"[()\[\]{}]")

_PAIRS = {")": "(", "]": "[", "}": "{"}


@dataclass
class FilterOutcome:
    retained: list[str]
    rejected: Counter[str]  # rejection reason -> number of snippets


def _balanced(stripped: str) -> bool:
    """Whether the brackets of code with comments and strings blanked out nest."""
    stack: list[str] = []
    for ch in _BRACKET_RE.findall(stripped):
        if ch in "([{":
            stack.append(ch)
        elif not stack or stack.pop() != _PAIRS[ch]:
            return False
    return not stack


def filter_snippets(
    snippets: list[str],
    allowlist: tuple[str, ...] = DEFAULT_IMPORT_ALLOWLIST,
) -> FilterOutcome:
    """Keep snippets that are long enough, structurally complete in
    isolation, and restricted to allowlisted imports: ``std`` allows
    ``std`` and ``std.math.*``, not ``stdx.net``."""
    outcome = FilterOutcome(retained=[], rejected=Counter())
    inside_allowed = tuple(a + "." for a in allowlist)
    for code in snippets:
        non_blank = [line for line in code.splitlines() if line.strip()]
        if len(non_blank) < 5:
            outcome.rejected[REASON_TOO_SHORT] += 1
            continue
        stripped = _CJ_STRING_RE.sub(" ", _CJ_COMMENT_RE.sub(" ", code))
        if (
            not _balanced(stripped)
            or "extend" in stripped and _EXTEND_RE.search(stripped)
            or not _DECLARATION_RE.search(stripped)
        ):
            outcome.rejected[REASON_INCOMPLETE] += 1
            continue
        imports = [f"{package}.{name}" if package else name for package, name in _IMPORT_RE.findall(stripped)]
        if any(imp not in allowlist and not imp.startswith(inside_allowed) for imp in imports):
            outcome.rejected[REASON_DISALLOWED_IMPORT] += 1
            continue
        outcome.retained.append(code)
    return outcome


_SENTENCE_END = ".!?"


def one_sentence(text: str) -> str:
    """First sentence of the text: cut at the first terminator outside
    quotes that ends a word (decimal points survive)."""
    text = text.strip()
    quote: str | None = None
    for i, ch in enumerate(text):
        if quote is not None:
            if ch == quote:
                quote = None
            continue
        if ch in "\"'":
            quote = ch
        elif ch in _SENTENCE_END:
            at_end = i + 1 >= len(text)
            if at_end or text[i + 1].isspace():
                return text[: i + 1]
    return text


def annotate_snippet(code: str, llm) -> str:
    """One-sentence functional description of a retained snippet."""
    if not code.strip():
        raise ValueError("code must be non-empty")
    prompt = SEMANTIC_ANNOTATION_TEMPLATE.render({"code": code})
    reply = llm.complete(prompt).strip()
    if not reply:
        raise AnnotationError("annotation reply is empty")
    return one_sentence(reply)


def build_monolingual_sample(code: str, description: str) -> MonolingualSample:
    return MonolingualSample(MONOLINGUAL_INSTRUCTION, one_sentence(description), code)


def build_parallel_sample(
    java: str,
    cangjie: str,
    retained: frozenset[str] = DEFAULT_RETAINED_CATEGORIES,
) -> ParallelSample:
    """Structure-annotated translation pair; the structure block is computed
    from the Java source, never supplied by hand."""
    if not java.strip():
        raise ValueError("java source must be non-empty")
    if not cangjie.strip():
        raise ValueError("cangjie target must be non-empty")
    tokens = structure_tokens(java, retained)
    ensure_no_markers(java, "java source")
    ensure_no_markers(cangjie, "cangjie target")
    return ParallelSample(TRANSLATE_INSTRUCTION, tuple(tokens), java, cangjie)


# --- dataset persistence ---------------------------------------------------------

def write_cpt_dataset(records: list[str], path) -> None:
    write_jsonl(path, [{"text": r} for r in records])


def write_syntax_entries(entries: list[SyntaxEntry], path) -> None:
    write_jsonl(path, [vars(e) for e in entries])


def write_monolingual_dataset(samples: list[MonolingualSample], path) -> None:
    write_jsonl(path, [vars(s) for s in samples])


def write_parallel_dataset(samples: Iterable[ParallelSample], path) -> int:
    return write_jsonl(path, (vars(s) for s in samples))


# --- directory-level orchestration ------------------------------------------------

def _per_file(work, items, problems: list[str]):
    """``(name, work(item))`` for each ``(name, item)``, in order; where work raises ValueError,
    RuntimeError or OSError, one problem line instead: the name and the error's first line."""
    for name, item in items:
        try:
            yield name, work(item)
        except (ValueError, RuntimeError, OSError) as exc:
            problems.append(f"{name}: {exc}".splitlines()[0])


def _snippet_sample(llm, code: str) -> MonolingualSample:
    return build_monolingual_sample(code, annotate_snippet(code, llm))


def _pair_sample(retained: frozenset[str], java_file: Path) -> ParallelSample:
    target_file = java_file.with_suffix(".cj")
    if not target_file.exists():
        raise ValueError("missing Cangjie counterpart")
    return build_parallel_sample(read_text(java_file), read_text(target_file), retained)


def _chapter_stage(chapters_dir: Path, out_dir: Path, llm, problems: list[str]) -> dict:
    chapter_files = sorted(chapters_dir.glob("*.md"))
    if not chapter_files:
        raise ValueError(f"no chapter files (*.md) in {chapters_dir}")
    chapters = _per_file(read_text, ((f.name, f) for f in chapter_files), problems)
    entries: list[SyntaxEntry] = []
    seen_ids: set[str] = set()
    dropped = 0
    for name, result in _per_file(partial(reconstruct_chapter, llm=llm), chapters, problems):
        dropped += result.dropped
        for entry in result.entries:
            if entry.id in seen_ids:
                dropped += 1
                problems.append(f"{name}: duplicate entry id {entry.id!r}")
                continue
            seen_ids.add(entry.id)
            entries.append(entry)
    write_syntax_entries(entries, out_dir / "syntax_entries.jsonl")
    write_cpt_dataset(serialize_cpt(entries), out_dir / "cpt.jsonl")
    return {"chapters": len(chapter_files), "entries": len(entries), "entries_dropped": dropped}


def _snippet_stage(snippets_dir: Path, out_dir: Path, llm, allowlist: tuple[str, ...], problems: list[str]) -> dict:
    snippet_files = ((f.name, f) for f in sorted(snippets_dir.glob("*.cj")))
    texts = dict(_per_file(read_text, snippet_files, problems))
    outcome = filter_snippets(list(texts.values()), allowlist)
    # The filter judges a snippet by its text alone, so equal texts share a verdict.
    kept = set(outcome.retained)
    retained_texts = ((name, code) for name, code in texts.items() if code in kept)
    samples = [s for _, s in _per_file(partial(_snippet_sample, llm), retained_texts, problems)]
    write_monolingual_dataset(samples, out_dir / "monolingual.jsonl")
    return {
        "snippets_seen": len(texts),
        "snippets_retained": len(outcome.retained),
        "snippets_rejected": dict(outcome.rejected),
        "monolingual_samples": len(samples),
    }


def _pair_stage(pairs_dir: Path, out_dir: Path, retained: frozenset[str], problems: list[str]) -> dict:
    java_files = sorted(pairs_dir.glob("*.java"))
    pairs = ((f.name, f) for f in java_files)
    samples = (s for _, s in _per_file(partial(_pair_sample, retained), pairs, problems))
    written = write_parallel_dataset(samples, out_dir / "parallel.jsonl")
    return {"parallel_pairs": written, "parallel_skipped": len(java_files) - written}


def build_corpus(
    chapters_dir: str | Path | None,
    snippets_dir: str | Path | None,
    pairs_dir: str | Path | None,
    out_dir: str | Path,
    llm,
    allowlist: tuple[str, ...] = DEFAULT_IMPORT_ALLOWLIST,
    retained: frozenset[str] = DEFAULT_RETAINED_CATEGORIES,
) -> dict:
    """Build all configured datasets from input directories.

    Per-file failures are recorded in the returned stats and do not abort
    the run. File iteration is sorted, so reruns over identical inputs and
    transcripts are byte-identical. Each dataset is built by its own stage,
    so a stage's texts and samples are released before the next one starts.
    """
    out_dir = Path(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    stats: dict = {"errors": []}
    if chapters_dir is not None:
        stats.update(_chapter_stage(Path(chapters_dir), out_dir, llm, stats["errors"]))
    if snippets_dir is not None:
        stats.update(_snippet_stage(Path(snippets_dir), out_dir, llm, allowlist, stats["errors"]))
    if pairs_dir is not None:
        stats.update(_pair_stage(Path(pairs_dir), out_dir, retained, stats["errors"]))

    with atomic_write(out_dir / "stats.json") as fh:
        fh.write(json.dumps(stats, ensure_ascii=False, indent=2, sort_keys=True) + "\n")
    return stats
