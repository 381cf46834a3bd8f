"""Helpers only tests need: reading a rendered prompt's blocks back, a
replay transcript built from (prompt, reply) pairs, and a case's own query."""

from __future__ import annotations

from j2cj.ast_summary import CODE_CLOSE, CODE_OPEN, STRUCT_CLOSE, STRUCT_OPEN
from j2cj.llm import Transcript
from j2cj.repair_repo import ErrorQuery, RepairCase


def extract_blocks(prompt: str) -> tuple[list[str], str]:
    """Recover (tokens, source) from a prompt ``render_structured_prompt`` built."""

    def between(open_marker: str, close_marker: str) -> str:
        try:
            start = prompt.index(open_marker) + len(open_marker)
            end = prompt.index(close_marker, start)
        except ValueError:
            raise ValueError(f"prompt lacks {open_marker}/{close_marker} block") from None
        return prompt[start:end]

    struct_body = between(STRUCT_OPEN, STRUCT_CLOSE).strip("\n")
    code_body = between(CODE_OPEN, CODE_CLOSE)
    code = code_body[1:-1] if code_body.startswith("\n") and code_body.endswith("\n") else code_body
    return struct_body.split(), code


def transcript_of(pairs) -> Transcript:
    """A transcript that replies to each prompt of ``pairs`` with its reply."""
    transcript = Transcript()
    for prompt, reply in pairs:
        transcript.add(prompt, reply)
    return transcript


def query_from_case(case: RepairCase) -> ErrorQuery:
    """The query built from the case's own fields, which scores it 1.0."""
    return ErrorQuery(case.error_info, case.faulty_fragment, case.error_tags)
