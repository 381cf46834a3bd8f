"""Input files: one strict text reader, one JSON and one JSONL reader, one row
field checker, one atomic writer and the one text digest that keys
transcripts, mock scripts and traces.

Every JSONL file the pipeline reads or writes (transcripts, mock scripts,
repositories, datasets, outcomes, reports) goes through ``read_jsonl`` and
``write_jsonl`` (or ``jsonl_line``, for rows written as they come), and its
rows' fields through ``fields``, so all of them report malformed input the
same way (``path:line: reason``). Those files, traces and corpus statistics
are all written through ``atomic_write``, so each is replaced whole, never
left half-written.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator, TextIO


class JsonlError(ValueError):
    """A malformed JSONL file; the message starts with ``path:line:``."""


# Decoding with "surrogateescape" turns each byte that is not UTF-8 into one
# of these code points, which strict UTF-8 text never contains.
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


def read_text(path) -> str:
    """The UTF-8 text of ``path``; a file that is not UTF-8 raises ValueError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc.reason} at byte {exc.start}") from exc


def read_json(path) -> object:
    """The JSON document that is the whole of ``path``; invalid JSON, or JSON nested
    deeper than the interpreter's stack, raises ValueError naming ``path[:line]``."""
    try:
        return json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc


def text_digest(text: str) -> str:
    """Hex SHA-256 of the UTF-8 encoding of ``text``."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# Each kind of field: its name in error messages and the test a value passes.
STRING = ("a string", lambda v: isinstance(v, str))
STRINGS = ("a list of strings", lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v))
BOOLEAN = ("a boolean", lambda v: isinstance(v, bool))
INTEGER = ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
OBJECT = ("an object", lambda v: isinstance(v, dict))


def fields(record: dict, **kinds: tuple) -> list:
    """The values of the fields named in ``kinds``, in that order; one that is
    missing, or fails its kind's test, raises ValueError naming it."""
    for name, (kind, valid) in kinds.items():
        if name not in record:
            raise ValueError(f"missing field {name!r}")
        if not valid(record[name]):
            raise ValueError(f"field {name!r} must be {kind}")
    return [record[name] for name in kinds]


def read_jsonl(path, convert: Callable[[dict], object]) -> list:
    """Records of ``path`` in file order, skipping blank lines.

    ``convert`` maps each record to the caller's value. A line that is not
    a JSON object (or nests deeper than the interpreter's stack), and a
    ``ValueError`` or ``TypeError`` raised by ``convert`` (a missing or
    invalid field: see ``fields``), become a ``JsonlError`` naming the line,
    and so does a byte that is not UTF-8.
    """
    values = []
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, 1):
            where = f"{path}:{lineno}"
            bad = None if line.isascii() else _ESCAPED_BYTE.search(line)
            if bad is not None:
                raise JsonlError(f"{where}: not UTF-8: byte {ord(bad.group()) - 0xDC00:#x}")
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:
                raise JsonlError(f"{where}: invalid JSON: {exc}") from exc
            if not isinstance(record, dict):
                raise JsonlError(f"{where}: expected an object")
            try:
                values.append(convert(record))
            except (TypeError, ValueError) as exc:
                raise JsonlError(f"{where}: {exc}") from exc
    return values


@contextmanager
def atomic_write(path) -> Iterator[TextIO]:
    """Open a UTF-8 text file that replaces ``path`` when the block ends.

    The text goes to a sibling temp file that then replaces ``path``, so a
    reader never sees a partial file and a block that raises leaves the old
    file untouched. An ``OSError`` of the temp file names ``path`` instead;
    one that names another file, or has no errno, passes unchanged.
    """
    tmp_path = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(tmp_path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp_path, path)
    except OSError as exc:
        if exc.errno is None or exc.filename not in (None, tmp_path):  # not the temp file's
            raise
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
    finally:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)


def jsonl_line(record: dict) -> str:
    """``record`` as one line of a JSONL file: ``json.dumps(record, ensure_ascii=False)``."""
    return json.dumps(record, ensure_ascii=False) + "\n"


def write_jsonl(path, records: Iterable[dict]) -> int:
    """Write one ``jsonl_line`` per record, atomically, as the records come; return how many."""
    count = 0
    with atomic_write(path) as fh:
        for count, record in enumerate(records, 1):
            fh.write(jsonl_line(record))
    return count
