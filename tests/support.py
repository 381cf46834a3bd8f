"""Helpers only tests need: reading a rendered prompt's blocks back, a
replay transcript built from (prompt, reply) pairs, a case's own query and
a scripted chat-completion server on the loopback interface."""

from __future__ import annotations

import http.server
import json
import threading

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


DROP = None  # a script step: read the POST, then close the connection without a reply


def completion(content) -> tuple[int, dict, str]:
    """A script step: a 200 chat completion whose reply is ``content``."""
    return 200, {}, json.dumps({"choices": [{"message": {"content": content}}]})


class ScriptedServer:
    """An HTTP server on 127.0.0.1 that answers each POST or GET with the next step of its script.

    A step is ``(status, headers, body)`` or ``DROP``; once the script is
    spent, every request gets a 410. ``bodies`` and ``headers`` hold each
    request's JSON body (None for a GET) and headers in arrival order.
    Enter it to serve from a thread; leaving shuts it down.
    """

    def __init__(self, steps):
        self.bodies: list = []
        self.headers: list = []
        steps = list(steps)
        lock = threading.Lock()
        scripted = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers.get("Content-Length", 0))
                body = json.loads(self.rfile.read(length)) if length else None
                with lock:
                    scripted.bodies.append(body)
                    scripted.headers.append(self.headers)
                    step = steps.pop(0) if steps else (410, {}, "script spent")
                if step is DROP:
                    self.close_connection = True
                    return
                status, headers, text = step
                data = text.encode("utf-8")
                self.send_response(status)
                for name, value in headers.items():
                    self.send_header(name, value)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            do_GET = do_POST  # what a client that follows a 302 or 303 sends next

            def log_message(self, format, *args):
                pass

        self._server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self.url = f"http://127.0.0.1:{self._server.server_port}/v1/chat/completions"
        # A short poll interval, so that leaving does not wait half a second for the loop to notice.
        self._thread = threading.Thread(target=self._server.serve_forever, args=(0.02,), daemon=True)

    def __enter__(self) -> "ScriptedServer":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
