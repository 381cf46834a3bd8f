"""Completion gateway: prompt templates, decoding config, backends.

Two interchangeable backends sit behind ``complete``: an HTTP
chat-completion client with retry, and a deterministic replay mock backed
by a transcript of (prompt digest -> reply) pairs. With temperature 0 and
the mock backend, every pipeline run is byte-reproducible.
"""

from __future__ import annotations

import functools
import json
import math
import re
import string
import time
from dataclasses import dataclass, field

from .jsonl import read_jsonl, string_fields, text_digest, write_jsonl


class TemplateError(ValueError):
    """Slot/placeholder mismatch when building or rendering a template."""


class CompletionError(RuntimeError):
    """Backend failed to produce a reply."""


class MockMissError(CompletionError):
    """The replay transcript has no entry for the prompt."""


@dataclass(frozen=True)
class DecodingConfig:
    temperature: float = 0.0
    top_p: float = 1.0
    max_tokens: int = 2048

    def __post_init__(self):
        if not 0 <= self.temperature < math.inf:
            raise ValueError("temperature must be non-negative and finite")
        if not (0 < self.top_p <= 1.0):
            raise ValueError("top_p must be in (0, 1]")
        if self.max_tokens <= 0:
            raise ValueError("max_tokens must be positive")


_SLOT_NAME_RE = re.compile(r"[a-z][a-z0-9_]*")


@dataclass(frozen=True)
class PromptTemplate:
    """Named template with `{slot}` placeholders in ``str.format`` syntax.

    Slot names are lowercase identifiers with no conversion, format spec,
    attribute or index; ``{{`` and ``}}`` escape literal braces. The
    template's slots are the body's placeholders, each appearing exactly
    once.
    """

    name: str
    body: str
    required_slots: frozenset[str] = field(init=False)

    def __post_init__(self):
        try:
            fields = [
                (slot, conversion, spec)
                for _, slot, spec, conversion in string.Formatter().parse(self.body)
                if slot is not None
            ]
        except ValueError as exc:
            raise TemplateError(
                f"template {self.name!r}: {exc}; use '{{{{' or '}}}}' for a literal brace"
            ) from None
        slots: set[str] = set()
        for slot, conversion, spec in fields:
            if conversion is not None or spec or not _SLOT_NAME_RE.fullmatch(slot):
                raise TemplateError(
                    f"template {self.name!r}: malformed placeholder {slot!r}; a slot is a "
                    "lowercase name with no conversion, format spec, attribute or index"
                )
            if slot in slots:
                raise TemplateError(f"template {self.name!r}: slot {slot!r} appears more than once")
            slots.add(slot)
        object.__setattr__(self, "required_slots", frozenset(slots))

    def render(self, slots: dict[str, str]) -> str:
        missing = self.required_slots - set(slots)
        if missing:
            raise TemplateError(f"template {self.name!r}: missing slot {sorted(missing)[0]!r}")
        extra = set(slots) - self.required_slots
        if extra:
            raise TemplateError(f"template {self.name!r}: unknown slots {sorted(extra)}")
        return self.body.format_map(slots)


# --- templates ------------------------------------------------------------

TRANSLATE_INSTRUCTION = (
    "Translate the following Java program into Cangjie. Follow the structural "
    "outline as a constraint on declarations and control flow. Output only the "
    "Cangjie code in a fenced code block."
)

MONOLINGUAL_INSTRUCTION = (
    "Write a Cangjie program that implements the following functional description."
)

DOC_RECONSTRUCTION_TEMPLATE = PromptTemplate(
    name="doc_reconstruction",
    body=(
        "You are a technical writer restructuring Cangjie language documentation.\n"
        "Rewrite the chapter below into self-contained knowledge entries.\n"
        "Return a JSON array; each element must have exactly these fields:\n"
        '  "id": unique string identifier,\n'
        '  "title": short entry title,\n'
        '  "tags": list of topic strings,\n'
        '  "typical_questions": list of questions a developer might ask,\n'
        '  "description": normalized description of the concept or rule,\n'
        '  "code_examples": list of runnable Cangjie code examples.\n'
        "Cover every concept and usage pattern in the chapter.\n"
        "Output only the JSON array.\n"
        "\n"
        "Chapter:\n"
        "{chapter}\n"
    ),
)

SEMANTIC_ANNOTATION_TEMPLATE = PromptTemplate(
    name="semantic_annotation",
    body=(
        "### You are an assistant for code semantic interpretation.\n"
        "### Summarize the functional semantics of the following Cangjie code in "
        "one concise, imperative-style natural language sentence. "
        "Output only the description.\n"
        "{code}\n"
    ),
)

REPAIR_GUIDANCE_COMPILE_TEMPLATE = PromptTemplate(
    name="repair_guidance_compile",
    body=(
        "You are an expert in the Cangjie programming language.\n"
        "The Cangjie translation below fails to compile.\n"
        "\n"
        "[Java source]\n{java}\n"
        "\n"
        "[Cangjie candidate]\n{candidate}\n"
        "\n"
        "[Compiler errors]\n{errors}\n"
        "\n"
        "Explain the root cause of each error and propose concrete code changes.\n"
        "Do not output code yet; output the analysis and repair plan only.\n"
    ),
)

REPAIR_APPLY_COMPILE_TEMPLATE = PromptTemplate(
    name="repair_apply_compile",
    body=(
        "You are an expert in the Cangjie programming language.\n"
        "Apply the repair plan so the Cangjie candidate compiles and preserves\n"
        "the behavior of the Java source.\n"
        "\n"
        "[Java source]\n{java}\n"
        "\n"
        "[Cangjie candidate]\n{candidate}\n"
        "\n"
        "[Compiler errors]\n{errors}\n"
        "\n"
        "[Repair plan]\n{guidance}\n"
        "\n"
        "Output only the complete corrected Cangjie code in a fenced code block.\n"
    ),
)

REPAIR_GUIDANCE_TEST_TEMPLATE = PromptTemplate(
    name="repair_guidance_test",
    body=(
        "You are an expert in the Cangjie programming language.\n"
        "The Cangjie translation below compiles but produces wrong output.\n"
        "\n"
        "[Java source]\n{java}\n"
        "\n"
        "[Cangjie candidate]\n{candidate}\n"
        "\n"
        "[Failed test cases: input, expected output, actual output]\n{failures}\n"
        "\n"
        "Explain the root cause of each output discrepancy and propose concrete\n"
        "code changes. Do not output code yet; output the analysis and repair\n"
        "plan only.\n"
    ),
)

REPAIR_APPLY_TEST_TEMPLATE = PromptTemplate(
    name="repair_apply_test",
    body=(
        "You are an expert in the Cangjie programming language.\n"
        "Apply the repair plan so the Cangjie candidate passes the failed tests\n"
        "and preserves the behavior of the Java source.\n"
        "\n"
        "[Java source]\n{java}\n"
        "\n"
        "[Cangjie candidate]\n{candidate}\n"
        "\n"
        "[Failed test cases: input, expected output, actual output]\n{failures}\n"
        "\n"
        "[Repair plan]\n{guidance}\n"
        "\n"
        "Output only the complete corrected Cangjie code in a fenced code block.\n"
    ),
)

RAG_REPAIR_TEMPLATE = PromptTemplate(
    name="rag_repair",
    body=(
        "You are an expert in the Cangjie programming language.\n"
        "The Cangjie code below fails to compile. Similar past errors and their\n"
        "verified fixes are listed as guidance.\n"
        "\n"
        "[Compiler errors]\n{errors}\n"
        "\n"
        "[Similar repair cases]\n{cases}\n"
        "\n"
        "[Cangjie candidate]\n{candidate}\n"
        "\n"
        "Follow the repair suggestions where they apply. Output only the\n"
        "complete corrected Cangjie code in a fenced code block.\n"
    ),
)


# --- transcripts and backends ----------------------------------------------

@dataclass
class Transcript:
    """Exact-match replay store keyed by prompt digest.

    Files carry full prompts next to their digests for auditability, but
    lookups only ever use the digest, so ``load`` keeps only the replies.
    """

    entries: dict[str, str] = field(default_factory=dict)
    prompts: dict[str, str] = field(default_factory=dict)

    def add(self, prompt: str, reply: str) -> str:
        digest = text_digest(prompt)
        self.entries[digest] = reply
        self.prompts[digest] = prompt
        return digest

    def lookup(self, prompt: str) -> str:
        digest = text_digest(prompt)
        if digest not in self.entries:
            raise MockMissError(f"transcript has no reply for prompt digest {digest}")
        return self.entries[digest]

    def save(self, path) -> None:
        write_jsonl(path, (
            {"digest": digest, "prompt": self.prompts.get(digest, ""), "reply": reply}
            for digest, reply in self.entries.items()
        ))

    @classmethod
    def load(cls, path) -> "Transcript":
        transcript = cls()

        def keep_reply(record: dict) -> None:
            digest, reply, _ = string_fields({"prompt": "", **record}, "digest", "reply", "prompt")
            transcript.entries[digest] = reply

        read_jsonl(path, keep_reply)
        return transcript


class MockBackend:
    """Deterministic completion backend replaying a transcript."""

    def __init__(self, transcript: Transcript):
        self.transcript = transcript

    def complete(self, prompt: str) -> str:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        return self.transcript.lookup(prompt)


HTTP_MAX_ATTEMPTS = 3
HTTP_BACKOFF_BASE_S = 0.5  # doubled after each further failed attempt
HTTP_TIMEOUT_S = 120.0


@functools.cache
def _http_opener():
    """The standard library's opener, with redirects refused: a redirected
    request would carry the API key to whatever host the redirect names.
    Its one TLS context reads the trust store once, not on every request."""
    import ssl
    import urllib.request

    class RefuseRedirects(urllib.request.HTTPRedirectHandler):
        def redirect_request(self, *args):
            return None  # the 3xx reply then reaches the caller as an HTTPError

    tls = urllib.request.HTTPSHandler(context=ssl.create_default_context())
    return urllib.request.build_opener(RefuseRedirects, tls)


@dataclass(eq=False, repr=False)  # no repr: it would print the API key
class HttpBackend:
    """Chat-completion HTTP client with bounded retry on transient failures.

    Retries transport errors, 429 and 5xx responses with exponential
    backoff; a 429 whose ``Retry-After`` is a whole number of seconds waits
    that long instead, at most ``HTTP_TIMEOUT_S``. A redirect, another 4xx
    response, or a 200 whose body is not JSON or has no reply text fails
    immediately.
    Every request carries the backend's decoding settings. An optional
    recorder list receives each (prompt, reply) pair, in call order, for
    later replay.
    The standard-library client is imported only when a request is sent,
    so the replay backend never pays for it.
    """

    endpoint: str
    model: str
    api_key: str | None = None
    recorder: list[tuple[str, str]] | None = None
    decoding: DecodingConfig = DecodingConfig()

    def complete(self, prompt: str) -> str:
        if not prompt:
            raise ValueError("prompt must be non-empty")
        import http.client
        import urllib.error
        import urllib.request

        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": self.decoding.temperature,
            "top_p": self.decoding.top_p,
            "max_tokens": self.decoding.max_tokens,
        }
        # Some gateways reject the standard library's default User-Agent, Python-urllib/3.x.
        headers = {"Content-Type": "application/json", "User-Agent": "j2cj"}
        if self.api_key:
            headers["Authorization"] = f"Bearer {self.api_key}"
        request = urllib.request.Request(self.endpoint, json.dumps(payload).encode(), headers)

        last_error: Exception | None = None
        retry_after: float | None = None
        for attempt in range(HTTP_MAX_ATTEMPTS):
            if attempt:
                backoff = HTTP_BACKOFF_BASE_S * (2 ** (attempt - 1))
                time.sleep(backoff if retry_after is None else retry_after)
            retry_after = None
            try:
                try:
                    with _http_opener().open(request, timeout=HTTP_TIMEOUT_S) as resp:
                        status, reply_headers, body = resp.status, resp.headers, resp.read()
                except urllib.error.HTTPError as exc:  # a 3xx, 4xx or 5xx reply, with its headers and body
                    with exc:
                        status, reply_headers, body = exc.code, exc.headers, exc.read()
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            if status == 429 or status >= 500:
                last_error = CompletionError(f"endpoint returned {status}")
                if status == 429:
                    seconds = reply_headers.get("Retry-After", "").strip()
                    if seconds.isdecimal():
                        retry_after = min(float(seconds), HTTP_TIMEOUT_S)
                continue
            text = body.decode("utf-8", errors="replace")
            excerpt = " ".join(text[:500].split())  # whitespace runs folded: the error is one line
            if status != 200:
                raise CompletionError(f"endpoint returned {status}: {excerpt}")
            try:  # a RecursionError is JSON nested deeper than the interpreter's stack
                reply = json.loads(text)["choices"][0]["message"]["content"]
            except (ValueError, LookupError, TypeError, RecursionError):
                reply = None
            if not isinstance(reply, str):
                raise CompletionError(f"malformed completion response: {excerpt}")
            if self.recorder is not None:
                self.recorder.append((prompt, reply))
            return reply
        raise CompletionError(f"endpoint unreachable after {HTTP_MAX_ATTEMPTS} attempts: {last_error}")


_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


def extract_code_block(reply: str) -> str:
    """Content of the first fenced code block, else the trimmed reply."""
    m = _FENCE_RE.search(reply)
    if m:
        return m.group(1).rstrip("\n")
    return reply.strip()
