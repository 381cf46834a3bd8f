"""Template rendering, transcript replay, backend retry policy."""

import json
import os
import re
import socket
import ssl
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from support import DROP, completion, transcript_of

from j2cj import llm
from j2cj.config import build_llm, load_config
from j2cj.llm import (
    DOC_RECONSTRUCTION_TEMPLATE,
    RAG_REPAIR_TEMPLATE,
    REPAIR_APPLY_COMPILE_TEMPLATE,
    REPAIR_APPLY_TEST_TEMPLATE,
    REPAIR_GUIDANCE_COMPILE_TEMPLATE,
    REPAIR_GUIDANCE_TEST_TEMPLATE,
    SEMANTIC_ANNOTATION_TEMPLATE,
    CompletionError,
    DecodingConfig,
    HttpBackend,
    MockBackend,
    MockMissError,
    PromptTemplate,
    TemplateError,
    Transcript,
    extract_code_block,
)
from j2cj.jsonl import text_digest


def test_decoding_defaults_and_validation():
    cfg = DecodingConfig()
    assert cfg.temperature == 0.0
    assert cfg.top_p == 1.0
    with pytest.raises(ValueError):
        DecodingConfig(temperature=-0.1)
    with pytest.raises(ValueError):
        DecodingConfig(top_p=0.0)
    with pytest.raises(ValueError):
        DecodingConfig(max_tokens=0)


def test_render_simple_substitution():
    template = PromptTemplate("t", "T: {code}")
    assert template.render({"code": "x"}) == "T: x"


def test_render_missing_slot_names_the_slot():
    template = PromptTemplate("t", "T: {code}")
    with pytest.raises(TemplateError, match="code"):
        template.render({})


def test_render_rejects_unknown_extra_slots():
    template = PromptTemplate("t", "T: {code}")
    with pytest.raises(TemplateError, match="extra"):
        template.render({"code": "x", "extra": "y"})


def test_slot_value_with_placeholder_syntax_is_not_reexpanded():
    template = PromptTemplate("t", "A {first} B {second}")
    rendered = template.render({"first": "{second}", "second": "ZZ"})
    assert rendered == "A {second} B ZZ"


def test_template_requires_each_slot_exactly_once():
    with pytest.raises(TemplateError, match="'code' appears more than once"):
        PromptTemplate("t", "{code} and {code}")
    assert PromptTemplate("t", "no slots here").required_slots == frozenset()


def test_template_slots_are_its_placeholders():
    assert PromptTemplate("t", "has {rogue} and {{literal}}").required_slots == {"rogue"}
    assert REPAIR_APPLY_TEST_TEMPLATE.required_slots == {"java", "candidate", "failures", "guidance"}


@pytest.mark.parametrize(
    "body",
    ["stray { brace", "stray } brace", "{Foo}", "{}", "{a.b}", "{a[0]}", "{a!r}", "{a:>3}"],
)
def test_template_rejects_malformed_placeholders(body):
    with pytest.raises(TemplateError):
        PromptTemplate("t", body)


def test_brace_escaping_in_template_body():
    template = PromptTemplate("t", 'JSON: {{"k": "{v}"}}')
    assert template.render({"v": "x"}) == 'JSON: {"k": "x"}'


def test_registry_templates_render_with_their_slots():
    for template in (
        DOC_RECONSTRUCTION_TEMPLATE,
        SEMANTIC_ANNOTATION_TEMPLATE,
        REPAIR_GUIDANCE_COMPILE_TEMPLATE,
        REPAIR_APPLY_COMPILE_TEMPLATE,
        REPAIR_GUIDANCE_TEST_TEMPLATE,
        REPAIR_APPLY_TEST_TEMPLATE,
        RAG_REPAIR_TEMPLATE,
    ):
        slots = {slot: f"<{slot}>" for slot in template.required_slots}
        rendered = template.render(slots)
        for slot in template.required_slots:
            assert f"<{slot}>" in rendered, template.name


def test_render_is_injective_for_distinct_slot_maps():
    template = REPAIR_GUIDANCE_COMPILE_TEMPLATE
    a = template.render({"java": "x", "candidate": "y", "errors": "z"})
    b = template.render({"java": "x", "candidate": "y", "errors": "w"})
    assert a != b


_SLOT_TEXT = st.text(alphabet=st.characters(blacklist_characters="[]", blacklist_categories=("Cs",)), max_size=30)


@given(first=_SLOT_TEXT, second=_SLOT_TEXT, other=_SLOT_TEXT)
def test_render_injective_property_for_delimited_template(first, second, other):
    # Slots sit between bracketed delimiter lines, so distinct slot maps
    # cannot collide.
    template = REPAIR_GUIDANCE_COMPILE_TEMPLATE
    base = {"java": first, "candidate": second, "errors": other}
    rendered = template.render(base)
    changed = template.render({**base, "errors": other + "x"})
    assert rendered != changed


def test_transcript_replay_and_miss():
    transcript = Transcript()
    transcript.add("hello", "world")
    backend = MockBackend(transcript)
    assert backend.complete("hello") == "world"
    with pytest.raises(MockMissError) as err:
        backend.complete("unknown")
    assert str(err.value) == f"transcript has no reply for prompt digest {text_digest('unknown')}"


def test_complete_rejects_empty_prompt():
    backend = MockBackend(Transcript())
    with pytest.raises(ValueError):
        backend.complete("")


def test_transcript_file_round_trip(tmp_path):
    transcript = transcript_of([("p1", "r1"), ("p2", "r2")])
    path = tmp_path / "transcript.jsonl"
    transcript.save(path)
    loaded = Transcript.load(path)
    assert loaded.entries == transcript.entries
    lines = path.read_text(encoding="utf-8").splitlines()
    assert all(set(json.loads(line)) == {"digest", "prompt", "reply"} for line in lines)
    assert {json.loads(line)["prompt"] for line in lines} == {"p1", "p2"}
    assert loaded.prompts == {}


@pytest.fixture(autouse=True)
def _no_backoff(monkeypatch):
    monkeypatch.setattr("j2cj.llm.time.sleep", lambda seconds: None)


def test_http_backend_sends_decoding_settings(serve):
    server = serve([completion("done")])
    backend = HttpBackend(server.url, "model-a", api_key="k", decoding=DecodingConfig(max_tokens=7))
    assert backend.complete("p") == "done"
    sent = server.bodies[0]
    assert sent["temperature"] == 0.0
    assert sent["top_p"] == 1.0
    assert sent["max_tokens"] == 7
    assert sent["messages"] == [{"role": "user", "content": "p"}]
    assert server.headers[0]["Authorization"] == "Bearer k"
    assert server.headers[0]["User-Agent"] == "j2cj"


def test_build_llm_gives_the_http_backend_the_configured_decoding_settings(tmp_path, serve):
    server = serve([completion("done")])
    config_path = tmp_path / "config.yaml"
    config_path.write_text(
        f"llm: {{mode: http, endpoint: '{server.url}', model: m}}\n"
        "decoding: {temperature: 0.3, top_p: 0.9, max_tokens: 64}\n",
        encoding="utf-8",
    )
    backend = build_llm(load_config(config_path))
    assert backend.complete("p") == "done"
    sent = server.bodies[0]
    assert (sent["temperature"], sent["top_p"], sent["max_tokens"]) == (0.3, 0.9, 64)


def test_http_backend_retries_transient_then_succeeds(serve, monkeypatch):
    sleeps = []
    monkeypatch.setattr("j2cj.llm.time.sleep", sleeps.append)
    server = serve([DROP, (503, {}, ""), completion("ok")])
    backend = HttpBackend(server.url, "m")
    assert backend.complete("p") == "ok"
    assert len(server.bodies) == 3
    assert sleeps == [0.5, 1.0]


def test_http_backend_gives_up_after_budget(serve):
    server = serve([(500, {}, "")] * 3)
    backend = HttpBackend(server.url, "m")
    with pytest.raises(CompletionError, match="3 attempts"):
        backend.complete("p")


def test_http_backend_gives_up_on_a_refused_connection(monkeypatch):
    monkeypatch.setenv("no_proxy", "127.0.0.1")  # so no proxy answers in the port's place
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))  # bound but not listening, so every connection is refused
        backend = HttpBackend(f"http://127.0.0.1:{sock.getsockname()[1]}/v1", "m")
        with pytest.raises(CompletionError, match="^endpoint unreachable after 3 attempts: "):
            backend.complete("p")


def test_http_backend_waits_retry_after_on_429(serve, monkeypatch):
    sleeps = []
    monkeypatch.setattr("j2cj.llm.time.sleep", sleeps.append)
    server = serve([(429, {"Retry-After": "2"}, ""), completion("ok")])
    backend = HttpBackend(server.url, "m")
    assert backend.complete("p") == "ok"
    assert sleeps == [2.0]


def test_http_backend_gives_up_on_persistent_429(serve):
    server = serve([(429, {}, "")] * 3)
    backend = HttpBackend(server.url, "m")
    with pytest.raises(CompletionError, match="429"):
        backend.complete("p")
    assert len(server.bodies) == 3


def test_http_backend_client_errors_fail_fast(serve):
    server = serve([(401, {}, json.dumps({"error": "denied"}))])
    backend = HttpBackend(server.url, "m")
    with pytest.raises(CompletionError, match="401"):
        backend.complete("p")
    assert len(server.bodies) == 1


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_http_backend_refuses_redirects(serve, status):
    elsewhere = serve([completion("elsewhere")])
    server = serve([(status, {"Location": elsewhere.url}, "")])
    backend = HttpBackend(server.url, "m", api_key="k")
    with pytest.raises(CompletionError, match=f"^endpoint returned {status}: $"):
        backend.complete("p")
    assert len(server.bodies) == 1
    assert elsewhere.headers == []  # so the Authorization header went nowhere else


def test_http_backend_reads_the_trust_store_once_not_per_request(serve, monkeypatch):
    built = []
    create = ssl.create_default_context
    monkeypatch.setattr(ssl, "create_default_context", lambda *a, **k: built.append(1) or create(*a, **k))
    llm._http_opener.cache_clear()  # the opener, and its one TLS context, is built on the next request
    backend = HttpBackend(serve([completion("a"), completion("b")]).url, "m")
    assert [backend.complete("p"), backend.complete("q")] == ["a", "b"]
    assert len(built) == 1


def test_http_backend_records_replies_for_replay(serve):
    recorder = []
    server = serve([completion("recorded"), completion("again")])
    backend = HttpBackend(server.url, "m", recorder=recorder)
    backend.complete("prompt-a")
    backend.complete("prompt-a")
    assert recorder == [("prompt-a", "recorded"), ("prompt-a", "again")]


@pytest.mark.parametrize("content", [None, 7, ["x"]], ids=["null", "int", "list"])
def test_http_backend_rejects_a_reply_that_is_not_text(serve, content):
    server = serve([completion(content)])
    backend = HttpBackend(server.url, "m")
    with pytest.raises(CompletionError, match="malformed completion response"):
        backend.complete("p")


def test_http_backend_rejects_a_body_that_is_not_json_without_retry(serve):
    body = "<html>" + "x" * 600
    server = serve([(200, {}, body)])
    backend = HttpBackend(server.url, "m")
    with pytest.raises(CompletionError) as err:
        backend.complete("p")
    assert str(err.value) == "malformed completion response: " + body[:500]
    assert len(server.bodies) == 1


def test_http_backend_rejects_json_nested_deeper_than_the_stack_without_retry(serve):
    server = serve([(200, {}, "[" * 100_000 + "]" * 100_000)])
    backend = HttpBackend(server.url, "m")
    with pytest.raises(CompletionError) as err:
        backend.complete("p")
    assert str(err.value) == "malformed completion response: " + "[" * 500
    assert len(server.bodies) == 1


def test_http_backend_quotes_500_characters_of_a_json_body_without_a_reply(serve):
    body = json.dumps({"choices": [], "pad": "x" * 5000})
    backend = HttpBackend(serve([(200, {}, body)]).url, "m")
    with pytest.raises(CompletionError) as err:
        backend.complete("p")
    assert str(err.value) == "malformed completion response: " + body[:500]


@pytest.mark.parametrize("status", [404, 200])
def test_http_backend_error_quoting_a_multiline_body_is_one_line(serve, status):
    backend = HttpBackend(serve([(status, {}, "<html>\n<body>down</body>\n</html>")]).url, "m")
    with pytest.raises(CompletionError) as err:
        backend.complete("p")
    prefix = "endpoint returned 404" if status == 404 else "malformed completion response"
    assert str(err.value) == f"{prefix}: <html> <body>down</body> </html>"


def test_extract_code_block_variants():
    assert extract_code_block("```\nmain()\n```") == "main()"
    assert extract_code_block("prose first\n```cangjie\nlet x = 1\n```\nmore prose") == "let x = 1"
    assert extract_code_block("  no fence at all  ") == "no fence at all"
    assert extract_code_block("```\nfirst\n```\n```\nsecond\n```") == "first"


# The fence pattern as first written: quadratic in a reply with a fence
# that never closes, kept as the oracle of the linear search.
_QUADRATIC_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)


def extract_code_block_quadratic(reply: str) -> str:
    m = _QUADRATIC_FENCE_RE.search(reply)
    return m.group(1).rstrip("\n") if m else reply.strip()


@settings(max_examples=1000, deadline=None)
@given(pieces=st.lists(st.sampled_from(["`", "```", "\n", "a", " "]), max_size=24))
def test_extract_code_block_matches_its_quadratic_pattern(pieces):
    reply = "".join(pieces)
    assert extract_code_block(reply) == extract_code_block_quadratic(reply)


def test_extract_code_block_runs_in_linear_time(run_isolated):
    code = (
        "import json\n"
        "from j2cj.llm import extract_code_block\n"
        "for reply in json.loads(sys.stdin.read()):\n"
        "    print(len(extract_code_block(reply)))\n"
    )
    # The pattern once tried every backtick as an opening fence, and scanned
    # to the end of the reply from each.
    replies = ["`" * 400_000, "`" * 400_000 + "\n", "```\n" + "``a" * 200_000]
    result = run_isolated(code, stdin=json.dumps(replies), timeout=20)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["400000", "400000", "600004"]


def test_replay_pipeline_does_not_import_the_http_client():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, j2cj.cli; assert not {'urllib.request', 'http.client'} & set(sys.modules), 'client imported'"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
