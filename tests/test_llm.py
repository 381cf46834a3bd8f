"""Template rendering, transcript replay, backend retry policy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import requests
from hypothesis import given, strategies as st

from support import transcript_of

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


class _FakeResponse:
    def __init__(self, status_code: int, payload: dict | None = None, headers: dict | None = None):
        self.status_code = status_code
        self.headers = headers or {}
        self._payload = payload or {}
        self.text = json.dumps(self._payload)

    def json(self):
        return self._payload


class _FakeSession:
    """Scripted session: a list of responses or exceptions, in order."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append(json)
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def _ok_response(reply: str) -> _FakeResponse:
    return _FakeResponse(200, {"choices": [{"message": {"content": reply}}]})


@pytest.fixture(autouse=True)
def _no_backoff(monkeypatch):
    monkeypatch.setattr("j2cj.llm.time.sleep", lambda seconds: None)


def test_http_backend_sends_decoding_settings():
    session = _FakeSession([_ok_response("done")])
    backend = HttpBackend("http://x/v1/chat", "model-a", session=session, decoding=DecodingConfig(max_tokens=7))
    assert backend.complete("p") == "done"
    sent = session.requests[0]
    assert sent["temperature"] == 0.0
    assert sent["top_p"] == 1.0
    assert sent["max_tokens"] == 7
    assert sent["messages"] == [{"role": "user", "content": "p"}]


def test_build_llm_gives_the_http_backend_the_configured_decoding_settings(tmp_path):
    config_path = tmp_path / "config.yaml"
    config_path.write_text(
        "llm: {mode: http, endpoint: 'http://x/v1/chat', model: m}\n"
        "decoding: {temperature: 0.3, top_p: 0.9, max_tokens: 64}\n",
        encoding="utf-8",
    )
    backend = build_llm(load_config(config_path))
    backend.session = session = _FakeSession([_ok_response("done")])
    assert backend.complete("p") == "done"
    sent = session.requests[0]
    assert (sent["temperature"], sent["top_p"], sent["max_tokens"]) == (0.3, 0.9, 64)


def test_http_backend_retries_transient_then_succeeds():
    session = _FakeSession(
        [requests.ConnectionError("down"), _FakeResponse(503), _ok_response("ok")]
    )
    backend = HttpBackend("http://x", "m", session=session)
    assert backend.complete("p") == "ok"
    assert len(session.requests) == 3


def test_http_backend_gives_up_after_budget():
    session = _FakeSession([_FakeResponse(500)] * 3)
    backend = HttpBackend("http://x", "m", session=session)
    with pytest.raises(CompletionError, match="3 attempts"):
        backend.complete("p")


def test_http_backend_waits_retry_after_on_429(monkeypatch):
    sleeps = []
    monkeypatch.setattr("j2cj.llm.time.sleep", sleeps.append)
    session = _FakeSession([_FakeResponse(429, headers={"Retry-After": "2"}), _ok_response("ok")])
    backend = HttpBackend("http://x", "m", session=session)
    assert backend.complete("p") == "ok"
    assert sleeps == [2.0]


def test_http_backend_gives_up_on_persistent_429():
    session = _FakeSession([_FakeResponse(429)] * 3)
    backend = HttpBackend("http://x", "m", session=session)
    with pytest.raises(CompletionError, match="429"):
        backend.complete("p")
    assert len(session.requests) == 3


def test_http_backend_client_errors_fail_fast():
    session = _FakeSession([_FakeResponse(401, {"error": "denied"})])
    backend = HttpBackend("http://x", "m", session=session)
    with pytest.raises(CompletionError, match="401"):
        backend.complete("p")
    assert len(session.requests) == 1


def test_http_backend_records_replies_for_replay():
    recorder = Transcript()
    session = _FakeSession([_ok_response("recorded")])
    backend = HttpBackend("http://x", "m", session=session, recorder=recorder)
    backend.complete("prompt-a")
    assert recorder.lookup("prompt-a") == "recorded"


@pytest.mark.parametrize("content", [None, 7, ["x"]], ids=["null", "int", "list"])
def test_http_backend_rejects_a_reply_that_is_not_text(content):
    session = _FakeSession([_FakeResponse(200, {"choices": [{"message": {"content": content}}]})])
    backend = HttpBackend("http://x", "m", session=session)
    with pytest.raises(CompletionError, match="malformed completion response"):
        backend.complete("p")


def test_http_backend_rejects_a_body_that_is_not_json_without_retry():
    response = _FakeResponse(200)
    response.text = "<html>" + "x" * 600
    response.json = lambda: json.loads(response.text)
    session = _FakeSession([response])
    backend = HttpBackend("http://x", "m", session=session)
    with pytest.raises(CompletionError) as err:
        backend.complete("p")
    assert str(err.value) == "malformed completion response: " + response.text[:500]
    assert len(session.requests) == 1


def test_http_backend_quotes_500_characters_of_a_json_body_without_a_reply():
    response = _FakeResponse(200, {"choices": [], "pad": "x" * 5000})
    backend = HttpBackend("http://x", "m", session=_FakeSession([response]))
    with pytest.raises(CompletionError) as err:
        backend.complete("p")
    assert str(err.value) == "malformed completion response: " + response.text[:500]


@pytest.mark.parametrize("status", [404, 200])
def test_http_backend_error_quoting_a_multiline_body_is_one_line(status):
    response = _FakeResponse(status)
    response.text = "<html>\n<body>down</body>\n</html>"
    response.json = lambda: json.loads(response.text)
    backend = HttpBackend("http://x", "m", session=_FakeSession([response]))
    with pytest.raises(CompletionError) as err:
        backend.complete("p")
    prefix = "endpoint returned 404" if status == 404 else "malformed completion response"
    assert str(err.value) == f"{prefix}: <html> <body>down</body> </html>"


def test_extract_code_block_variants():
    assert extract_code_block("```\nmain()\n```") == "main()"
    assert extract_code_block("prose first\n```cangjie\nlet x = 1\n```\nmore prose") == "let x = 1"
    assert extract_code_block("  no fence at all  ") == "no fence at all"
    assert extract_code_block("```\nfirst\n```\n```\nsecond\n```") == "first"


def test_replay_pipeline_does_not_import_requests():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    probe = "import sys, j2cj.cli; assert 'requests' not in sys.modules, 'requests imported'"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
