"""Pipeline configuration: YAML file, strict schema, env/flag overrides.

``_SETTINGS`` gives every key one kind; unknown keys and values of another
kind are rejected at load so typos fail fast. Endpoint credentials are
never stored in the file; the file names an environment variable and the
key is read from the environment at backend construction time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .adapters import CommandCompiler, CommandRunner, MockCompiler, MockRunner
from .ast_summary import DEFAULT_RETAINED_CATEGORIES
from .corpus import DEFAULT_IMPORT_ALLOWLIST
from .javaparse import CATEGORIES
from .llm import DecodingConfig, HttpBackend, MockBackend, Transcript
from .repair_engine import RepairConfig
from .repair_repo import SimilarityWeights


class ConfigError(ValueError):
    pass


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# Each kind of setting: its name in error messages and the test a value
# passes. Nothing is converted; null (None) means unset only for strings.
_STRING = ("a string", lambda v: v is None or isinstance(v, str))
_INTEGER = ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool))
_NUMBER = ("a number", _number)
_STRINGS = ("a list of strings", lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v))
_NUMBERS = ("a list of numbers", lambda v: isinstance(v, list) and all(map(_number, v)))


def _choice(*names: str) -> tuple:
    """The kind of a setting that is one of ``names``."""
    return (" or ".join(map(repr, names)), lambda v: v in names)


_TOOL = {"mode": _choice("mock", "command"), "script": _STRING, "command": _STRINGS, "timeout": _NUMBER}

# Every setting, by section ("" is the top level, whose keys are also the
# other sections), and its kind. A setting left out takes the default of
# the class that uses it.
_SETTINGS: dict[str, dict[str, tuple]] = {
    "": {"retained_categories": _STRINGS, "allowlist": _STRINGS, "jobs": _INTEGER},
    "paths": dict.fromkeys(
        ("datasets", "chapters", "snippets", "pairs", "repository", "benchmark", "reports", "traces"), _STRING
    ),
    "llm": {
        "mode": _choice("mock", "http"),
        **dict.fromkeys(("transcript", "endpoint", "model", "api_key_env", "record"), _STRING),
    },
    "decoding": {"temperature": _NUMBER, "top_p": _NUMBER, "max_tokens": _INTEGER},
    "compiler": _TOOL,
    "runner": _TOOL,
    "repair": {"threshold": _NUMBER, "max_iterations": _INTEGER, "rag_top_k": _INTEGER, "weights": _NUMBERS},
}
# Every setting's dotted key, as load_config's overrides name it: "jobs", "repair.threshold", ...
SETTINGS = frozenset(f"{section}.{key}".lstrip(".") for section, kinds in _SETTINGS.items() for key in kinds)


@dataclass
class PipelineConfig:
    paths: dict = field(default_factory=dict)
    llm: dict = field(default_factory=dict)
    decoding: DecodingConfig = DecodingConfig()
    compiler: dict = field(default_factory=dict)
    runner: dict = field(default_factory=dict)
    repair: RepairConfig = RepairConfig()
    retained_categories: frozenset[str] = DEFAULT_RETAINED_CATEGORIES
    allowlist: tuple[str, ...] = DEFAULT_IMPORT_ALLOWLIST
    jobs: int = 1

    def __post_init__(self):
        self.retained_categories = frozenset(self.retained_categories)
        self.allowlist = tuple(self.allowlist)
        if not self.retained_categories:
            raise ConfigError("retained_categories must be a non-empty list")
        unknown = self.retained_categories - CATEGORIES
        if unknown:
            raise ConfigError(f"retained_categories names no parser category: {sorted(unknown)}")
        if self.jobs < 1:
            raise ConfigError("jobs must be a positive integer")

    def path(self, name: str) -> Path | None:
        value = self.paths.get(name)
        return Path(value) if value else None

    def required_path(self, name: str) -> Path:
        path = self.path(name)
        if path is None:
            raise ConfigError(f"paths.{name} is not set")
        return path


def _given(settings: dict, *keys: str) -> dict:
    """The settings among ``keys`` that ``settings`` sets, as keyword arguments."""
    return {key: settings[key] for key in keys if key in settings}


def load_config(path: str | Path | None, overrides: dict | None = None) -> PipelineConfig:
    """Load a config file (optional) and apply flat flag overrides.

    overrides use dotted keys, e.g. {"repair.threshold": 0.3, "jobs": 4}.
    """
    raw: dict = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                raw = yaml.safe_load(fh) or {}
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file is not UTF-8: {path}") from exc
        except (yaml.YAMLError, RecursionError) as exc:  # nested deeper than the stack
            raise ConfigError(f"config file is not valid YAML: {' '.join(str(exc).split())}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")

    for dotted, value in (overrides or {}).items():
        parts = dotted.split(".")
        target = raw
        for part in parts[:-1]:
            target = target.setdefault(part, {})
            if not isinstance(target, dict):
                raise ConfigError(f"cannot override {dotted}: {part} is not a mapping")
        target[parts[-1]] = value

    sections = _SETTINGS.keys() - {""}
    for section, kinds in _SETTINGS.items():
        settings = raw.setdefault(section, {}) if section else raw
        if not isinstance(settings, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        unknown = settings.keys() - kinds.keys() - (set() if section else sections)
        if unknown:
            raise ConfigError(f"unknown configuration keys at {section or 'top level'}: {sorted(unknown, key=str)}")
        for key, (kind, valid) in kinds.items():
            if key in settings and not valid(settings[key]):
                raise ConfigError(f"{section + '.' if section else ''}{key} must be {kind}")

    try:
        decoding = DecodingConfig(**raw["decoding"])
    except ValueError as exc:
        raise ConfigError(f"invalid decoding settings: {exc}") from exc
    try:
        if "weights" in raw["repair"]:
            raw["repair"]["weights"] = SimilarityWeights(tuple(raw["repair"]["weights"]))
        repair = RepairConfig(**raw["repair"])
    except ValueError as exc:
        raise ConfigError(f"invalid repair settings: {exc}") from exc
    settings = _given(raw, "paths", "llm", "compiler", "runner", *_SETTINGS[""])
    return PipelineConfig(decoding=decoding, repair=repair, **settings)


def build_llm(config: PipelineConfig):
    settings = config.llm
    if settings.get("mode", "mock") == "mock":
        transcript_path = settings.get("transcript")
        if not transcript_path:
            raise ConfigError("llm.transcript is required in mock mode")
        return MockBackend(Transcript.load(transcript_path))
    endpoint = settings.get("endpoint")
    model = settings.get("model")
    if not endpoint or not model:
        raise ConfigError("llm.endpoint and llm.model are required in http mode")
    key_env = settings.get("api_key_env")
    api_key = os.environ.get(key_env) if key_env else None
    recorder = [] if settings.get("record") else None
    return HttpBackend(endpoint, model, api_key=api_key, recorder=recorder, decoding=config.decoding)


def save_recording(config: PipelineConfig, exchanges) -> None:
    """Write the (prompt, reply) pairs of a run in record mode, in the order
    given and one line per prompt digest, to ``llm.record``, if there are any."""
    record_path = config.llm.get("record")
    if record_path and exchanges:
        transcript = Transcript()
        for prompt, reply in exchanges:
            transcript.add(prompt, reply)
        transcript.save(record_path)


def build_compiler(config: PipelineConfig):
    settings = config.compiler
    if settings.get("mode", "command") == "mock":
        script = settings.get("script")
        if not script:
            raise ConfigError("compiler.script is required in mock mode")
        return MockCompiler.load(script)
    command = settings.get("command")
    if not command:
        raise ConfigError("compiler.command is required in command mode")
    return CommandCompiler(command, **_given(settings, "timeout"))


def build_runner(config: PipelineConfig):
    settings = config.runner
    if settings.get("mode", "command") == "mock":
        script = settings.get("script")
        if not script:
            raise ConfigError("runner.script is required in mock mode")
        return MockRunner.load(script)
    return CommandRunner(settings.get("command"), **_given(settings, "timeout"))
