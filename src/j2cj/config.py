"""Pipeline configuration: YAML file, strict schema, env/flag overrides.

Unknown keys are rejected at load so typos fail fast. Endpoint credentials
are never stored in the file; the file names an environment variable and
the key is read from the environment at backend construction time.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .adapters import CommandCompiler, CommandRunner, MockCompiler, MockRunner
from .ast_summary import DEFAULT_RETAINED_CATEGORIES
from .corpus import DEFAULT_IMPORT_ALLOWLIST
from .llm import DecodingConfig, HttpBackend, MockBackend, Transcript
from .repair_engine import RepairConfig
from .repair_repo import SimilarityWeights


class ConfigError(ValueError):
    pass


_SCHEMA: dict[str, set[str]] = {
    "": {"paths", "llm", "decoding", "compiler", "runner", "repair", "retained_categories", "allowlist", "jobs"},
    "paths": {"datasets", "chapters", "snippets", "pairs", "repository", "benchmark", "reports", "traces"},
    "llm": {"mode", "transcript", "endpoint", "model", "api_key_env", "record"},
    "decoding": {"temperature", "top_p", "max_tokens"},
    "compiler": {"mode", "command", "script", "timeout"},
    "runner": {"mode", "command", "script", "timeout"},
    "repair": {"threshold", "max_iterations", "rag_top_k", "weights"},
}
# Settings that are strings when set; compiler.command and runner.command are lists of strings.
_STRING_KEYS = {"paths": _SCHEMA["paths"], "llm": _SCHEMA["llm"],
                "compiler": {"mode", "script"}, "runner": {"mode", "script"}}


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

    def path(self, name: str) -> Path | None:
        value = self.paths.get(name)
        return Path(value) if value else None


def _check_keys(mapping: dict, section: str) -> None:
    allowed = _SCHEMA[section]
    unknown = set(mapping) - allowed
    if unknown:
        where = section or "top level"
        raise ConfigError(f"unknown configuration keys at {where}: {sorted(unknown)}")


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
        except yaml.YAMLError as exc:
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

    _check_keys(raw, "")
    for section in ("paths", "llm", "decoding", "compiler", "runner", "repair"):
        value = raw.get(section, {})
        if not isinstance(value, dict):
            raise ConfigError(f"section {section!r} must be a mapping")
        _check_keys(value, section)
        for key in sorted(_STRING_KEYS.get(section, ())):
            if value.get(key) is not None and not isinstance(value[key], str):
                raise ConfigError(f"{section}.{key} must be a string")
    for section in ("compiler", "runner"):
        settings = raw.get(section, {})
        command = settings.get("command")
        if command is not None and not (isinstance(command, list) and all(isinstance(p, str) for p in command)):
            raise ConfigError(f"{section}.command must be a list of strings")
        if "timeout" in settings:
            try:
                settings["timeout"] = float(settings["timeout"])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"invalid {section}.timeout: {exc}") from exc

    decoding_raw = raw.get("decoding", {})
    try:
        decoding = DecodingConfig(
            temperature=float(decoding_raw.get("temperature", 0.0)),
            top_p=float(decoding_raw.get("top_p", 1.0)),
            max_tokens=int(decoding_raw.get("max_tokens", 2048)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid decoding settings: {exc}") from exc

    repair_raw = raw.get("repair", {})
    weights_raw = repair_raw.get("weights", [1.0] * 6)
    try:
        weights = SimilarityWeights(tuple(float(v) for v in weights_raw))
        repair = RepairConfig(
            threshold=float(repair_raw.get("threshold", 0.5)),
            max_iterations=int(repair_raw.get("max_iterations", 5)),
            weights=weights,
            rag_top_k=int(repair_raw.get("rag_top_k", 3)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid repair settings: {exc}") from exc

    retained_raw = raw.get("retained_categories")
    retained = DEFAULT_RETAINED_CATEGORIES
    if retained_raw is not None:
        if not isinstance(retained_raw, list) or not retained_raw:
            raise ConfigError("retained_categories must be a non-empty list")
        retained = frozenset(str(c) for c in retained_raw)

    allowlist_raw = raw.get("allowlist")
    allowlist = DEFAULT_IMPORT_ALLOWLIST
    if allowlist_raw is not None:
        if not isinstance(allowlist_raw, list):
            raise ConfigError("allowlist must be a list")
        allowlist = tuple(str(p) for p in allowlist_raw)

    jobs = raw.get("jobs", 1)
    if not isinstance(jobs, int) or jobs < 1:
        raise ConfigError("jobs must be a positive integer")

    return PipelineConfig(
        paths=dict(raw.get("paths", {})),
        llm=dict(raw.get("llm", {})),
        decoding=decoding,
        compiler=dict(raw.get("compiler", {})),
        runner=dict(raw.get("runner", {})),
        repair=repair,
        retained_categories=retained,
        allowlist=allowlist,
        jobs=jobs,
    )


def build_llm(config: PipelineConfig):
    settings = config.llm
    mode = settings.get("mode", "mock")
    if mode == "mock":
        transcript_path = settings.get("transcript")
        if not transcript_path:
            raise ConfigError("llm.transcript is required in mock mode")
        return MockBackend(Transcript.load(transcript_path))
    if mode == "http":
        endpoint = settings.get("endpoint")
        model = settings.get("model")
        if not endpoint or not model:
            raise ConfigError("llm.endpoint and llm.model are required in http mode")
        api_key = None
        key_env = settings.get("api_key_env")
        if key_env:
            api_key = os.environ.get(key_env)
        recorder = None
        if settings.get("record"):
            recorder = Transcript()
        return HttpBackend(endpoint, model, api_key=api_key, recorder=recorder)
    raise ConfigError(f"unknown llm mode {mode!r}")


def save_recording(llm, config: PipelineConfig) -> None:
    """Persist replies captured during a --record run, if any."""
    record_path = config.llm.get("record")
    recorder = getattr(llm, "recorder", None)
    if record_path and recorder is not None and recorder.entries:
        recorder.save(record_path)


def build_compiler(config: PipelineConfig):
    settings = config.compiler
    mode = settings.get("mode", "command")
    if mode == "mock":
        script = settings.get("script")
        if not script:
            raise ConfigError("compiler.script is required in mock mode")
        return MockCompiler.load(script)
    command = settings.get("command")
    if not command:
        raise ConfigError("compiler.command is required in command mode")
    return CommandCompiler(list(command), timeout=settings.get("timeout", 60.0))


def build_runner(config: PipelineConfig):
    settings = config.runner
    mode = settings.get("mode", "command")
    if mode == "mock":
        script = settings.get("script")
        if not script:
            raise ConfigError("runner.script is required in mock mode")
        return MockRunner.load(script)
    return CommandRunner(settings.get("command"), timeout=settings.get("timeout", 10.0))
