"""The settings table: well-typed configs load as before, and the README shows every setting."""

import importlib.util
import json
import re
from inspect import signature
from pathlib import Path

import yaml

from j2cj.adapters import CommandCompiler, CommandRunner
from j2cj.ast_summary import DEFAULT_RETAINED_CATEGORIES
from j2cj.config import _SETTINGS, PipelineConfig, load_config
from j2cj.corpus import DEFAULT_IMPORT_ALLOWLIST
from j2cj.llm import DecodingConfig
from j2cj.repair_engine import RepairConfig
from j2cj.repair_repo import SimilarityWeights

ROOT = Path(__file__).resolve().parents[1]

def _bench_translate_config() -> dict:
    spec = importlib.util.spec_from_file_location("make_synthetic", ROOT / "bench" / "make_synthetic.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.translate_config(max_iterations=3, rag_top_k=1, repository=True)


_BENCH_PATHS = {"benchmark": "units", "traces": "traces", "reports": "reports", "repository": "repo.jsonl"}
_MOCKS = {
    "llm": {"mode": "mock", "transcript": "transcript.jsonl"},
    "compiler": {"mode": "mock", "script": "compiler.jsonl"},
    "runner": {"mode": "mock", "script": "runner.jsonl"},
}


def test_well_typed_configs_load_to_the_same_values(tmp_path):
    config_path = tmp_path / "config.yaml"
    config_path.write_text(json.dumps(_bench_translate_config()), encoding="utf-8")
    assert load_config(config_path, {"jobs": 2}) == PipelineConfig(
        paths=_BENCH_PATHS, **_MOCKS, repair=RepairConfig(max_iterations=3, rag_top_k=1), jobs=2,
    )
    # The overrides of --threshold, --max-iterations (or --no-repair) and --jobs.
    overrides = {"repair.threshold": 0.3, "repair.max_iterations": 1, "jobs": 4}
    assert load_config(None, overrides) == PipelineConfig(repair=RepairConfig(threshold=0.3, max_iterations=1), jobs=4)
    assert load_config(None) == PipelineConfig()
    config_path.write_text(
        "decoding: {temperature: 1, top_p: 0.9, max_tokens: 64}\n"
        "compiler: {mode: command, command: [cc, '{source}'], timeout: 5}\n"
        "repair: {threshold: 1, weights: [1, 2, 3, 4, 5, 6]}\n"
        "retained_categories: [block, block]\nallowlist: []\nllm: {record: null}\n",
        encoding="utf-8",
    )
    assert load_config(config_path) == PipelineConfig(
        llm={"record": None},
        decoding=DecodingConfig(1.0, 0.9, 64),
        compiler={"mode": "command", "command": ["cc", "{source}"], "timeout": 5.0},
        repair=RepairConfig(threshold=1.0, weights=SimilarityWeights((1.0, 2.0, 3.0, 4.0, 5.0, 6.0))),
        retained_categories=frozenset({"block"}),
        allowlist=(),
    )


def _readme_config() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"### Configuration\n\n```yaml\n(.*?)```", readme, re.S).group(1)


def _keys(raw: dict) -> set[str]:
    return {f"{section}.{key}" for section, value in raw.items() if isinstance(value, dict) for key in value} | {
        key for key, value in raw.items() if not isinstance(value, dict)
    }


def test_readme_configuration_block_is_the_settings_table(tmp_path):
    """The README's example loads, shows the defaults it claims, and, with
    its commented-out alternatives switched on, names every setting."""
    block = _readme_config()
    config_path = tmp_path / "config.yaml"
    config_path.write_text(block, encoding="utf-8")
    config = load_config(config_path)
    assert config.decoding == DecodingConfig() and config.repair == RepairConfig()
    assert config.retained_categories == DEFAULT_RETAINED_CATEGORIES
    assert config.allowlist == DEFAULT_IMPORT_ALLOWLIST and config.jobs == PipelineConfig.jobs

    config_path.write_text(re.sub(r"(?m)^( *)# (\w+:)", r"\1\2", block), encoding="utf-8")
    assert load_config(config_path).compiler["timeout"] == signature(CommandCompiler).parameters["timeout"].default
    assert load_config(config_path).runner["timeout"] == signature(CommandRunner).parameters["timeout"].default
    documented = _keys(yaml.safe_load(config_path.read_text(encoding="utf-8")))
    assert documented == {f"{section}.{key}".lstrip(".") for section, kinds in _SETTINGS.items() for key in kinds}
