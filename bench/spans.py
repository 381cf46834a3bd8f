"""In-memory spans around calls into the package's public functions.

The tracer wraps functions at the module or class attribute their caller
looks up (``j2cj.repair_engine.retrieve``, ``j2cj.cli.run_repair_loop``,
``MockBackend.complete``, ...), so nothing inside ``src/`` changes. Each span
records its name, start, end, parent span and unit id; spans stay in memory
until ``write_spans`` is called once at the end of a run. Use the tracer as
a context manager: entering wraps the functions, leaving puts every
original back.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import threading
import time
from collections import defaultdict

# Span names, in report order. Each gets calls, busy_s and self_s.
LAYERS = (
    "cli.cmd_translate",
    "cli.cmd_evaluate",
    "cli.cmd_build_corpus",
    "javaparse.parse",
    "ast_summary.summarize",
    "ast_summary.render_structured_prompt",
    "llm.complete",
    "llm.PromptTemplate.render",
    "llm.Transcript.load",
    "adapters.compile",
    "adapters.run",
    "adapters.script_load",
    "repair_repo.retrieve",
    "repair_repo.similarity",
    "repair_repo.levenshtein",
    "repair_repo.Repository.load",
    "repair_repo.Repository.save",
    "repair_repo.add_case",
    "repair_engine.translate",
    "repair_engine.run_repair_loop",
    "repair_engine.write_trace",
    "repair_engine.harvest_cases",
    "metrics.corpus_bleu",
    "metrics.bleu",
    "metrics.write_report",
    "corpus.reconstruct_chapter",
    "corpus.filter_snippets",
    "corpus.annotate_snippet",
    "corpus.build_parallel_sample",
    "corpus.write_syntax_entries",
    "corpus.write_cpt_dataset",
    "corpus.write_monolingual_dataset",
    "corpus.write_parallel_dataset",
)

BRANCHES = ("initial", "rag_repair", "self_analysis", "test_repair")

# Metrics beyond calls/busy_s/self_s, with their units.
EXTRAS = {
    "javaparse.parse.mb_per_s": "MB/s",
    "llm.complete.prompt_mb": "MB",
    "repair_repo.retrieve.p50_ms": "ms",
    "repair_repo.retrieve.max_ms": "ms",
    "repair_engine.run_repair_loop.unit_p50_ms": "ms",
    "repair_engine.run_repair_loop.unit_p90_ms": "ms",
    "repair_engine.run_repair_loop.iterations": "count",
    **{f"repair_engine.run_repair_loop.branch_{b}": "count" for b in BRANCHES},
    "repair_engine.run_repair_loop.rag_share": "ratio",
}
STAT_UNITS = {"calls": "count", "busy_s": "s", "self_s": "s"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {f"{layer}.{stat}": unit for layer in LAYERS for stat, unit in STAT_UNITS.items()}
    units.update(EXTRAS)
    units["trace.overhead_share"] = "ratio"
    return units


class Span:
    __slots__ = ("name", "parent", "unit", "start", "end", "size")

    def __init__(self, name: str, parent: "Span | None", unit: str | None):
        self.name = name
        self.parent = parent
        self.unit = unit
        self.size = 0
        self.start = self.end = 0.0


class Tracer:
    """Records spans from wrapped functions; one instance per traced run."""

    def __init__(self, threshold: float, unit_of_java: dict[str, str]):
        self.threshold = threshold
        self.unit_of_java = unit_of_java
        self.spans: list[Span] = []
        self.root: Span | None = None
        self.retrieval_scores: list[float] = []
        self.iterations: list[list[str]] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, name, fn, unit_of=None, size_of=None, on_result=None, root=False):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            parent = stack[-1] if stack else tracer.root
            unit = unit_of(args) if unit_of else None
            span = Span(name, parent, unit if unit is not None else (parent.unit if parent else None))
            if size_of is not None:
                span.size = size_of(args)
            stack.append(span)
            if root:
                tracer.root = span
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if root:
                    tracer.root = None
                tracer.spans.append(span)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(name, raw.__func__, **kw))
        else:
            replacement = self.wrap(name, raw, **kw)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        from j2cj import adapters, cli, corpus, llm, metrics, repair_engine, repair_repo

        for attr in ("cmd_translate", "cmd_evaluate", "cmd_build_corpus"):
            self.patch(cli, attr, f"cli.{attr}", root=True)
        self.patch(cli, "translate", "repair_engine.translate", unit_of=lambda a: self.unit_of_java.get(a[0]))
        self.patch(cli, "run_repair_loop", "repair_engine.run_repair_loop",
                   unit_of=lambda a: a[0].unit_id, on_result=self._record_unit)
        self.patch(cli, "write_trace", "repair_engine.write_trace", unit_of=lambda a: a[0].unit_id)
        self.patch(cli, "harvest_cases", "repair_engine.harvest_cases", unit_of=lambda a: a[0].unit_id)
        for module in (repair_engine, corpus):
            self.patch(module, "parse", "javaparse.parse", size_of=lambda a: len(a[0].encode("utf-8")))
            self.patch(module, "summarize", "ast_summary.summarize")
        self.patch(repair_engine, "render_structured_prompt", "ast_summary.render_structured_prompt")
        self.patch(repair_engine, "retrieve", "repair_repo.retrieve", on_result=self._record_retrieval)
        self.patch(repair_repo, "similarity", "repair_repo.similarity")
        self.patch(repair_repo, "levenshtein", "repair_repo.levenshtein")
        self.patch(repair_repo.Repository, "load", "repair_repo.Repository.load")
        self.patch(repair_repo.Repository, "save", "repair_repo.Repository.save")
        self.patch(repair_repo.Repository, "add_case", "repair_repo.add_case")
        self.patch(llm.MockBackend, "complete", "llm.complete", size_of=lambda a: len(a[1].encode("utf-8")))
        self.patch(llm.PromptTemplate, "render", "llm.PromptTemplate.render")
        self.patch(llm.Transcript, "load", "llm.Transcript.load")
        self.patch(adapters.MockCompiler, "compile", "adapters.compile")
        self.patch(adapters.MockRunner, "run", "adapters.run")
        self.patch(adapters.MockCompiler, "load", "adapters.script_load")
        self.patch(adapters.MockRunner, "load", "adapters.script_load")
        for attr in ("corpus_bleu", "bleu", "write_report"):
            self.patch(metrics, attr, f"metrics.{attr}")
        for layer in LAYERS:
            module, _, attr = layer.partition(".")
            if module == "corpus":
                self.patch(corpus, attr, layer)
        return self

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _record_unit(self, unit) -> None:
        self.iterations.append([rec.branch.value for rec in unit.candidates])

    def _record_retrieval(self, ranked) -> None:
        self.retrieval_scores.append(ranked[0][1].total)

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        ids = {id(span): i for i, span in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for i, span in enumerate(self.spans):
                record = {
                    "id": i,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": ids.get(id(span.parent)) if span.parent is not None else None,
                    "unit": span.unit,
                }
                fh.write(json.dumps(record) + "\n")

    def self_times(self) -> dict[int, float]:
        """Span duration minus the part of its interval its children cover."""
        children: dict[int, list[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[id(span.parent)].append(span)
        result = {}
        for span in self.spans:
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(id(span), ()), key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            result[id(span)] = (span.end - span.start) - covered
        return result

    def metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        out = {f"{layer}.{stat}": 0.0 for layer in LAYERS for stat in STAT_UNITS}
        sizes: dict[str, int] = defaultdict(int)
        durations: dict[str, list[float]] = defaultdict(list)
        per_unit: dict[str, float] = defaultdict(float)
        for span in self.spans:
            duration = span.end - span.start
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.busy_s"] += duration
            out[f"{span.name}.self_s"] += selfs[id(span)]
            sizes[span.name] += span.size
            durations[span.name].append(duration)
            if span.name in ("repair_engine.translate", "repair_engine.run_repair_loop") and span.unit:
                per_unit[span.unit] += duration

        parse_s = out["javaparse.parse.busy_s"]
        out["javaparse.parse.mb_per_s"] = sizes["javaparse.parse"] / 1e6 / parse_s if parse_s else 0.0
        out["llm.complete.prompt_mb"] = sizes["llm.complete"] / 1e6
        retrievals = durations["repair_repo.retrieve"]
        out["repair_repo.retrieve.p50_ms"] = statistics.median(retrievals) * 1e3 if retrievals else 0.0
        out["repair_repo.retrieve.max_ms"] = max(retrievals) * 1e3 if retrievals else 0.0
        unit_ms = sorted(v * 1e3 for v in per_unit.values())
        out["repair_engine.run_repair_loop.unit_p50_ms"] = statistics.median(unit_ms) if unit_ms else 0.0
        out["repair_engine.run_repair_loop.unit_p90_ms"] = percentile(unit_ms, 0.9) if unit_ms else 0.0
        out["repair_engine.run_repair_loop.iterations"] = sum(len(b) for b in self.iterations)
        for branch in BRANCHES:
            out[f"repair_engine.run_repair_loop.branch_{branch}"] = sum(b.count(branch) for b in self.iterations)
        cleared = sum(1 for s in self.retrieval_scores if s >= self.threshold)
        out["repair_engine.run_repair_loop.rag_share"] = (
            cleared / len(self.retrieval_scores) if self.retrieval_scores else 0.0
        )
        return out

    def shares(self) -> dict[str, dict[str, float]]:
        """Per command: each layer's busy time over the command's thread-busy
        time (the sum of self times of every span under the command)."""
        selfs = self.self_times()
        result: dict[str, dict[str, float]] = {}
        for root in (s for s in self.spans if s.parent is None):
            under = [s for s in self.spans if s is not root and _descends(s, root)]
            total = selfs[id(root)] + sum(selfs[id(s)] for s in under)
            busy: dict[str, float] = defaultdict(float)
            for s in under:
                busy[s.name] += s.end - s.start
            result[root.name] = {name: value / total for name, value in busy.items()} if total else {}
        return result


def _descends(span: Span, root: Span) -> bool:
    while span is not None:
        if span is root:
            return True
        span = span.parent
    return False


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]
