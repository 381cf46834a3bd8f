"""Benchmark of the j2cj pipeline on generated mock-adapter workloads.

    python3 bench/run.py --workload translate-mix --seed 1 --seconds 30 --trace 0

Run from any directory; everything is read and written inside the checkout
that holds this file (generated inputs, scratch run directories, recorded
digests and spans go to ``.bench_work/``). One run:

1. generates the workload's inputs for the seed in a separate process
   (cached per seed, never timed);
2. with ``--trace 0``, times set-up in fresh interpreters (``setup_s``);
3. repeats the workload's commands, each repetition in a fresh process on a
   fresh copy of the inputs, closed loop with one client, until
   ``--seconds`` are spent; with ``--trace 1`` every second repetition runs
   under the tracer in ``spans.py``;
4. checks every repetition's outputs against the scripted outcomes and that
   the output digest is the same for every run of the seed;
5. prints a table, then one JSON line: ``correct``, ``attempted``,
   ``failed`` and the metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("translate-mix", "translate-rag", "corpus-build")
SETUP_PROBES = 5  # measured probes, after one warm-up probe
MIN_REPS = 2
CACHED_SEEDS = 12  # generated input sets kept per workload
STEP_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def step(script: str, *args: str) -> dict:
    """Run one bench script in a fresh interpreter; return its JSON line."""
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / script), *args],
            capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=STEP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} {' '.join(args)} timed out after {STEP_TIMEOUT_S}s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{script} {' '.join(args)} failed:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{script} {' '.join(args)} printed no result")
    return json.loads(lines[-1])


def inputs_for(workload: str, seed: int, small: bool) -> Path:
    """The seed's generated inputs, generating and committing them once.

    The cache key includes a digest of the generator, so an edited generator
    never reuses inputs (or recorded output digests) of an older one.
    """
    generator = hashlib.sha256((ROOT / "bench" / "make_synthetic.py").read_bytes()).hexdigest()[:12]
    name = f"{workload}-s{seed}" + ("-small" if small else "") + f"-{generator}"
    cache = WORK / "inputs"
    target = cache / name
    if not (target / "plan.json").exists():
        tmp = cache / f".tmp-{name}-{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        cache.mkdir(parents=True, exist_ok=True)
        try:
            step("make_synthetic.py", "--workload", workload, "--seed", str(seed), "--out", str(tmp),
                 *(["--small"] if small else []))
            shutil.rmtree(target, ignore_errors=True)
            os.rename(tmp, target)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
    os.utime(target / "plan.json")
    kept = sorted(cache.glob(f"{workload}-s*"), key=lambda p: (p / "plan.json").stat().st_mtime, reverse=True)
    for old in kept[CACHED_SEEDS:]:
        shutil.rmtree(old, ignore_errors=True)
    return target


def repetitions(inputs: Path, seconds: float, trace: bool, spans: Path) -> list[dict]:
    reps: list[dict] = []
    started = time.perf_counter()
    while True:
        traced = trace and len(reps) % 2 == 1
        work = WORK / "runs" / f"{os.getpid()}-{len(reps)}"
        shutil.rmtree(work, ignore_errors=True)
        try:
            rep = step("worker.py", "run", "--inputs", str(inputs), "--work", str(work),
                       *(["--spans", str(spans)] if traced else []))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        rep["traced"] = traced
        reps.append(rep)
        elapsed = time.perf_counter() - started
        # Start another repetition only if it should end before the budget
        # plus half a repetition, so a run measures about --seconds.
        if len(reps) >= MIN_REPS and elapsed * (1 + 0.5 / len(reps)) >= seconds:
            return reps


def check_digest(name: str, digests: set[str]) -> list[str]:
    """The outputs of every run of a seed must be byte-identical."""
    if len(digests) != 1:
        return [f"output digests differ between repetitions: {sorted(digests)}"]
    (current,) = digests
    record = WORK / "digests" / f"{name}.sha256"
    if record.exists():
        recorded = record.read_text(encoding="utf-8").strip()
        if recorded != current:
            return [f"output digest {current} differs from the recorded {recorded}"]
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        record.write_text(current + "\n", encoding="utf-8")
    return []


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def end_to_end(plan: dict, reps: list[dict], setup: list[float]) -> dict[str, tuple[list[float], str]]:
    items = plan["commands"][0]["items"]
    return {
        "setup_s": (setup, "s"),
        "items_per_s": ([items / sum(r["walls"].values()) for r in reps], "1/s"),
        "peak_rss_mb": ([r["rss_mb"] for r in reps], "MB"),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, tuple[list[float], str]]:
    from spans import metric_units

    units = metric_units()
    out = {name: ([r["layers"][name] for r in traced], unit) for name, unit in units.items() if name in traced[0]["layers"]}
    wall = statistics.median(sum(r["walls"].values()) for r in traced)
    base = statistics.median(sum(r["walls"].values()) for r in untraced)
    out["trace.overhead_share"] = ([wall / base - 1.0], units["trace.overhead_share"])
    return out


def print_table(metrics: dict[str, tuple[list[float], str]]) -> None:
    print(f"{'metric':58} {'median':>12} {'q1':>12} {'q3':>12} {'n':>3}  unit")
    for name, (values, unit) in metrics.items():
        median, q1, q3 = summary(values)
        print(f"{name:58} {median:12.6g} {q1:12.6g} {q3:12.6g} {len(values):3d}  {unit}")


def print_shares(traced: list[dict]) -> None:
    for command, shares in sorted(traced[-1]["shares"].items()):
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:8]
        print(f"busy share of {command}: " + ", ".join(f"{k} {v:.1%}" for k, v in top))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--small", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "j2cj" / "cli.py").is_file():
        print(f"error: no j2cj sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    try:
        inputs = inputs_for(args.workload, args.seed, args.small)
        plan = json.loads((inputs / "plan.json").read_text(encoding="utf-8"))
        setup = []
        if not args.trace:
            step("worker.py", "setup", "--inputs", str(inputs))
            setup = [step("worker.py", "setup", "--inputs", str(inputs))["setup_s"] for _ in range(SETUP_PROBES)]
        spans = WORK / "spans" / f"{inputs.name}.jsonl"
        spans.parent.mkdir(parents=True, exist_ok=True)
        reps = repetitions(inputs, args.seconds, bool(args.trace), spans)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    problems = [p for r in reps for p in r["problems"]]
    problems += check_digest(inputs.name, {r["digest"] for r in reps})
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    metrics = per_layer(traced, untraced) if args.trace else end_to_end(plan, untraced, setup)

    print(f"workload {args.workload} seed {args.seed}: {len(untraced)} untraced, {len(traced)} traced repetitions")
    print(f"output digest {reps[0]['digest']}")
    print(f"failed_share {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    print_table(metrics)
    if traced:
        print_shares(traced)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": summary(values)[0], "unit": unit} for name, (values, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
