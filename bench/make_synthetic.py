"""Seeded generator of the benchmark's mock-pipeline inputs.

    python3 bench/make_synthetic.py --workload translate-mix --seed 7 --out DIR [--small]

Writes everything one workload needs into DIR: Java units with tests and
references (or corpus input directories), a replay transcript whose prompts
are rendered with the package's own prompt functions, digest-keyed mock
compiler and runner scripts, the repair repository, a config file, and
``plan.json``, which names the commands to run and the outcome each unit is
scripted to reach. The same seed always gives byte-identical files.

Sizes are drawn by stratified sampling (one draw per quantile bin, then
shuffled), so different seeds give different programs with nearly the same
size distribution, and a seed's throughput is comparable with another's.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from j2cj.adapters import MockCompiler, MockRunner
from j2cj.ast_summary import default_vocab, render_structured_prompt, summarize, tokenize_structure
from j2cj.javaparse import parse, tree_has_errors
from j2cj.llm import (
    DOC_RECONSTRUCTION_TEMPLATE,
    RAG_REPAIR_TEMPLATE,
    REPAIR_APPLY_COMPILE_TEMPLATE,
    REPAIR_APPLY_TEST_TEMPLATE,
    REPAIR_GUIDANCE_COMPILE_TEMPLATE,
    REPAIR_GUIDANCE_TEST_TEMPLATE,
    SEMANTIC_ANNOTATION_TEMPLATE,
    TRANSLATE_INSTRUCTION,
    Transcript,
)
from j2cj.repair_engine import format_cases, format_failures
from j2cj.repair_repo import RepairCase, Repository, extract_error_tags

WORKLOADS = ("translate-mix", "translate-rag", "corpus-build")

# Full-size and --small (self-test) sizes of each workload.
SIZES = {
    "translate-mix": {
        "full": {"units": 400, "java_kb": (0.3, 16.0), "tests": (1, 8)},
        "small": {"units": 14, "java_kb": (0.3, 2.0), "tests": (1, 3)},
    },
    "translate-rag": {
        "full": {"units": 5, "cases": 217, "fragment_kb": (0.2, 1.5), "query_kb": (0.2, 0.4), "tests": (1, 3)},
        "small": {"units": 5, "cases": 12, "fragment_kb": (0.2, 0.4), "query_kb": (0.2, 0.3), "tests": (1, 2)},
    },
    "corpus-build": {
        "full": {"chapters": 122, "snippets": 2400, "pairs": 600, "pair_kb": (0.3, 8.0)},
        "small": {"chapters": 6, "snippets": 16, "pairs": 4, "pair_kb": (0.3, 1.0)},
    },
}


# --- sampling -----------------------------------------------------------------

def stratified_log_uniform(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n log-uniform draws on [lo, hi], one per equal-probability bin, shuffled."""
    span = math.log(hi) - math.log(lo)
    values = [math.exp(math.log(lo) + span * (i + rng.random()) / n) for i in range(n)]
    rng.shuffle(values)
    return values


def balanced(rng: random.Random, n: int, weights: dict[str, int]) -> list[str]:
    """n labels in fixed proportions (largest remainder), shuffled."""
    total = sum(weights.values())
    exact = {k: n * w / total for k, w in weights.items()}
    counts = {k: int(v) for k, v in exact.items()}
    for k in sorted(weights, key=lambda k: (counts[k] - exact[k], k))[: n - sum(counts.values())]:
        counts[k] += 1
    labels = [k for k in weights for _ in range(counts[k])]
    rng.shuffle(labels)
    return labels


def stratified_ints(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    return [int(v) for v in balanced(rng, n, {str(v): 1 for v in range(lo, hi + 1)})]


# --- paired Java / Cangjie programs ---------------------------------------------

class ProgramGen:
    """Random structured programs rendered as Java and as Cangjie-like text.

    The Java side parses without ERROR nodes and covers every node kind the
    structural summary retains; the Cangjie side is the matching candidate
    text the mock model replies with.
    """

    def __init__(self, rng: random.Random, tag: str):
        self.rng = rng
        self.tag = tag
        self.counter = 0
        self.helper = True

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def expr(self, scope: list[str]) -> tuple[str, str]:
        r = self.rng
        a, b = r.choice(scope), r.choice(scope)
        n = r.randint(2, 97)
        kind = r.randrange(6)
        if kind == 0:
            text = f"{a} * {n} + {b}"
            return text, text
        if kind == 1:
            return f"Math.max({a}, {b} - {n})", f"max({a}, {b} - {n})"
        if kind == 2:
            text = f"({a} + {n}) % {r.randint(3, 31)}"
            return text, text
        if kind == 3:
            return f"DATA[Math.abs({a}) % DATA.length]", f"DATA[abs({a}) % DATA.size]"
        if kind == 4:
            return f"{a} > {b} ? {a} - {n} : {b} + {n}", f"if ({a} > {b}) {{ {a} - {n} }} else {{ {b} + {n} }}"
        text = f"{a} / {n} - {b} * {r.randint(2, 9)}"
        return text, text

    def cond(self, scope: list[str]) -> str:
        r = self.rng
        a, b = r.choice(scope), r.choice(scope)
        kind = r.randrange(3)
        if kind == 0:
            return f"{a} > {r.randint(0, 50)}"
        if kind == 1:
            return f"{a} % 2 == 0 && {b} < {r.randint(10, 90)}"
        return f"{a} != {b}"

    def block(self, depth: int, scope: list[str], budget: int, pad: str) -> tuple[list[str], list[str]]:
        java: list[str] = []
        cj: list[str] = []
        local = list(scope)
        size = 0
        while size < budget or not java:
            j, c = self.statement(depth, local, pad, budget - size)
            java += j
            cj += c
            size += sum(len(line) + 1 for line in j)
        return java, cj

    def statement(self, depth: int, scope: list[str], pad: str, budget: int) -> tuple[list[str], list[str]]:
        r = self.rng
        inner = pad + "    "
        kinds = ["decl", "assign", "print"] + (["call"] if self.helper else [])
        if depth < 3 and budget >= 150:
            kinds += ["if", "for", "foreach", "while", "do", "switch", "try", "lambda", "guard"]
        kind = r.choice(kinds)
        sub = max(30, min(budget // 2, 240 // (depth + 1)))
        if kind == "decl":
            name = self.fresh("v")
            je, ce = self.expr(scope)
            scope.append(name)
            return [f"{pad}int {name} = {je};"], [f"{pad}var {name}: Int64 = {ce}"]
        if kind == "assign":
            target = r.choice(scope)
            je, ce = self.expr(scope)
            op = r.choice(["+=", "-=", "^="])
            return [f"{pad}{target} {op} {je};"], [f"{pad}{target} {op} {ce}"]
        if kind == "print":
            v = r.choice(scope)
            return (
                [f'{pad}System.out.println("{self.tag} {v}=" + {v});'],
                [f'{pad}println("{self.tag} {v}=${{{v}}}")'],
            )
        if kind == "call":
            target, a, b = r.choice(scope), r.choice(scope), r.choice(scope)
            return [f"{pad}{target} = helper({a}, {b});"], [f"{pad}{target} = helper({a}, {b})"]
        if kind == "if":
            c = self.cond(scope)
            tj, tc = self.block(depth + 1, scope, sub, inner)
            ej, ec = self.block(depth + 1, scope, sub // 2, inner)
            return (
                [f"{pad}if ({c}) {{"] + tj + [f"{pad}}} else {{"] + ej + [f"{pad}}}"],
                [f"{pad}if ({c}) {{"] + tc + [f"{pad}}} else {{"] + ec + [f"{pad}}}"],
            )
        if kind == "for":
            i = self.fresh("i")
            n = r.randint(2, 40)
            bj, bc = self.block(depth + 1, scope + [i], sub, inner)
            return (
                [f"{pad}for (int {i} = 0; {i} < {n}; {i}++) {{"] + bj + [f"{pad}}}"],
                [f"{pad}for ({i} in 0..{n}) {{"] + bc + [f"{pad}}}"],
            )
        if kind == "foreach":
            x = self.fresh("x")
            bj, bc = self.block(depth + 1, scope + [x], sub, inner)
            return (
                [f"{pad}for (int {x} : DATA) {{"] + bj + [f"{pad}}}"],
                [f"{pad}for ({x} in DATA) {{"] + bc + [f"{pad}}}"],
            )
        if kind == "while":
            v = r.choice(scope)
            n = r.randint(1, 9)
            bj, bc = self.block(depth + 1, scope, sub, inner)
            return (
                [f"{pad}while ({v} > {n * 10}) {{"] + bj + [f"{inner}{v} -= {n};", f"{pad}}}"],
                [f"{pad}while ({v} > {n * 10}) {{"] + bc + [f"{inner}{v} -= {n}", f"{pad}}}"],
            )
        if kind == "do":
            c = self.cond(scope)
            bj, bc = self.block(depth + 1, scope, sub, inner)
            return (
                [f"{pad}do {{"] + bj + [f"{pad}}} while ({c});"],
                [f"{pad}do {{"] + bc + [f"{pad}}} while ({c})"],
            )
        if kind == "switch":
            v = r.choice(scope)
            java = [f"{pad}switch ({v} % 3) {{"]
            cj = [f"{pad}match ({v} % 3) {{"]
            for label in ("0", "1", "default"):
                bj, bc = self.block(depth + 1, scope, sub // 3, inner + "    ")
                java += [f"{inner}{'default' if label == 'default' else 'case ' + label}:"] + bj
                java += [f"{inner}    break;"]
                cj += [f"{inner}case {'_' if label == 'default' else label} =>"] + bc
            return java + [f"{pad}}}"], cj + [f"{pad}}}"]
        if kind == "try":
            e = self.fresh("e")
            bj, bc = self.block(depth + 1, scope, sub, inner)
            hj, hc = self.block(depth + 1, scope, sub // 3, inner)
            return (
                [f"{pad}try {{"] + bj + [f"{pad}}} catch (ArithmeticException {e}) {{"] + hj
                + [f"{pad}}} finally {{", f'{inner}System.out.println("{self.tag} done");', f"{pad}}}"],
                [f"{pad}try {{"] + bc + [f"{pad}}} catch ({e}: ArithmeticException) {{"] + hc
                + [f"{pad}}} finally {{", f'{inner}println("{self.tag} done")', f"{pad}}}"],
            )
        if kind == "lambda":
            f = self.fresh("f")
            v = r.choice(scope)
            n = r.randint(2, 9)
            return (
                [f"{pad}IntUnaryOperator {f} = y -> y * {n} + {v};", f"{pad}{v} = {f}.applyAsInt({v});"],
                [f"{pad}let {f} = {{y: Int64 => y * {n} + {v}}}", f"{pad}{v} = {f}({v})"],
            )
        v = r.choice(scope)
        n = r.randint(100, 900)
        return (
            [f"{pad}if ({v} < -{n}) {{", f'{inner}throw new IllegalStateException("{self.tag} underflow");', f"{pad}}}"],
            [f"{pad}if ({v} < -{n}) {{", f'{inner}throw IllegalStateException("{self.tag} underflow")', f"{pad}}}"],
        )

    def program(self, target_bytes: int) -> tuple[str, str]:
        r = self.rng
        cls = f"Unit{self.tag.replace('_', '')}"
        data = ", ".join(str(r.randint(0, 99)) for _ in range(r.randint(3, 8)))
        java = [f"public class {cls} {{", f"    static int[] DATA = {{{data}}};"]
        cj = [f"public class {cls} {{", f"    static let DATA: Array<Int64> = [{data}]"]
        self.helper = target_bytes >= 600
        if self.helper:
            java = ["import java.util.function.IntUnaryOperator;", ""] + java + [
                "", "    static int helper(int a, int b) {", "        return a * 31 + b;", "    }"]
            cj = ["import std.math.*", ""] + cj + [
                "", "    static func helper(a: Int64, b: Int64): Int64 {", "        return a * 31 + b", "    }"]
        if self.helper and r.random() < 0.5:
            java += ["", "    private int seed;", "", f"    public {cls}(int seed) {{", "        this.seed = seed;", "    }"]
            cj += ["", "    private var seed: Int64", "", "    public init(seed: Int64) {", "        this.seed = seed", "    }"]
        header = len(java)
        size = sum(len(line) + 1 for line in java)
        while size < target_bytes - 40 or len(java) == header:
            name = self.fresh("m")
            budget = min(max(40, target_bytes - size - 90), r.randint(300, 1400))
            bj, bc = self.block(0, ["a", "b"], budget, "        ")
            acc = r.choice(["a", "b"])
            mj = [f"    static int {name}(int a, int b) {{"] + bj + [f"        return {acc};", "    }"]
            mc = [f"    static func {name}(a: Int64, b: Int64): Int64 {{"] + bc + [f"        return {acc}", "    }"]
            java += [""] + mj
            cj += [""] + mc
            size += sum(len(line) + 1 for line in mj) + 1
        return "\n".join(java + ["}"]), "\n".join(cj + ["}"])


def checked_java(java: str):
    tree = parse(java)
    if tree_has_errors(tree):
        raise AssertionError(f"generated Java does not parse cleanly:\n{java}")
    return tree


def revise(cj: str, rng: random.Random, rev: int) -> str:
    """A distinct candidate revision: a few operators flipped plus a marker."""
    lines = cj.split("\n")
    body = [i for i, line in enumerate(lines) if " + " in line or " * " in line]
    for i in rng.sample(body, min(len(body), 2)):
        lines[i] = lines[i].replace(" + ", " - ", 1).replace(" * ", " + ", 1)
    return f"// revision {rev}\n" + "\n".join(lines)


def fenced(code: str) -> str:
    return f"```cangjie\n{code}\n```"


# --- translation workloads -------------------------------------------------------

ERROR_FAMILIES = [
    "error: undeclared identifier '{name}' in function '{fn}'",
    "error: type mismatch: expected 'Int64', found 'Int32' in call to '{fn}' with argument '{name}'",
    "error: expected ';' or newline after expression near '{name}' in '{fn}'",
    "error: unexpected token '=>' in expression of '{fn}' after '{name}'",
    "error: too many arguments in call to '{fn}' for parameter '{name}'",
    "error: cannot assign to immutable value '{name}' declared in '{fn}'",
    "error: no member named '{name}' in class used by '{fn}'",
    "error: missing return in function '{fn}' on path through '{name}'",
]

# Self-analysis diagnostics share no tag, keyword or code with repository
# cases, so their best retrieval score stays below any threshold >= 0.5.
UNMATCHED_DIAGNOSTIC = "warning-as-fatal: lint rule {rule} rejected {word} beside {other} (quirk {n})"
_LINT_WORDS = ["quux", "frob", "zorp", "blick", "snark", "wibble", "plugh", "xyzzy", "grault", "garply"]


def diagnostic(rng: random.Random, unit: str, fn: str, family: int | None = None) -> str:
    template = ERROR_FAMILIES[rng.randrange(len(ERROR_FAMILIES)) if family is None else family]
    line, col = rng.randint(3, 300), rng.randint(1, 60)
    return template.format(name=f"tmp{rng.randint(0, 999)}", fn=fn) + f" at {unit}.cj:{line}:{col}"


def relocate(diag: str, rng: random.Random) -> str:
    """Same diagnostic at another line and column: the same error signature."""
    head = diag.rsplit(":", 2)[0]
    return f"{head}:{rng.randint(3, 300)}:{rng.randint(1, 60)}"


def unmatched_diagnostic(rng: random.Random, unit: str) -> str:
    a, b = rng.sample(_LINT_WORDS, 2)
    return UNMATCHED_DIAGNOSTIC.format(rule=f"L{rng.randint(10, 99)}", word=a, other=b, n=unit) + f" at {unit}.cj:{rng.randint(3, 300)}:{rng.randint(1, 60)}"


GUIDANCE = [
    "The root cause is a mismatch between the Java semantics and the Cangjie types. Convert the operands explicitly and keep the loop bounds.",
    "Declare the missing binding before use and keep integer widths at Int64 throughout the helper calls.",
    "The output differs because an operator was flipped during translation. Restore the original arithmetic in the marked lines.",
    "Match the Java control flow exactly: the else branch must run the same updates, and the accumulator must be returned.",
]


class Script:
    """Builds the transcript, compiler and runner scripts for scripted units."""

    def __init__(self):
        self.transcript = Transcript()
        self.compiler = MockCompiler({})
        self.runner = MockRunner({})

    def compiles(self, candidate: str, tests: list[dict], outputs: list[str]) -> None:
        self.compiler.add(candidate, ok=True)
        for test, output in zip(tests, outputs):
            self.runner.add(candidate, test["input"], output)

    def fails(self, candidate: str, diag: str) -> None:
        self.compiler.add(candidate, ok=False, diagnostics=diag)

    def self_analysis(self, java, candidate, diag, guidance, nxt) -> None:
        slots = {"java": java, "candidate": candidate, "errors": diag}
        self.transcript.add(REPAIR_GUIDANCE_COMPILE_TEMPLATE.render(slots), guidance)
        self.transcript.add(REPAIR_APPLY_COMPILE_TEMPLATE.render({**slots, "guidance": guidance}), fenced(nxt))

    def test_repair(self, java, candidate, failures, guidance, nxt) -> None:
        slots = {"java": java, "candidate": candidate, "failures": format_failures(failures)}
        self.transcript.add(REPAIR_GUIDANCE_TEST_TEMPLATE.render(slots), guidance)
        self.transcript.add(REPAIR_APPLY_TEST_TEMPLATE.render({**slots, "guidance": guidance}), fenced(nxt))

    def rag(self, candidate, diag, case: RepairCase, nxt) -> None:
        prompt = RAG_REPAIR_TEMPLATE.render({"errors": diag, "cases": format_cases([case]), "candidate": candidate})
        self.transcript.add(prompt, fenced(nxt))


def make_tests(rng: random.Random, count: int) -> list[dict]:
    tests = []
    for i in range(count):
        x = rng.randint(-50, 500)
        tests.append({"input": f"{x}\n{i}\n", "expected_output": f"{x * 3 + i}\n"})
    return tests


def wrong_outputs(tests: list[dict], rng: random.Random, failing: int) -> tuple[list[str], list[dict]]:
    """Runner outputs where the first ``failing`` tests are wrong, and the
    failure records the engine will build from them."""
    outputs, failures = [], []
    for i, test in enumerate(tests):
        if i < failing:
            actual = f"{int(test['expected_output']) + rng.randint(1, 9)}\n"
            failures.append({"input": test["input"], "expected": test["expected_output"], "actual": actual})
            outputs.append(actual)
        else:
            outputs.append(test["expected_output"])
    return outputs, failures


def translation_prompt(java: str) -> str:
    tokens = tokenize_structure(summarize(checked_java(java), source=java), default_vocab())
    return render_structured_prompt(tokens, java, TRANSLATE_INSTRUCTION)


# Scenario -> (terminal status, final candidate compiles, branch sequence).
MIX_SCENARIOS = {
    "accept_initial": ("accepted", True, ["initial"]),
    "test_repair": ("accepted", True, ["initial", "test_repair"]),
    "self_analysis": ("accepted", True, ["initial", "self_analysis"]),
    "stagnate_compile": ("stagnated", False, ["initial", "self_analysis"]),
    "stagnate_test": ("stagnated", True, ["initial", "test_repair"]),
    "budget_compile": ("budget_exhausted", False, ["initial"] + ["self_analysis"] * 4),
    "budget_mixed": ("budget_exhausted", True, ["initial", "self_analysis", "test_repair", "test_repair", "self_analysis"]),
}
MIX_WEIGHTS = {"accept_initial": 4, "test_repair": 4, "self_analysis": 4, "stagnate_compile": 2,
               "stagnate_test": 2, "budget_compile": 2, "budget_mixed": 2}


def script_mix_unit(script: Script, rng: random.Random, uid: str, java: str, ref: str,
                    tests: list[dict], scenario: str) -> None:
    cands = [revise(ref, rng, k) for k in range(5)]
    fn = f"m{rng.randint(1, 9)}"
    script.transcript.add(translation_prompt(java), fenced(cands[0]))
    passing = [t["expected_output"] for t in tests]

    def g() -> str:
        return rng.choice(GUIDANCE)

    if scenario == "accept_initial":
        script.compiles(cands[0], tests, passing)
    elif scenario == "test_repair":
        outputs, failures = wrong_outputs(tests, rng, rng.randint(1, len(tests)))
        script.compiles(cands[0], tests, outputs)
        script.test_repair(java, cands[0], failures, g(), cands[1])
        script.compiles(cands[1], tests, passing)
    elif scenario == "self_analysis":
        d = diagnostic(rng, uid, fn)
        script.fails(cands[0], d)
        script.self_analysis(java, cands[0], d, g(), cands[1])
        script.compiles(cands[1], tests, passing)
    elif scenario == "stagnate_compile":
        d = diagnostic(rng, uid, fn)
        script.fails(cands[0], d)
        script.self_analysis(java, cands[0], d, g(), cands[1])
        script.fails(cands[1], relocate(d, rng))
    elif scenario == "stagnate_test":
        outputs, failures = wrong_outputs(tests, rng, 1)
        script.compiles(cands[0], tests, outputs)
        script.test_repair(java, cands[0], failures, g(), cands[1])
        script.compiles(cands[1], tests, outputs)
    elif scenario == "budget_compile":
        diags = [diagnostic(rng, uid, fn, family) for family in rng.sample(range(len(ERROR_FAMILIES)), 5)]
        for k in range(5):
            script.fails(cands[k], diags[k])
            if k < 4:
                script.self_analysis(java, cands[k], diags[k], g(), cands[k + 1])
    elif scenario == "budget_mixed":
        d0, d3 = (diagnostic(rng, uid, fn, f) for f in rng.sample(range(len(ERROR_FAMILIES)), 2))
        script.fails(cands[0], d0)
        script.self_analysis(java, cands[0], d0, g(), cands[1])
        out1, fail1 = wrong_outputs(tests, rng, 1)
        script.compiles(cands[1], tests, out1)
        script.test_repair(java, cands[1], fail1, g(), cands[2])
        out2 = [f"{int(o) + 100}\n" if i == 0 else o for i, o in enumerate(out1)]
        fail2 = [dict(fail1[0], actual=out2[0])]
        script.compiles(cands[2], tests, out2)
        script.test_repair(java, cands[2], fail2, g(), cands[3])
        script.fails(cands[3], d3)
        script.self_analysis(java, cands[3], d3, g(), cands[4])
        out4, _ = wrong_outputs(tests, rng, len(tests))
        script.compiles(cands[4], tests, out4)
    else:
        raise ValueError(scenario)


def write_unit(bench: Path, uid: str, java: str, ref: str, tests: list[dict]) -> None:
    write(bench / f"{uid}.java", java)
    write(bench / f"{uid}.tests.json", json.dumps(tests, indent=1))
    write(bench / f"{uid}.ref.cj", ref)


def gen_translate_mix(rng: random.Random, out: Path, size: dict) -> dict:
    n = size["units"]
    sizes = stratified_log_uniform(rng, n, *size["java_kb"])
    test_counts = stratified_ints(rng, n, *size["tests"])
    scenarios = balanced(rng, n, MIX_WEIGHTS)
    script = Script()
    units = {}
    for i in range(n):
        uid = f"unit_{i:04d}"
        java, ref = ProgramGen(rng, uid).program(int(sizes[i] * 1024))
        tests = make_tests(rng, test_counts[i])
        script_mix_unit(script, rng, uid, java, ref, tests, scenarios[i])
        write_unit(out / "units", uid, java, ref, tests)
        status, compiled, branches = MIX_SCENARIOS[scenarios[i]]
        units[uid] = {"status": status, "compiled": compiled, "branches": branches}
    config = translate_config(max_iterations=5, rag_top_k=3, repository=False)
    return finish_translate(out, script, units, config, jobs=2, harvest=False)


# translate-rag: every initial candidate fails to compile, so every unit
# retrieves. "rag" candidates reproduce a stored case's fragment and
# diagnostic exactly, so that case scores 1.0 and ranks first; "sa"
# candidates carry unmatched diagnostics and score below 0.5.
RAG_SCENARIOS = {
    "rag_accept": ("accepted", True, ["initial", "rag_repair"], ["rag"]),
    "sa_accept": ("accepted", True, ["initial", "self_analysis"], ["sa"]),
    "rag_test": ("accepted", True, ["initial", "rag_repair", "test_repair"], ["rag"]),
    "sa_stagnate": ("stagnated", False, ["initial", "self_analysis"], ["sa"]),
    "budget": ("budget_exhausted", False, ["initial", "self_analysis", "rag_repair"], ["sa", "rag"]),
}
RAG_WEIGHTS = {"rag_accept": 1, "sa_accept": 1, "rag_test": 1, "sa_stagnate": 1, "budget": 1}


def make_case(rng: random.Random, case_id: str, kb: float) -> RepairCase:
    _, fragment = ProgramGen(rng, case_id.replace("-", "_")).program(int(kb * 1024))
    diag = diagnostic(rng, case_id, f"m{rng.randint(1, 9)}")
    return RepairCase(
        id=case_id,
        error_tags=extract_error_tags(diag),
        error_info=diag,
        repair_suggestion=rng.choice(GUIDANCE),
        faulty_fragment=fragment,
        corrected_code=revise(fragment, rng, 1),
    )


def gen_translate_rag(rng: random.Random, out: Path, size: dict) -> dict:
    n_cases = size["cases"]
    fragment_kb = stratified_log_uniform(rng, n_cases, *size["fragment_kb"])
    cases = [make_case(rng, f"case-{i:04d}", kb) for i, kb in enumerate(fragment_kb)]
    Repository(cases).save(out / "repo.jsonl")
    lo, hi = size["query_kb"]
    n = size["units"]
    scenarios = balanced(rng, n, RAG_WEIGHTS)
    # Each "rag" retrieval reproduces its own stored case, the unused one
    # closest to the query size, so no two units render the same prompt.
    reusable = list(cases)

    def take_case(kb: float) -> RepairCase:
        case = min(reusable, key=lambda c: (abs(len(c.faulty_fragment) - kb * 1024), c.id))
        reusable.remove(case)
        return case

    query_kb = stratified_log_uniform(rng, n, lo, hi)
    test_counts = stratified_ints(rng, n, *size["tests"])
    script = Script()
    units = {}
    harvested = 0
    for i in range(n):
        uid = f"unit_{i:04d}"
        java, ref = ProgramGen(rng, uid).program(int(query_kb[i] * 1024))
        tests = make_tests(rng, test_counts[i])
        passing = [t["expected_output"] for t in tests]
        scenario = scenarios[i]
        g = rng.choice(GUIDANCE)
        if scenario in ("rag_accept", "rag_test"):
            case = take_case(query_kb[i])
            c0, d0, c1 = case.faulty_fragment, case.error_info, revise(ref, rng, 1)
            script.fails(c0, d0)
            script.rag(c0, d0, case, c1)
            if scenario == "rag_accept":
                script.compiles(c1, tests, passing)
            else:
                outputs, failures = wrong_outputs(tests, rng, 1)
                c2 = revise(ref, rng, 2)
                script.compiles(c1, tests, outputs)
                script.test_repair(java, c1, failures, g, c2)
                script.compiles(c2, tests, passing)
        else:
            c0, d0 = revise(ref, rng, 0), unmatched_diagnostic(rng, uid)
            case = take_case(query_kb[i]) if scenario == "budget" else None
            c1 = case.faulty_fragment if case else revise(ref, rng, 1)
            script.fails(c0, d0)
            script.self_analysis(java, c0, d0, g, c1)
            if scenario == "sa_accept":
                script.compiles(c1, tests, passing)
                harvested += 1
            elif scenario == "sa_stagnate":
                script.fails(c1, relocate(d0, rng))
            else:
                c2 = revise(ref, rng, 2)
                script.fails(c1, case.error_info)
                script.rag(c1, case.error_info, case, c2)
                script.fails(c2, unmatched_diagnostic(rng, uid))
        script.transcript.add(translation_prompt(java), fenced(c0))
        write_unit(out / "units", uid, java, ref, tests)
        status, compiled, branches, retrievals = RAG_SCENARIOS[scenario]
        units[uid] = {"status": status, "compiled": compiled, "branches": branches, "retrievals": retrievals}
    config = translate_config(max_iterations=3, rag_top_k=1, repository=True)
    plan = finish_translate(out, script, units, config, jobs=1, harvest=True)
    plan["repository_cases"] = n_cases + harvested
    return plan


def translate_config(max_iterations: int, rag_top_k: int, repository: bool) -> dict:
    paths = {"benchmark": "units", "traces": "traces", "reports": "reports"}
    if repository:
        paths["repository"] = "repo.jsonl"
    return {
        "paths": paths,
        "llm": {"mode": "mock", "transcript": "transcript.jsonl"},
        "decoding": {"temperature": 0.0, "top_p": 1.0, "max_tokens": 2048},
        "compiler": {"mode": "mock", "script": "compiler.jsonl"},
        "runner": {"mode": "mock", "script": "runner.jsonl"},
        "repair": {"threshold": 0.5, "max_iterations": max_iterations, "rag_top_k": rag_top_k,
                   "weights": [1.0] * 6},
    }


def finish_translate(out: Path, script: Script, units: dict, config: dict, jobs: int, harvest: bool) -> dict:
    script.transcript.save(out / "transcript.jsonl")
    script.compiler.save(out / "compiler.jsonl")
    script.runner.save(out / "runner.jsonl")
    write(out / "config.yaml", json.dumps(config, indent=2))
    n = len(units)
    compiled = sum(1 for u in units.values() if u["compiled"])
    accepted = sum(1 for u in units.values() if u["status"] == "accepted")
    translate = ["translate", "--config", "config.yaml", "--jobs", str(jobs)]
    return {
        "commands": [
            {"name": "translate", "argv": translate + (["--harvest"] if harvest else []), "items": n},
            {"name": "evaluate", "argv": ["evaluate", "--outcomes", "reports/outcomes.jsonl",
                                          "--out", "reports/report.jsonl"], "items": n},
        ],
        "units": units,
        "fractions": {
            "fe": str(Fraction(accepted, n)),
            "csr": str(Fraction(compiled, n)),
            "cfe": str(Fraction(accepted, compiled)) if compiled else "0",
        },
    }


# --- corpus workload ----------------------------------------------------------------

TOPICS = ["variables", "functions", "classes", "structs", "enums", "pattern matching", "generics",
          "collections", "error handling", "concurrency", "strings", "interfaces", "lambdas", "packages"]

SNIPPET_WEIGHTS = {"retained": 10, "too_short": 3, "unbalanced": 2, "extend": 1, "no_declaration": 1,
                   "disallowed_import": 3}


def make_chapter(rng: random.Random, i: int) -> tuple[str, list[dict], int]:
    """Chapter text, the entries the model returns for it, and how many of
    them are malformed (dropped by validation)."""
    topic = rng.choice(TOPICS)
    gen = ProgramGen(rng, f"ch{i:03d}")
    paragraphs = [f"# Chapter {i}: {topic}", ""]
    entries = []
    for j in range(rng.randint(2, 5)):
        _, code = gen.program(rng.randint(200, 700))
        paragraphs += [f"## {topic} rule {j}", "",
                       f"The {topic} construct {j} is used when a program needs rule {j} of chapter {i}.",
                       "", "```cangjie", code, "```", ""]
        entries.append({
            "id": f"ch{i:03d}-e{j}",
            "title": f"{topic.title()} rule {j}",
            "tags": [topic, f"chapter-{i}"],
            "typical_questions": [f"How is {topic} rule {j} applied?", f"When does rule {j} of chapter {i} hold?"],
            "description": f"Rule {j} of {topic}: the construct behaves as shown in the example.",
            "code_examples": [code],
        })
    dropped = 0
    if rng.random() < 0.3:
        entries.append({"id": f"ch{i:03d}-bad", "title": "Incomplete", "tags": [],
                        "typical_questions": [], "description": "", "code_examples": []})
        dropped = 1
    return "\n".join(paragraphs), entries, dropped


def make_snippet(rng: random.Random, i: int, kind: str) -> str:
    _, code = ProgramGen(rng, f"sn{i:04d}").program(rng.randint(300, 1500))
    if kind == "retained":
        return code
    if kind == "too_short":
        return f"let s{i} = {rng.randint(0, 99)}\nprintln(s{i})"
    if kind == "unbalanced":
        return code.rsplit("}", 1)[0]
    if kind == "extend":
        return f"extend Int64 {{\n    public func twice{i}(): Int64 {{\n        this * 2\n    }}\n}}\n" + code
    if kind == "no_declaration":
        return "\n".join(f"let v{k} = {rng.randint(0, 99)} * {k}" for k in range(6)) + "\nprintln(v0)"
    return f"import net.http.*\n{code}"


def gen_corpus(rng: random.Random, out: Path, size: dict) -> dict:
    transcript = Transcript()
    entries_total = dropped_total = 0
    for i in range(size["chapters"]):
        text, entries, dropped = make_chapter(rng, i)
        write(out / "chapters" / f"ch{i:03d}.md", text)
        reply = "```json\n" + json.dumps(entries, indent=1) + "\n```"
        transcript.add(DOC_RECONSTRUCTION_TEMPLATE.render({"chapter": text}), reply)
        entries_total += len(entries) - dropped
        dropped_total += dropped

    kinds = balanced(rng, size["snippets"], SNIPPET_WEIGHTS)
    rejected: dict[str, int] = {}
    for i, kind in enumerate(kinds):
        code = make_snippet(rng, i, kind)
        write(out / "snippets" / f"sn{i:04d}.cj", code)
        if kind == "retained":
            reply = f"Computes the checksum of snippet {i} over its data table. It also prints progress."
            transcript.add(SEMANTIC_ANNOTATION_TEMPLATE.render({"code": code}), reply)
        else:
            reason = {"too_short": "too_short", "disallowed_import": "disallowed_import"}.get(kind, "incomplete")
            rejected[reason] = rejected.get(reason, 0) + 1
    retained = kinds.count("retained")

    pair_kb = stratified_log_uniform(rng, size["pairs"], *size["pair_kb"])
    for i, kb in enumerate(pair_kb):
        java, cj = ProgramGen(rng, f"pr{i:04d}").program(int(kb * 1024))
        write(out / "pairs" / f"pair_{i:04d}.java", java)
        write(out / "pairs" / f"pair_{i:04d}.cj", cj)

    transcript.save(out / "transcript.jsonl")
    write(out / "config.yaml", json.dumps({
        "paths": {"chapters": "chapters", "snippets": "snippets", "pairs": "pairs", "datasets": "datasets"},
        "llm": {"mode": "mock", "transcript": "transcript.jsonl"},
    }, indent=2))
    items = size["chapters"] + size["snippets"] + size["pairs"]
    return {
        "commands": [{"name": "build-corpus", "argv": ["build-corpus", "--config", "config.yaml"], "items": items}],
        "corpus_stats": {
            "chapters": size["chapters"],
            "entries": entries_total,
            "entries_dropped": dropped_total,
            "errors": [],
            "monolingual_samples": retained,
            "parallel_pairs": size["pairs"],
            "parallel_skipped": 0,
            "snippets_rejected": dict(sorted(rejected.items())),
            "snippets_retained": retained,
            "snippets_seen": size["snippets"],
        },
    }


# --- entry point -------------------------------------------------------------------

def write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


GENERATORS = {"translate-mix": gen_translate_mix, "translate-rag": gen_translate_rag, "corpus-build": gen_corpus}


def generate(workload: str, seed: int, out: Path, small: bool = False) -> dict:
    scale = "small" if small else "full"
    size = SIZES[workload][scale]
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    plan = GENERATORS[workload](rng, out, size)
    plan = {"workload": workload, "seed": seed, "scale": scale, "size": size, **plan}
    write(out / "plan.json", json.dumps(plan, indent=1, sort_keys=True) + "\n")
    return plan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--small", action="store_true", help="self-test sizes")
    args = parser.parse_args(argv)
    plan = generate(args.workload, args.seed, args.out, args.small)
    print(json.dumps({"workload": plan["workload"], "seed": plan["seed"], "scale": plan["scale"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
