"""Every public name in ``src/j2cj`` has a caller outside the tests, every
stored attribute a reader (see the second test), one module the patterns
that strip compiler locations (the third), one module the messages of row
field checks (the fourth), one module the process pool (the fifth), one
regular expression the Java lexer (the sixth), and every imported module a
source: the standard library, ``j2cj`` or a declared dependency (the
seventh).

A public name is a top-level function, class or constant, or a method,
whose name does not start with an underscore. It counts as used when some
file under ``src/`` or ``bench/`` reads it as code: an ``ast.Name`` that is
not assigned to, or an ``ast.Attribute``. Text in a string or a comment is
not a use, except the names ``bench/spans.py`` patches, which it spells as
strings (``"cli.cmd_translate"``, ``"complete"``).

The check goes by name alone, so a public name that shares its spelling
with any other name read in those files passes even when nothing calls it:
a method ``get`` is hidden by every ``dict.get``, a method ``record`` by
every variable ``record``, and a function ``fe`` by the field ``report.fe``.
"""

import ast
import importlib.metadata
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        yield item.name, item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno


def _referenced_names() -> set[str]:
    names = set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif path.name == "spans.py" and isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.update(node.value.split("."))
    return names


def test_every_public_name_has_a_caller_in_src_or_bench():
    referenced = _referenced_names()
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted((ROOT / "src" / "j2cj").glob("*.py"))
        for name, line in _public_definitions(ast.parse(path.read_text(encoding="utf-8")))
        if not name.startswith("_") and name not in referenced
    ]
    assert not unused, "public names that only tests use:\n" + "\n".join(unused)


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and isinstance(d.func, ast.Name) and d.func.id == "dataclass"
        for d in node.decorator_list
    )


def _stored_attributes(tree: ast.Module):
    """(class, attribute, line) for every dataclass field and every ``self.x`` an ``__init__`` assigns."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if _is_dataclass(node) and isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                yield node.name, item.target.id, item.lineno
            elif isinstance(item, ast.FunctionDef) and item.name == "__init__":
                for sub in ast.walk(item):
                    if (
                        isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Store)
                        and isinstance(sub.value, ast.Name) and sub.value.id == "self"
                    ):
                        yield node.name, sub.attr, sub.lineno


def _read_attributes() -> tuple[set[str], set[str]]:
    """Attribute names read in ``src/`` and ``bench/``, and the classes named
    in a parameter annotation of a function that calls ``asdict`` or ``vars``."""
    attributes, whole = set(), set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "bench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif isinstance(node, ast.FunctionDef) and any(
                isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name) and sub.func.id in ("asdict", "vars")
                for sub in ast.walk(node)
            ):
                for arg in node.args.args:
                    if arg.annotation is not None:
                        whole.update(n.id for n in ast.walk(arg.annotation) if isinstance(n, ast.Name))
    return attributes, whole


def test_every_stored_attribute_is_read_in_src_or_bench():
    """Every dataclass field, and every ``self.x`` an ``__init__`` assigns, of
    a class in ``src/j2cj`` is read as an attribute (``obj.x`` not assigned
    to) somewhere under ``src/`` or ``bench/``. A dataclass also counts as
    read whole when it appears in a parameter annotation of a function that
    calls ``asdict`` or ``vars``, either of which writes every field.

    Like the public-name check, this goes by name alone: a field is hidden
    by any read of an attribute with its spelling, so a list that is only
    appended to (``result.problems.append(...)``) passes, because
    ``.problems`` is read to reach ``append``.
    """
    attributes, whole = _read_attributes()
    unread = [
        f"{path.relative_to(ROOT)}:{line}: {cls}.{name}"
        for path in sorted((ROOT / "src" / "j2cj").glob("*.py"))
        for cls, name, line in _stored_attributes(ast.parse(path.read_text(encoding="utf-8")))
        if name not in attributes and cls not in whole
    ]
    assert not unread, "stored attributes that nothing reads:\n" + "\n".join(unread)


def test_one_module_holds_a_line_column_pattern():
    """Compiler locations are stripped by one normalizer: exactly one module
    in ``src/j2cj`` has a string constant containing ``\\d+:\\d+``."""
    holders = sorted(
        path.name
        for path in (ROOT / "src" / "j2cj").glob("*.py")
        if any(
            isinstance(node, ast.Constant) and isinstance(node.value, str) and r"\d+:\d+" in node.value
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
    )
    assert holders == ["repair_repo.py"]


def _literal_text(node: ast.AST) -> str | None:
    """A string constant's text, or an f-string's with ``{}`` for each replacement field."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(part.value if isinstance(part, ast.Constant) else "{}" for part in node.values)
    return None


def test_one_module_builds_a_field_message():
    """Row fields are checked by one checker: exactly one module in ``src/j2cj``
    has a string or f-string that reads ``field ... must be``."""
    holders = sorted(
        path.name
        for path in (ROOT / "src" / "j2cj").glob("*.py")
        if any(
            re.search(r"\bfield\b.* must be\b", _literal_text(node) or "")
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        )
    )
    assert holders == ["jsonl.py"]


def _imports(path: Path):
    """(line, module) for each absolute import in a file, inside functions too."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from ((node.lineno, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_one_module_holds_the_process_pool():
    """Commands share one pool: exactly one module in ``src/j2cj`` imports
    ``concurrent.futures`` or ``multiprocessing``, lazily inside a function too."""
    holders = sorted(
        path.name
        for path in (ROOT / "src" / "j2cj").glob("*.py")
        if any(f"{module}.".startswith(("multiprocessing.", "concurrent.futures.")) for _, module in _imports(path))
    )
    assert holders == ["pool.py"]


def test_the_java_lexer_has_one_regular_expression():
    """The parser's trees and its events come from one lexer: ``javaparse.py``
    makes exactly one call into ``re``, and that call compiles."""
    calls = [
        node.func.attr
        for node in ast.walk(ast.parse((ROOT / "src" / "j2cj" / "javaparse.py").read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
    ]
    assert calls == ["compile"]


def _distribution_key(name: str) -> str:
    """A distribution name as PEP 503 normalizes it (``PyYAML`` and ``pyyaml`` are one)."""
    return re.sub(r"[-_.]+", "-", name).lower()


def test_every_module_src_imports_is_stdlib_j2cj_or_a_declared_dependency():
    """So that a runtime dependency cannot creep in unnoticed: each module that
    ``src/j2cj`` imports, lazily inside a function too, is in the standard
    library, is ``j2cj`` itself, or comes from a distribution that
    ``pyproject.toml`` lists under ``dependencies``."""
    tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {_distribution_key(re.match(r"[\w.-]+", spec).group()) for spec in project["dependencies"]}
    distributions = importlib.metadata.packages_distributions()
    undeclared = []
    for path in sorted((ROOT / "src" / "j2cj").glob("*.py")):
        for line, module in _imports(path):
            top = module.partition(".")[0]
            sources = {_distribution_key(name) for name in distributions.get(top, [])}
            if top not in sys.stdlib_module_names and top != "j2cj" and not sources & declared:
                undeclared.append(f"{path.relative_to(ROOT)}:{line}: {module}")
    assert not undeclared, "imports that pyproject.toml does not declare:\n" + "\n".join(undeclared)
