"""Every public name in ``src/j2cj`` has a caller outside the tests.

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
from pathlib import Path

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
