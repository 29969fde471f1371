"""No dead code: every top-level function and class of ``src/amimv``, and every method that is not a
dunder (Python calls those), is referenced somewhere in ``src``, ``tests`` or ``perfbench`` outside its
own definition: as a name, an attribute, or a word in a string (perfbench wraps functions by name)."""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _words(tree: ast.AST) -> collections.Counter:
    """Each name, attribute and word of a string in ``tree``, with its count."""
    words = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words[node.id] += 1
        elif isinstance(node, ast.Attribute):
            words[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words.update(re.findall(r"\w+", node.value))
    return words


def _definitions() -> dict[str, ast.AST]:
    found = {}
    for path in sorted((ROOT / "src" / "amimv").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                found[f"{path.stem}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                        found[f"{path.stem}.{node.name}.{sub.name}"] = sub
    return found


def test_every_definition_is_referenced():
    definitions = _definitions()
    assert len(definitions) > 100  # the walk found the package
    words = collections.Counter()
    for folder in ("src", "tests", "perfbench"):
        for path in (ROOT / folder).rglob("*.py"):
            words += _words(ast.parse(path.read_text()))
    unused = [name for name, node in definitions.items() if words[node.name] == _words(node)[node.name]]
    assert unused == []
