"""Every function, method and class defined under src/twistconn/ is used in src/.

A name counts as used when it appears anywhere in the package's syntax
trees other than as the name of a definition: as a name, an attribute, an
imported name, or a string that is exactly the name (the lazy export map of
``__init__.py`` holds names as strings).  Dunder names are exempt, since the
language calls them.
"""

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twistconn"

# names used only outside src/, each mapped to the reason it is kept
ALLOWED: dict[str, str] = {}


def unused_names(package: Path = PACKAGE) -> list[str]:
    defined, used = set(), Counter()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                used[node.id] += 1
            elif isinstance(node, ast.Attribute):
                used[node.attr] += 1
            elif isinstance(node, ast.alias):
                used[node.name] += 1
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                used[node.value] += 1
    return sorted(name for name in defined if not used[name]
                  and not (name.startswith("__") and name.endswith("__"))
                  and name not in ALLOWED)


def test_every_defined_name_is_used_in_src():
    assert unused_names() == []


def test_guard_sees_an_unused_definition(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return 1\n\n\ndef unused():\n    return used()\n\n\n"
        "class Box:\n    def __repr__(self):\n        return 'a box'\n")
    assert unused_names(tmp_path) == ["Box", "unused"]
