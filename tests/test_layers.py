"""README's layering rule, checked on the import statements of every module.

Each module in README's layer table imports only modules listed above it
(and ``errors``, which every layer shares), and no module imports a
private name from another.  Absolute imports come from the standard
library only, since the package has no runtime dependencies.
"""

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "supportgenus"


def layer_order():
    """Module names in the order of README's layer table, top row first."""
    section = (ROOT / "README.md").read_text().split("## Layers", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `(\w+)`", section, re.M)


def relative_imports(path):
    """(module, name) for every ``from .module import name`` in the file;
    ``from . import module`` gives (module, None)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            for alias in node.names:
                yield (alias.name, None) if node.module is None else (node.module, alias.name)


def test_modules_import_only_layers_above_and_no_private_names():
    order = layer_order()
    assert order[0] == "zlinalg" and order[-1] == "cli", order
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for target, name in relative_imports(path):
            if name is not None and name.startswith("_"):
                problems.append(f"{module} imports the private name {target}.{name}")
            if module in order and target != "errors" and target not in order[: order.index(module)]:
                problems.append(f"{module} imports {target}, which is not above it in README's layer table")
    assert not problems, problems


def test_absolute_imports_are_standard_library():
    outside = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside |= {f"{path.stem}: {n}" for n in names if n.split(".")[0] not in sys.stdlib_module_names}
    assert not outside, sorted(outside)
