import ast
from pathlib import Path

import penning_gyro

SOURCES = sorted(p for p in Path(penning_gyro.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports to re-export


def _unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    assert len(SOURCES) >= 10  # the glob found the package
    unused = {path.name: _unused_imports(ast.parse(path.read_text()))
              for path in SOURCES}
    assert {name: names for name, names in unused.items() if names} == {}
