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


def _import_time_scipy_imports(node: ast.AST) -> list[int]:
    """Lines of the scipy imports that run when the module is imported:
    every one outside a function body."""
    lines = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(child, ast.Import):
            names = [alias.name for alias in child.names]
        elif isinstance(child, ast.ImportFrom):
            names = [child.module or ""]
        else:
            names = []
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(child.lineno)
        lines += _import_time_scipy_imports(child)
    return lines


def test_scipy_is_imported_only_inside_functions():
    # `import penning_gyro` must not pay scipy's load; the paths that never
    # call it (modes, figures 1-3, --help) would otherwise start ~4x slower
    sources = sorted(Path(penning_gyro.__file__).parent.glob("*.py"))
    assert len(sources) >= 11
    found = {path.name: _import_time_scipy_imports(ast.parse(path.read_text()))
             for path in sources}
    assert {name: lines for name, lines in found.items() if lines} == {}
