import ast
import importlib
import inspect
import math
from pathlib import Path

import pytest

import penning_gyro
from penning_gyro.core import NumericalError

SOURCES = sorted(p for p in Path(penning_gyro.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")  # __init__ imports to re-export
ROOT = Path(__file__).resolve().parents[1]


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
    paths = [*SOURCES, *sorted((ROOT / "tests").glob("*.py")),
             *sorted((ROOT / "scripts").glob("*.py"))]
    assert len(paths) >= 22  # the globs found the package, tests and scripts
    unused = {f"{path.parent.name}/{path.name}": _unused_imports(ast.parse(path.read_text()))
              for path in paths}
    assert {name: names for name, names in unused.items() if names} == {}


def _imported_modules(node: ast.AST) -> list[str]:
    """The modules an import statement names, a relative one with its
    leading dots; none for any other node."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return ["." * node.level + (node.module or "")]
    return []


def _import_time_imports(node: ast.AST) -> list[tuple[str, int]]:
    """(module, line) of the imports that run when the module is imported:
    every one outside a function body."""
    found = []
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        found += [(name, child.lineno) for name in _imported_modules(child)]
        found += _import_time_imports(child)
    return found


def test_scipy_is_imported_only_inside_functions():
    # `import penning_gyro` must not pay scipy's load; the paths that never
    # call it (modes, figures 1-3, --help) would otherwise start ~4x slower
    sources = sorted(Path(penning_gyro.__file__).parent.glob("*.py"))
    assert len(sources) >= 11
    found = {path.name: [line for name, line in _import_time_imports(ast.parse(path.read_text()))
                         if name.split(".")[0] == "scipy"]
             for path in sources}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_scipy_subpackages_are_the_crystal_paths():
    # the N-body crystal is the only program path that needs scipy: L-BFGS
    # and the pair distances; a third subpackage is a test instrument or a
    # new load on a path that starts without scipy
    subpackages = {".".join(name.split(".")[:2])
                   for path in Path(penning_gyro.__file__).parent.glob("*.py")
                   for node in ast.walk(ast.parse(path.read_text()))
                   for name in _imported_modules(node) if name.split(".")[0] == "scipy"}
    assert subpackages == {"scipy.optimize", "scipy.spatial"}


# the modules whose import loads numpy; the chain from the constants to the
# budget (core, modes, shape, response, sensing, config, cli) is pure Python
NUMPY_MODULES = {"dynamics", "equilibrium", "figures"}


def test_numpy_is_imported_by_the_numpy_layers_alone():
    # `import penning_gyro`, constants, modes and budget start without numpy's
    # ~70 ms; a module-level import of numpy, or of a module that loads it,
    # puts that load on every path through the importing module
    imports = {path.stem: {name if name.startswith(".") else name.split(".")[0]
                           for name, _ in _import_time_imports(ast.parse(path.read_text()))}
               for path in Path(penning_gyro.__file__).parent.glob("*.py")}
    assert len(imports) >= 11
    loads, grown = set(), True
    while grown:
        reached = {stem for stem, names in imports.items()
                   if "numpy" in names or names & {f".{m}" for m in loads}}
        loads, grown = reached, reached != loads
    assert loads == NUMPY_MODULES


def test_lazy_names_are_the_modules_objects():
    # every public name resolves on first access, to its module's object
    for name, module_name in penning_gyro._LAZY.items():
        module = importlib.import_module(f"penning_gyro.{module_name}")
        assert getattr(penning_gyro, name) is getattr(module, name)
    from penning_gyro import CONST, relax
    assert relax is importlib.import_module("penning_gyro.equilibrium").relax
    assert CONST is importlib.import_module("penning_gyro.core").CONST


def test_dir_lists_every_public_name():
    public = {name for name in dir(penning_gyro) if not name.startswith("_")
              and not inspect.ismodule(getattr(penning_gyro, name))}
    assert len(public) == 35
    assert public == set(penning_gyro._LAZY)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        penning_gyro.no_such_name


def test_no_module_imports_csv():
    # core.write_csv formats every table itself, without the csv module's
    # per-field quoting scan; a csv writer elsewhere would be a second format
    sources = sorted(Path(penning_gyro.__file__).parent.glob("*.py"))
    assert len(sources) >= 11
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text()))
             if any(name.split(".")[0] == "csv" for name in _imported_modules(node))]
    assert found == []


def _writing_opens(tree: ast.Module) -> list[int]:
    """Lines of the ``open(...)`` calls whose mode writes, appends, creates
    or updates; a mode that is not a string literal counts as writing."""
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
        mode = modes[0] if modes else ast.Constant("r")
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+")):
            lines.append(node.lineno)
    return lines


def test_core_is_the_only_writer():
    # core.open_output writes <path>.part and renames it over the path; a
    # plain open(path, "w") elsewhere would truncate the last good file first
    sources = sorted(Path(penning_gyro.__file__).parent.glob("*.py"))
    assert len(sources) >= 11
    found = {path.name: _writing_opens(ast.parse(path.read_text())) for path in sources}
    assert len(found.pop("core.py")) == 1
    assert {name: lines for name, lines in found.items() if lines} == {}
    # the rule reads the mode: config's read-only open passes, a write does not
    assert _writing_opens(ast.parse("open(p)\nopen(p, 'rb')\nopen(p, mode='r')")) == []
    assert _writing_opens(ast.parse(
        "open(p, 'w')\nopen(p, 'a')\nopen(p, mode='x')\nopen(p, 'r+')\nopen(p, m)")) == [1, 2, 3, 4, 5]


def test_no_module_imports_dataclasses():
    # the records derive from core.Record: importing dataclasses (and with
    # it inspect) cost about 10 ms of every start, and its decorator about
    # 1 ms per record
    sources = sorted(Path(penning_gyro.__file__).parent.glob("*.py"))
    assert len(sources) >= 11
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text()))
             if any(name.split(".")[0] == "dataclasses" for name in _imported_modules(node))]
    assert found == []


def test_record_annotations_are_strings():
    # Record's generated finiteness check and test_nonfinite read the
    # annotation strings that `from __future__ import annotations` leaves;
    # an evaluated `float` would escape both
    notes = [note for stem in (path.stem for path in SOURCES)
             for cls in vars(importlib.import_module(f"penning_gyro.{stem}")).values()
             if inspect.isclass(cls) and cls.__module__ == f"penning_gyro.{stem}"
             and issubclass(cls, penning_gyro.core.Record)
             for note in cls.__annotations__.values()]
    assert len(notes) > 80  # the walk found the records
    assert [note for note in notes if not isinstance(note, str)] == []
    assert notes.count("float") + notes.count("Positive") > 50
    assert notes.count("float | None") > 0 and notes.count("Positive") > 0


def _is_math(node: ast.AST, attr: str) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == attr
            and isinstance(node.value, ast.Name) and node.value.id == "math")


def _rechecked_finiteness(tree: ast.Module) -> list[str]:
    """``Class.field`` for each field annotated ``float`` or ``Positive``
    that a record's ``__post_init__`` compares with ``math.inf`` or passes
    to ``math.isfinite``: the generated ``__init__`` has checked it already."""
    found = []
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and _is_record(cls)):
            continue
        floats = set()
        for node in cls.body:
            if isinstance(node, ast.AnnAssign):
                names = {n.id for n in ast.walk(node.annotation) if isinstance(n, ast.Name)}
                if names & {"float", "Positive"} and "ClassVar" not in names:
                    floats.add(node.target.id)
        for func in cls.body:
            if not (isinstance(func, ast.FunctionDef) and func.name == "__post_init__"):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Compare) and any(
                        _is_math(op, "inf") for op in (node.left, *node.comparators)):
                    operands = (node.left, *node.comparators)
                elif isinstance(node, ast.Call) and _is_math(node.func, "isfinite"):
                    operands = node.args
                else:
                    continue
                found += [f"{cls.name}.{op.attr}" for op in operands
                          if isinstance(op, ast.Attribute) and op.attr in floats
                          and isinstance(op.value, ast.Name) and op.value.id == "self"]
    return found


def test_no_post_init_rechecks_a_typed_float():
    # Record's generated __init__ holds a float field finite and a Positive
    # one to 0 < x < inf; a second check in __post_init__ is a second law
    found = {path.name: _rechecked_finiteness(ast.parse(path.read_text())) for path in SOURCES}
    assert {name: fields for name, fields in found.items() if fields} == {}
    # the rule reads the annotations: an int may be held below math.inf
    assert _rechecked_finiteness(ast.parse(
        "class A(Record):\n    x: float\n    y: Positive\n    z: float | None\n    n: int\n"
        "    def __post_init__(self):\n"
        "        if not (0.0 < self.y < math.inf and math.isfinite(self.x)\n"
        "                and math.inf > self.z and 1 <= self.n < math.inf): pass\n"
    )) == ["A.y", "A.x", "A.z"]


CALLER_DIRS = ("src", "scripts", "perfbench")


def _defaulted_parameters(func: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """(name, position or None for keyword-only) of each defaulted parameter."""
    positional = func.args.posonlyargs + func.args.args
    first = len(positional) - len(func.args.defaults)
    params = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
    return params + [(arg.arg, None) for arg, default in
                     zip(func.args.kwonlyargs, func.args.kw_defaults)
                     if default is not None]


def _is_record(cls: ast.ClassDef) -> bool:
    return any(isinstance(base, ast.Name) and base.id == "Record" for base in cls.bases)


def _defaulted_fields(cls: ast.ClassDef) -> list[tuple[str, int]]:
    """(name, position) of each record field that has a default; a
    ClassVar is a class constant, not a field."""
    fields = [node for node in cls.body if isinstance(node, ast.AnnAssign)
              and not (isinstance(node.annotation, ast.Subscript)
                       and node.annotation.value.id == "ClassVar")]
    return [(node.target.id, i) for i, node in enumerate(fields) if node.value is not None]


def _calls(tree: ast.Module):
    """(called name, positional count, keyword names) of every call; a
    *args or **kwargs counts as passing every parameter of its kind."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        starred = any(isinstance(arg, ast.Starred) for arg in node.args)
        keywords = {kw.arg for kw in node.keywords}
        yield (name, math.inf if starred else len(node.args), keywords)


# the pinned CODATA values: fields so that `constants` prints them all,
# defaults because no run should set them
CONSTANT_RECORDS = {"PhysicalConstants"}


def test_every_default_is_passed_by_some_caller():
    # an option that only tests set, or none, is a constant in disguise;
    # this covers the defaulted parameters of top-level functions and the
    # defaulted fields of records, whose constructor is a call too
    calls = {}
    for directory in CALLER_DIRS:
        for path in (ROOT / directory).rglob("*.py"):
            for name, n_args, keywords in _calls(ast.parse(path.read_text())):
                calls.setdefault(name, []).append((n_args, keywords))
    unset, records = [], set()
    for path in sorted((ROOT / "src" / "penning_gyro").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                defaults = _defaulted_parameters(node)
            elif isinstance(node, ast.ClassDef) and _is_record(node):
                records.add(node.name)
                if node.name in CONSTANT_RECORDS:
                    continue
                defaults = _defaulted_fields(node)
            else:
                continue
            for param, position in defaults:
                passed = any(param in keywords or None in keywords
                             or (position is not None and n_args > position)
                             for n_args, keywords in calls.get(node.name, []))
                if not passed:
                    unset.append(f"{path.name}:{node.name}({param})")
    assert len(calls) > 100  # the walk found the callers
    assert len(records) > 20 and CONSTANT_RECORDS <= records  # ... and the records
    assert unset == []


# public functions that only tests call, as references for the chain's checks
TEST_REFERENCES = {"axial_depolarization"}


def _referenced_names(tree: ast.Module) -> set[str]:
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))}


def test_every_public_function_runs_outside_the_tests():
    """Each public top-level function of src/penning_gyro is named in src/
    (outside __init__), scripts/ or perfbench/, or is a test reference.

    It matches by name, not by binding: a function that shares its name
    with another use escapes it.
    """
    referenced = set()
    for directory in ("src", "scripts", "perfbench"):
        for path in (ROOT / directory).rglob("*.py"):
            if path.name != "__init__.py":
                referenced |= _referenced_names(ast.parse(path.read_text()))
    public = {func.name for path in SOURCES
              for func in ast.parse(path.read_text()).body
              if isinstance(func, ast.FunctionDef) and not func.name.startswith("_")}
    assert len(public) > 40  # the walk found the package
    assert sorted(public - referenced - TEST_REFERENCES) == []
    assert TEST_REFERENCES <= public - referenced  # no stale entry


def test_every_error_is_numerical_or_a_value_error():
    # the CLI exits 3 on a NumericalError and 2 on a ValueError, so every
    # exception type of the package must be one of the two
    errors = []
    for path in SOURCES:
        module = importlib.import_module(f"penning_gyro.{path.stem}")
        errors += [cls for _, cls in inspect.getmembers(module, inspect.isclass)
                   if issubclass(cls, BaseException) and cls.__module__ == module.__name__]
    assert len(errors) >= 7  # the walk found the package's exceptions
    assert [cls.__name__ for cls in errors
            if not issubclass(cls, (NumericalError, ValueError))] == []


ENVIRONMENT_READERS = {"environ", "environb", "getenv", "getenvb"}


def test_package_reads_no_environment_variable():
    # every run value comes from RunConfig or a CLI flag: a variable read
    # here would be a second, invisible way to set it
    sources = sorted(Path(penning_gyro.__file__).parent.glob("*.py"))
    assert len(sources) >= 11
    found = [f"{path.name}:{node.lineno}" for path in sources
             for node in ast.walk(ast.parse(path.read_text()))
             if (isinstance(node, ast.Attribute) and node.attr in ENVIRONMENT_READERS)
             or (isinstance(node, ast.Name) and node.id in ENVIRONMENT_READERS)
             or (isinstance(node, ast.alias) and node.name in ENVIRONMENT_READERS)]
    assert found == []
