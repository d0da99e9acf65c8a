"""Source hygiene checks that stand in for a linter."""

import ast
import importlib
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "ncspectral"


def unused_imports(path: Path) -> list[str]:
    """Names a module imports but never reads; lines marked noqa are re-exports."""
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def module_definitions(path: Path) -> list[str]:
    """Module-level functions, classes and constants of a module."""
    names = []
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names.extend(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return names


def private_definitions(path: Path) -> list[str]:
    """Module-level private functions, classes and constants of a module."""
    return [name for name in module_definitions(path)
            if name.startswith("_") and not name.startswith("__")]


def exported_names(path: Path) -> list[str]:
    """The entries of a module's `__all__`, in order; empty without one."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_all_names_defined_once_in_module(path):
    # a stale or re-exported entry in __all__ would survive the deletion of its object
    exported = exported_names(path)
    assert len(exported) == len(set(exported))
    assert sorted(set(exported) - set(module_definitions(path))) == []


def referenced_names(paths) -> set[str]:
    """Names read, attributes accessed and names imported anywhere in the modules."""
    used: set[str] = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_private_names_referenced(path):
    used = referenced_names(SRC.glob("*.py"))
    assert [name for name in private_definitions(path) if name not in used] == []


def cli_reads() -> tuple[ast.Module, set[str], set[str]]:
    """cli.py's tree and the attributes it reads off `cfg` and off `args`."""
    tree = ast.parse((SRC / "cli.py").read_text())
    reads: dict[str, set[str]] = {"cfg": set(), "args": set()}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name) and node.value.id in reads):
            reads[node.value.id].add(node.attr)
    return tree, reads["cfg"], reads["args"]


def test_config_fields_are_read():
    # a RunConfig field that is only ever assigned is a knob that changes nothing
    tree, cfg_reads, _ = cli_reads()
    config = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "RunConfig")
    fields = [node.target.id for node in config.body if isinstance(node, ast.AnnAssign)]
    assert fields and [name for name in fields if name not in cfg_reads] == []


def test_leaf_flags_are_read():
    # every flag of the command table reaches its handler through `args`
    tree, _, args_reads = cli_reads()
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "_COMMANDS" for t in node.targets))
    flags = [key.value for node in ast.walk(table) if isinstance(node, ast.Dict)
             for key in node.keys
             if isinstance(key, ast.Constant) and str(key.value).startswith("--")]
    assert flags and [flag for flag in flags
                      if flag[2:].replace("-", "_") not in args_reads] == []


def tracer_table(name: str):
    """A name table of the benchmark's tracer, read without importing it."""
    tree = ast.parse((TESTS.parent / "bench" / "tracer.py").read_text())
    node = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == name for t in node.targets))
    return ast.literal_eval(node)


def test_traced_names_exist():
    # the tracer patches by lookup, so a renamed or deleted name breaks `--trace 1`
    missing = [f"{mod}.{attr}" for mod, attr in tracer_table("_FUNCTIONS")
               if not hasattr(importlib.import_module("ncspectral." + mod), attr)]
    for mod, cls, attr in tracer_table("_METHODS"):
        klass = getattr(importlib.import_module("ncspectral." + mod), cls, None)
        if klass is None or attr not in vars(klass):
            missing.append(f"{mod}.{cls}.{attr}")
    assert missing == []


def called_functions(tree: ast.Module, root: str) -> list[ast.FunctionDef]:
    """A module-level function and every module-level function it calls, transitively."""
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    seen, todo = set(), [root]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(node.id for node in ast.walk(funcs[name])
                        if isinstance(node, ast.Name) and node.id in funcs)
    return [funcs[name] for name in sorted(seen)]


def test_nc_integral_oracle_is_independent():
    # the per-path oracle checks nc_integral_power, so it must not reach the twist
    # test, sphere moments or polynomial product that the checked path uses
    modules = {"zeta", "polynomials"}
    tree = ast.parse((TESTS / "test_action.py").read_text())
    bound = {alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("ncspectral")
             for alias in node.names
             if node.module.split(".")[-1] in modules or alias.name in modules}
    funcs = called_functions(tree, "reference_nc_integral")
    assert len(funcs) > 1  # the oracle has its own helpers
    reached = sorted(
        f"{func.name}: line {node.lineno}" for func in funcs for node in ast.walk(func)
        if (isinstance(node, ast.Name) and node.id in bound)
        or (isinstance(node, ast.Attribute) and node.attr in modules)
        or (isinstance(node, (ast.Import, ast.ImportFrom)) and "ncspectral" in ast.unparse(node)))
    assert reached == []
