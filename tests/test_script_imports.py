"""The package's surface against its scripts: what they import exists, and what it exports is reached.

perfbench/ and tools/ run as scripts, and Tier-1 imports neither, so a
removal that breaks one of their imports would first show up as failed
benchmark ops.  Each script is parsed with ast, not run; code that a
script hands to a fresh interpreter as a string literal is parsed too.
The same parse pins the package's public surface from the other side: a
name that phi4trunc re-exports must be reached by the package itself, the
benchmark or a tool, not only by the tests.
"""
import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import phi4trunc

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted([*ROOT.glob("perfbench/*.py"), *ROOT.glob("tools/*.py")])
PACKAGE = ROOT / "src" / "phi4trunc"


def package_imports(tree: ast.AST) -> list[tuple[str, str | None]]:
    """(module, name) for each `from phi4trunc... import name`, (module, None) for each `import phi4trunc...`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "phi4trunc":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "phi4trunc"]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and "phi4trunc" in node.value:
            try:
                found += package_imports(ast.parse(node.value))
            except SyntaxError:
                pass
    return found


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda path: f"{path.parent.name}/{path.name}")
def test_every_package_name_a_script_imports_exists(script):
    for module, name in package_imports(ast.parse(script.read_text(), str(script))):
        imported = importlib.import_module(module)
        # a name is an attribute of the module or one of its submodules, such as `from phi4trunc import cli`
        assert name is None or hasattr(imported, name) or importlib.util.find_spec(f"{module}.{name}"), \
            f"{script.name}: {module} has no {name}"


def test_the_scripts_import_from_the_package():
    # the benchmark's checks, its child process and the kernel bench's fresh interpreters
    names = {name for script in SCRIPTS for _, name in package_imports(ast.parse(script.read_text()))}
    assert {"cli", "weak_series_charpoly", "lattice_hamiltonian", "_sectors_hold_ground"} <= names


@pytest.mark.parametrize("module", [info.name for info in pkgutil.iter_modules(phi4trunc.__path__)])
def test_every_all_entry_exists(module):
    imported = importlib.import_module(f"phi4trunc.{module}")
    missing = [name for name in getattr(imported, "__all__", []) if not hasattr(imported, name)]
    assert not missing, f"phi4trunc.{module}.__all__ names missing {missing}"


def uses(tree: ast.AST, name: str) -> bool:
    """Whether tree loads name, or reads an attribute of that name, outside a definition of it.

    Code in a string literal that names the package is parsed and searched too.
    """
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and node.name == name:
            continue
        if isinstance(node, ast.Name) and node.id == name or isinstance(node, ast.Attribute) and node.attr == name:
            return True
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "phi4trunc" in node.value:
            try:
                if uses(ast.parse(node.value), name):
                    return True
            except SyntaxError:
                pass
        if uses(node, name):
            return True
    return False


def test_every_exported_name_is_reached_outside_the_tests():
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    exported = [alias.asname or alias.name for node in ast.walk(init) if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    sources = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"] + SCRIPTS
    trees = [ast.parse(path.read_text(), str(path)) for path in sources]
    unreached = [name for name in exported if not any(uses(tree, name) for tree in trees)]
    assert not unreached, f"phi4trunc exports names that only the tests reach: {unreached}"
