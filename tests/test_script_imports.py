"""The names that the benchmark and the tools import from the package still exist.

perfbench/ and tools/ run as scripts, and Tier-1 imports neither, so a
removal that breaks one of their imports would first show up as failed
benchmark ops.  Each script is parsed with ast, not run; code that a
script hands to a fresh interpreter as a string literal is parsed too.
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
