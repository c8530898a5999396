"""The package stays dependency free: ``src/fuzzylos`` imports only the
standard library, and ``pyproject.toml`` declares ``dependencies = []``
and the one console script, ``fuzzylos = "fuzzylos.cli:main"``.
No module but ``engine`` imports a private engine name, and the others
read a system through four private engine methods alone.  ``__all__`` names
exactly the public classes and functions the package binds.

``pyproject.toml`` is read with a plain text match, since ``tomllib`` is
missing before Python 3.11.
"""

import ast
import inspect
import re
import sys
from pathlib import Path

import fuzzylos

ROOT = Path(__file__).resolve().parent.parent


def test_package_imports_only_the_standard_library():
    sources = sorted((ROOT / "src" / "fuzzylos").glob("*.py"))
    assert sources
    outside = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert outside == []


def test_only_the_engine_uses_its_private_names():
    """No module but ``engine`` imports a private engine name, and of the
    private names the engine's classes define, the other modules read
    exactly four: ``FuzzyVariable._locate`` and ``_fill``, and
    ``SugenoFis._record`` and ``_fire``.  The cell tables, the compiled
    rules and the memo are the engine's alone."""
    engine = ast.parse((ROOT / "src" / "fuzzylos" / "engine.py").read_text(encoding="utf-8"))
    defined = set()
    for cls in (node for node in engine.body if isinstance(node, ast.ClassDef)):
        for node in cls.body:
            if isinstance(node, ast.FunctionDef):
                defined.add(node.name)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                defined.add(node.target.id)
    private = {name for name in defined if name.startswith("_") and not name.endswith("__")}
    assert {"_cells", "_compiled", "_records"} <= private
    imported, read = [], set()
    for path in sorted((ROOT / "src" / "fuzzylos").glob("*.py")):
        if path.name == "engine.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "engine":
                imported += [
                    f"{path.name}: {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
            elif isinstance(node, ast.Attribute) and node.attr in private:
                read.add(node.attr)
    assert imported == []
    assert read == {"_locate", "_fill", "_record", "_fire"}


def test_pyproject_declares_no_dependencies():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r"^dependencies\s*=.*$", text, re.MULTILINE) == ["dependencies = []"]


def test_pyproject_declares_the_console_script():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    scripts = re.findall(r"^\[project\.scripts\]\n(.*)$", text, re.MULTILINE)
    assert scripts == ['fuzzylos = "fuzzylos.cli:main"']


def test_all_names_exactly_the_public_api():
    """A name cannot be half deleted: ``import *`` binds exactly ``__all__``,
    which has no duplicates and holds every public class and function the
    package binds."""
    namespace: dict = {}
    exec("from fuzzylos import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fuzzylos.__all__)
    assert len(set(fuzzylos.__all__)) == len(fuzzylos.__all__)
    public = {
        name
        for name, value in vars(fuzzylos).items()
        if not name.startswith("_") and (inspect.isclass(value) or inspect.isfunction(value))
    }
    assert public - set(fuzzylos.__all__) == set()
