"""What the package is as a whole: light to import, no public name that
only the tests use, and no test reference that imports it."""

import ast
import subprocess
import sys
from pathlib import Path

import levybound

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_import_loads_no_test_or_thread_pool_modules():
    # scipy and hypothesis are test-only; run_group imports its thread pool
    # lazily so that loading the package does not pay for it
    heavy = ("scipy", "hypothesis", "pytest", "concurrent.futures")
    code = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import levybound, levybound.cli; "
            f"print(' '.join(m for m in {heavy!r} if m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert done.stdout.split() == []


def _referenced_names(paths):
    """Every name, attribute and string constant in the ASTs of ``paths``."""
    seen = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                seen.add(node.value)
    return seen


def test_every_public_name_is_used_outside_the_tests():
    # a name only the tests call belongs in the tests; __init__ re-exports
    # every name, so it does not count as a use
    paths = [p for p in (SRC / "levybound").glob("*.py") if p.name != "__init__.py"]
    paths += [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]
    assert sorted(set(levybound.__all__) - _referenced_names(paths)) == []


def test_oracles_import_only_the_standard_library_and_numpy():
    # a reference that imports the package could share the bug it is to
    # catch; reference_rows.py rebuilds committed rows from the oracles alone
    for script in ("oracles.py", "reference_rows.py"):
        tree = ast.parse((ROOT / "tests" / script).read_text(encoding="utf-8"))
        modules = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                modules.add("." * node.level + (node.module or ""))
        roots = {name.split(".")[0] for name in modules}
        assert "levybound" not in roots, script
        assert sorted(roots - sys.stdlib_module_names - {"numpy", "oracles"}) == [], script
