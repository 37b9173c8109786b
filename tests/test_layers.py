"""Import boundaries and the contents of the package, read from the source.

The search core knows nothing of either problem: `search.py` reaches into the
package only for the Pareto archive. CPM knows nothing of mode vectors or of
search: `cpm.py` reads only the data model, and the archive in `tctp.py`
imports nothing from the package. The oracles check the production code from
outside it, so `oracle.py` shares nothing with it but the data model.

`src/` holds only what a production path reads: every function, class and
public method there is used by other code in the package, or is allowlisted
with the files outside `src/` that call it. The package depends on nothing
outside the standard library, and its module-level imports of the standard
library are pinned: each one is paid by every fresh interpreter that imports
the package. What only one command runs, it imports itself.
"""

import ast
import json
import os
import subprocess
import sys
import zipfile
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "metasched"

# Definitions that no code under src/ reads, each with the files outside src/
# that call it. The list should only shrink.
OUTSIDE_CALLERS = {
    "ProjectNetwork.topological_order": ("perfbench/trace.py",),
    "validate_network": ("perfbench/workloads.py",),
    # The schedule audit the tests run on decoded schedules: safety code.
    "check_schedule": ("tests/test_serial_sgs.py", "tests/test_acceptance.py"),
}


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def package_trees() -> dict[str, ast.Module]:
    """Every module under the package, keyed by its path relative to it."""
    return {str(path.relative_to(PACKAGE)): parse(path) for path in sorted(PACKAGE.rglob("*.py"))}


def imported_modules(tree: ast.Module):
    """Each module an import under `tree` names, as written: `.tctp` for a
    relative import, `metasched.tctp` for an absolute one."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            yield "." * node.level + (node.module or "")
        elif isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)


def package_imports(module: str) -> set[str]:
    """The package modules that `module` imports, as written."""
    return {
        name
        for name in imported_modules(parse(PACKAGE / f"{module}.py"))
        if name.startswith(".") or name.split(".")[0] == "metasched"
    }


def references(tree: ast.AST) -> Counter:
    """How often each name is used under `tree`: as a `Name`, an `Attribute`,
    an import alias, or a string constant (a `getattr`/`setattr` target)."""
    used = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used[node.id] += 1
        elif isinstance(node, ast.Attribute):
            used[node.attr] += 1
        elif isinstance(node, ast.alias):
            used[node.name.rsplit(".", 1)[-1]] += 1
            if node.asname:
                used[node.asname] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            used[node.value] += 1
    return used


def definitions(tree: ast.Module):
    """(qualified name, node) of each module-level function and class, and
    of each public method of those classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, kinds[:2]) and not method.name.startswith("_"):
                    yield f"{node.name}.{method.name}", method


def unreferenced_definitions(trees: dict[str, ast.Module]) -> set[str]:
    """The definitions whose name appears nowhere in `trees` outside their own body."""
    used = sum(map(references, trees.values()), Counter())
    return {
        qualname
        for tree in trees.values()
        for qualname, node in definitions(tree)
        if used[node.name] == references(node)[node.name]
    }


@pytest.mark.parametrize(
    "module, allowed",
    [("search", {".tctp"}), ("oracle", {".model"}), ("cpm", {".model"}), ("tctp", set()), ("model", set())],
)
def test_package_imports(module, allowed):
    assert package_imports(module) <= allowed


def test_compiled_view_is_data():
    """`CompiledNetwork` is the graph's structure and nothing more: the one
    forward and one backward pass live in `cpm.py` and take the durations
    they walk, so no second pass grows back onto the view."""
    view = next(node for node in parse(PACKAGE / "model.py").body if getattr(node, "name", None) == "CompiledNetwork")
    methods = [node.name for node in view.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert methods == []


def calls(tree: ast.AST, name: str):
    """Each call under `tree` to the function or method `name`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if (func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)) == name:
                yield node


def test_one_view_builder():
    """Every `CompiledNetwork` is built at one call, so the records and the
    columns of an instance share one successor derivation and one
    topological walk, and no second builder grows back."""
    built = [module for module, tree in package_trees().items() for _ in calls(tree, "CompiledNetwork")]
    assert built == ["model.py"]


def test_one_module_reads_json():
    """`model.py` owns how a JSON value is read: only it decodes JSON text or
    calls `admits`, and its checker is the one place that tells a bool from an int."""
    trees = package_trees()
    for name in ("loads", "admits"):
        callers = sorted({module for module, tree in trees.items() for _ in calls(tree, name)})
        assert callers == ["model.py"], name
    bool_tests = [
        module
        for module, tree in trees.items()
        for call in calls(tree, "isinstance")
        if len(call.args) == 2 and "bool" in {node.id for node in ast.walk(call.args[1]) if isinstance(node, ast.Name)}
    ]
    assert bool_tests == ["model.py"]


def test_src_holds_only_what_src_reads():
    found = unreferenced_definitions(package_trees())
    unlisted = sorted(found - OUTSIDE_CALLERS.keys())
    assert not unlisted, f"read by no code under src/ (delete, or allowlist with the outside caller): {unlisted}"
    stale = sorted(OUTSIDE_CALLERS.keys() - found)
    assert not stale, f"now read under src/, so no longer allowlisted: {stale}"


@pytest.mark.parametrize(
    "qualname, caller", [(name, caller) for name, callers in OUTSIDE_CALLERS.items() for caller in callers]
)
def test_allowlisted_caller_uses_the_definition(qualname, caller):
    assert references(parse(ROOT / caller))[qualname.rsplit(".", 1)[-1]], f"{caller} no longer uses {qualname}"


def test_src_imports_only_the_standard_library():
    """`dependencies = []` in pyproject.toml holds: every absolute import
    names a standard-library module or the package itself."""
    allowed = sys.stdlib_module_names | {"metasched"}
    outside = sorted(
        f"{module}: {name}"
        for module, tree in package_trees().items()
        for name in imported_modules(tree)
        if not name.startswith(".") and name.split(".")[0] not in allowed
    )
    assert not outside


# Every standard-library module the package imports at module level, as
# written. `import metasched.cli` pays for all of them in each fresh process.
STDLIB_IMPORTS = {
    "__future__", "argparse", "bisect", "collections", "collections.abc", "dataclasses", "functools", "heapq",
    "itertools", "json", "math", "operator", "os", "pathlib", "random", "sys",
}


def module_level_imports(tree: ast.Module):
    """The imports `tree` runs when it is imported: those outside function
    and class bodies."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from imported_modules(node)


def test_stdlib_imports_are_pinned():
    found = {
        name
        for tree in package_trees().values()
        for name in module_level_imports(tree)
        if name.split(".")[0] in sys.stdlib_module_names
    }
    assert found == STDLIB_IMPORTS, (
        f"module-level imports changed: added {sorted(found - STDLIB_IMPORTS)}, "
        f"removed {sorted(STDLIB_IMPORTS - found)}. Each added module costs every fresh interpreter "
        "that runs `import metasched.cli`, which is what the benchmark's cpm-n2000 setup_s times; "
        "import it inside the function that needs it, or measure setup_s and update the pinned set"
    )


def run_python(script: str, pythonpath: Path, cwd: Path) -> str:
    """Run `script` in a fresh interpreter without `site`, so that no `.pth`
    hook preloads modules and only `pythonpath` supplies the package; return
    its stdout."""
    env = {**os.environ, "PYTHONPATH": str(pythonpath)}
    done = subprocess.run([sys.executable, "-S", "-c", script], env=env, cwd=cwd, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_skips_oracle_resources_and_typing(tmp_path):
    """The oracle runs only under `metasched oracle`, and reading a bundled
    instance or naming a callable type needs neither `importlib.resources`
    nor `typing`: no fresh interpreter that imports the CLI pays for them."""
    script = (
        "import sys, metasched.cli\n"
        "print([m for m in ('metasched.oracle', 'importlib.resources', 'typing') if m in sys.modules])"
    )
    assert run_python(script, ROOT / "src", tmp_path) == "[]\n"


def test_bundled_instances_read_from_a_zipped_package(tmp_path):
    archive = tmp_path / "metasched.zip"
    with zipfile.ZipFile(archive, "w") as zipped:
        for path in sorted(PACKAGE.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                zipped.write(path, path.relative_to(PACKAGE.parent))
    script = (
        "import json, metasched.instances as m\n"
        "print(json.dumps([m.__file__, m.read_bundled('table1'), m.read_bundled('table2')]))"
    )
    origin, *texts = json.loads(run_python(script, archive, tmp_path))
    assert origin.startswith(str(archive))
    bundled = PACKAGE / "instances"
    assert texts == [(bundled / f"{name}.json").read_text(encoding="utf-8") for name in ("table1", "table2")]
