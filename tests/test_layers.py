"""Import boundaries between the package's modules, read from the source.

The search core knows nothing of either problem: `search.py` reaches into the
package only for the Pareto archive. CPM and the archive know nothing of mode
vectors or of search: `cpm.py` and `tctp.py` read only the data model. The
oracles check the production code from outside it, so `oracle.py` shares
nothing with it but the data model.
"""

import ast
from pathlib import Path

import pytest

import metasched

PACKAGE = Path(metasched.__file__).parent


def package_imports(module: str) -> set[str]:
    """The package modules that `module` imports, as written: `.tctp` for a
    relative import, `metasched.tctp` for an absolute one."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.add("." * node.level + (node.module or ""))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]
            found.update(name for name in names if name.split(".")[0] == "metasched")
    return found


@pytest.mark.parametrize(
    "module, allowed",
    [("search", {".tctp"}), ("oracle", {".model"}), ("cpm", {".model"}), ("tctp", {".model"})],
)
def test_package_imports(module, allowed):
    assert package_imports(module) <= allowed
