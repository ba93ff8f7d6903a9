"""Every name that polycert defines is used somewhere in polycert.

A private module-level function, class or assignment, or a private method,
that no code of the package names (as a name, an attribute or an imported
alias) is dead: a fast path left its old twin behind.  Tests may keep such
a twin as a reference, but in tests/, not in the package.

A public module-level function or class is either exported in
polycert.__all__ or named by the package, a string constant included
(certify._CRITERIA names the criteria by string).  Otherwise it is a
second way in that nothing takes, unless it is listed below with the
reason it stays.
"""
import ast
from pathlib import Path

import polycert

SOURCE = Path(polycert.__file__).parent


def private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """The private module-level functions, classes and assigned names, and
    the private methods, with their lines."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            found += [(item.name, item.lineno) for item in node.body
                      if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [(target.id, node.lineno) for target in targets
                      for target in ast.walk(target) if isinstance(target, ast.Name)]
    return [(name, line) for name, line in found if private(name)]


def references(tree: ast.Module) -> set[str]:
    """The names read, the attributes taken and the names imported."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_private_name_is_used():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py"))}
    used = set().union(*map(references, trees.values()))
    unused = [f"{module}:{line} {name}" for module, tree in trees.items()
              for name, line in definitions(tree) if name not in used]
    assert unused == []


# Public functions that the package never names, each with why it stays.
UNNAMED_PUBLIC = {
    "cli.render_svg": "the library entry to the SVG that analyze --plot writes",
    "cli.scan_family": "the library entry to the family scans of polycert scan",
    "arith.prime_power_decomposition": "the test interface of the decomposition "
                                       "that the prime-power witnesses use",
}


def string_constants(tree: ast.Module) -> set[str]:
    return {node.value for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)}


def test_every_public_name_is_exported_or_used():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SOURCE.glob("*.py"))}
    used = set(polycert.__all__).union(*map(references, trees.values()),
                                       *map(string_constants, trees.values()))
    unnamed = {f"{module}.{node.name}" for module, tree in trees.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not node.name.startswith("_") and node.name not in used}
    assert unnamed == set(UNNAMED_PUBLIC)
