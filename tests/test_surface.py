"""The library keeps only what something other than its unit tests reaches.

Every public top-level function and class of ``src/wordalg`` must be
referenced by name outside its own definition: from its own module, another
library module, ``scripts/``, ``perfbench/`` or the acceptance tests.  The
package ``__init__`` does not count, since re-exporting a name is no use of it.
"""

import ast
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "wordalg"

# reached only from unit tests, where they are the oracle for other code
ORACLES = (
    ("coefficient", "popcount reading of a word's band entry, the oracle for evaluate_word"),
    ("prime_copy", "builds the primed blocks of the interleaved-word witnesses"),
    ("unprime", "projects the interleaved word back onto its base word"),
)
ORACLE_NAMES = {name for name, _ in ORACLES}


def _names(tree: ast.AST) -> set[str]:
    """Every name read in the tree, bare or as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _public_definitions(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _unreached() -> list[str]:
    modules = {path: _parse(path) for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    outside = [*REPO.glob("scripts/*.py"), *REPO.glob("perfbench/*.py"), REPO / "tests" / "test_acceptance.py"]
    outside_names = set().union(*(_names(_parse(path)) for path in outside))
    unreached = []
    for path, tree in modules.items():
        other_modules = set().union(*(_names(t) for p, t in modules.items() if p != path))
        for node in _public_definitions(tree):
            # the module without this definition
            rest = ast.Module([n for n in tree.body if n is not node], type_ignores=[])
            if node.name not in _names(rest) | other_modules | outside_names:
                unreached.append(f"{path.stem}.{node.name}")
    return unreached


def test_every_public_definition_is_reached_outside_the_unit_tests():
    unreached = [name for name in _unreached() if name.split(".")[1] not in ORACLE_NAMES]
    assert unreached == [], "reached only by unit tests (wire them in, delete them or list them as oracles)"


def test_every_oracle_exception_is_needed():
    # an oracle that is gone, or that gained a caller, leaves the list
    assert {name.split(".")[1] for name in _unreached()} == ORACLE_NAMES
