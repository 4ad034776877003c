"""No library helper lives only for the tests: every module-level function
and class of ``src/dmrislice`` is named by library code outside its own
definition, or exported in an ``__all__``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "dmrislice"

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _library_sources() -> dict[str, str]:
    return {
        ".".join(path.relative_to(SRC.parent).with_suffix("").parts): path.read_text()
        for path in sorted(SRC.rglob("*.py"))
    }


def _names_used(node) -> set[str]:
    """Every name and attribute that ``node``'s code reads or writes; an
    import is not a use."""
    return {
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node)
        if isinstance(n, (ast.Name, ast.Attribute))
    }


def _exported(tree) -> set[str]:
    return {
        name
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }


def unreferenced(sources: dict[str, str]) -> list[str]:
    """``module:name`` of each module-level function or class of ``sources``
    (module name -> code) that no other top-level statement of any module
    names, and that no ``__all__`` lists. Names are matched by text, so a
    variable of the same name counts as a use."""
    statements = []  # (module, top-level statement, names it uses)
    exported = set()
    for module, code in sources.items():
        tree = ast.parse(code)
        exported |= _exported(tree)
        statements += [(module, node, _names_used(node)) for node in tree.body]
    found = []
    for module, node, _ in statements:
        if not isinstance(node, DEFINITIONS) or node.name in exported:
            continue
        if not any(node.name in used for _, other, used in statements if other is not node):
            found.append(f"{module}:{node.name}")
    return found


def test_every_library_definition_is_used_by_the_library_or_exported():
    assert unreferenced(_library_sources()) == []


def test_a_helper_only_a_test_could_call_is_found():
    sources = _library_sources()
    sources["dmrislice.volume"] += (
        "\n\ndef _countdown(n):\n    return n if n <= 0 else _countdown(n - 1)\n"
    )
    sources["dmrislice.planted"] = "import numpy as np\n\n\nclass Unused:\n    pass\n"
    assert unreferenced(sources) == ["dmrislice.volume:_countdown", "dmrislice.planted:Unused"]
