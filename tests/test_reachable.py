"""Every public top-level function and class of the package has a caller
inside the package, so code reached only by its own tests cannot regrow."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "mufilt"

# Names kept without a caller in the package, each with its reason.
ALLOWED = {
    # test_appendix_lemma_grid calls it; that test is the intended tier-1
    # failure and stays as it is
    "appendix_lemma_check",
}


def _referenced_names(node: ast.AST) -> set[str]:
    """Names a statement reads, bare (f(x)) or as a module attribute (m.f)."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
    return names


def unreached_public_names(src: Path) -> list[str]:
    """Public top-level functions and classes of the modules under src that
    no statement references outside their own definition.  The package's
    __init__.py re-exports names and so counts as no reference."""
    defined = []
    uses = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            key = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                key = (path.stem, stmt.name)
                if not stmt.name.startswith("_"):
                    defined.append(key)
            uses.append((key, _referenced_names(stmt)))
    return [
        f"{module}.{name}"
        for module, name in defined
        if name not in ALLOWED
        and not any(
            name in names for key, names in uses if key != (module, name)
        )
    ]


def test_every_public_name_has_a_caller():
    assert unreached_public_names(SRC) == []
