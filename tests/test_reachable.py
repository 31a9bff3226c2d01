"""Every public top-level function and class of the package has a caller
inside the package, so code reached only by its own tests cannot regrow;
and no module of the package or of the tests imports a name it never
reads."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "mufilt"

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


# Imports kept without a reader, as (importing module, imported module,
# name); None as the importing module stands for every module.
ALLOWED_IMPORTS = {
    # a compiler directive, not a name the module reads
    (None, "__future__", "annotations"),
    # bench/test_bench.py checks that the bench tracer wraps this binding
    ("hn_engine", "signature_core", "constants"),
}


def unused_imports(paths) -> list[str]:
    """module.name for each name an import statement binds at the top of
    a module that nothing in the module reads.  A package __init__.py
    re-exports what it imports and is skipped."""
    out = []
    for path in sorted(paths):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = []
        for stmt in tree.body:
            if isinstance(stmt, ast.Import):
                bound += [
                    (alias.name, alias.asname or alias.name.partition(".")[0])
                    for alias in stmt.names
                ]
            elif isinstance(stmt, ast.ImportFrom):
                bound += [
                    (stmt.module, alias.asname or alias.name) for alias in stmt.names
                ]
        read = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        out += [
            f"{path.stem}.{name}"
            for source, name in bound
            if name not in read
            and (None, source, name) not in ALLOWED_IMPORTS
            and (path.stem, source, name) not in ALLOWED_IMPORTS
        ]
    return out


def test_no_unused_imports():
    assert unused_imports([*SRC.glob("*.py"), *TESTS.glob("*.py")]) == []
