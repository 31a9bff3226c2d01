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


# Private names of other package modules that cli_reports reads, as
# (defining module, name), each with its reason.  Any other private name
# belongs behind a public entry of its module.
ALLOWED_PRIVATE_READS = {
    # the size and level guards every report runs before its work, kept
    # in one place in signature_core until the guard is widened to bound
    # cost in f
    ("signature_core", "_check_level_work"),
    ("signature_core", "_check_level"),
    # verify oracles: the suite's prime grid, and the point-valuation
    # recursion the closed-form cokernel degree is checked against
    ("signature_core", "_is_prime"),
    ("group_models", "_raynaud_point_valuation"),
}


def private_reads(path: Path) -> set[tuple[str, str]]:
    """(module, name) for each _-prefixed, non-dunder name that the module
    at path reads from another module of the package: imported by name
    (from .m import _x) or read through an imported module (m._x)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}
    reads = set()
    for sub in ast.walk(tree):
        if not isinstance(sub, ast.ImportFrom):
            continue
        if sub.level == 1 and sub.module is None:
            modules.update({a.asname or a.name: a.name for a in sub.names})
        elif sub.level == 1 or (sub.module or "").startswith("mufilt."):
            source = sub.module.rpartition(".")[2]
            reads |= {(source, a.name) for a in sub.names if a.name.startswith("_")}
    for sub in ast.walk(tree):
        if (
            isinstance(sub, ast.Attribute)
            and isinstance(sub.value, ast.Name)
            and sub.value.id in modules
            and sub.attr.startswith("_")
        ):
            reads.add((modules[sub.value.id], sub.attr))
    return {(m, name) for m, name in reads if not name.startswith("__")}


def test_cli_reads_only_allowed_private_names():
    assert sorted(private_reads(SRC / "cli_reports.py") - ALLOWED_PRIVATE_READS) == []
