"""The package ships only what its commands and its library example use.

Every name in a module's ``__all__`` under src/hetnet must be read
somewhere in src/ outside its own definition, or appear in the README's
Library example.  A name that only tests call belongs under tests/ (the
reference routes live in tests/oracles.py), not in the installed package.
"""
import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hetnet"
# read by the installer or by tools, never by the package's own code
EXEMPT = {
    ("hetnet.cli", "main"),       # console-script entry point
    ("hetnet", "__version__"),    # package metadata
}


def _module_name(path: pathlib.Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _exported(tree: ast.Module) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return [ast.literal_eval(elt) for elt in node.value.elts]
    return []


def _reads(node: ast.AST, enclosing: frozenset = frozenset()) -> set:
    """Names loaded under node, each kept only where it is not inside the
    function or class of that name (its own definition)."""
    found = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        found.add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        found.add(node.attr)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        enclosing = enclosing | {node.name}
    for child in ast.iter_child_nodes(node):
        found |= _reads(child, enclosing) - enclosing
    return found


def _library_example_names() -> set:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    tree = ast.parse(code)
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return imported | _reads(tree)


def test_every_exported_name_is_used_by_the_package():
    trees = {_module_name(p): ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.rglob("*.py"))}
    used = set().union(*(_reads(tree) for tree in trees.values()))
    used |= _library_example_names()
    exported = [(module, name) for module, tree in trees.items()
                for name in _exported(tree)]
    assert len(exported) > 50, "the scan found almost no __all__ entries"
    unused = [f"{module}.{name}" for module, name in exported
              if name not in used and (module, name) not in EXEMPT]
    assert unused == [], f"exported but used only outside the package: {unused}"


# Routes and knobs that only tests used and that now live under tests/ or
# are gone.  The __all__ scan above cannot see a keyword argument or a
# dataclass field, so each one is named here and must not come back.
RETIRED = [
    "integrate_annulus", "tail_profile_quad", "classify_case",
    "JointPdfCase", "j_components", "intersection_given_coverage",
    "case_b_only", "two_dim", "pico_exclusion", "approx_ac", "Point2",
    "truncation_radius", "max_subdivisions", "config_from_sweep_spec",
]


@pytest.mark.parametrize("word", RETIRED)
def test_retired_test_only_name_stays_out_of_the_package(word):
    pattern = re.compile(rf"\b{word}\b")
    hits = [f"{path.relative_to(ROOT)}:{n}"
            for path in sorted(SRC.rglob("*.py"))
            for n, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if pattern.search(line)]
    assert hits == []


def test_own_definition_is_not_a_use():
    tree = ast.parse(
        "__all__ = ['f', 'g', 'C']\n"
        "def f(n):\n    return f(n - 1) if n else g()\n"
        "def g():\n    return 0\n"
        "class C:\n    def m(self):\n        return C()\n")
    assert _exported(tree) == ["f", "g", "C"]
    # f and C only refer to themselves; g is called from inside f
    assert {"f", "C"}.isdisjoint(_reads(tree))
    assert "g" in _reads(tree)
