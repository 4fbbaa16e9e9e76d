"""The package ships only what its commands and its library example use.

Every name in a module's ``__all__`` under src/hetnet must be read
somewhere in src/ outside its own definition, or appear in the README's
Library example.  A name that only tests call belongs under tests/ (the
reference routes live in tests/oracles.py), not in the installed package.
"""
import ast
import math
import os
import pathlib
import re
import subprocess
import sys

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


def _library_example() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _library_example_names() -> set:
    tree = ast.parse(_library_example())
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


# Names that must not come back to the package: routes and knobs that
# only tests used (now under tests/ or gone), the second library path
# beside experiments.evaluate_point (the coverage_total/rate_covered
# assembly, its result fields, and the float wrappers that raised on
# non-convergence), second copies of one quantity (the pico mixed-term
# kernel, the simulator's rate shares, the outer grid's case bounds), the
# one-caller disc wrappers of joint_pdf, and defaults that only tests read
# (the simulator's compensation switch, a None window re-defaulted inside
# a function, _mixed_term's optional access map), a second convergence
# gate beside evaluate_point's one loop, a pass hold that outlived the
# call that drew it, a second definition of the fields that fix a
# network (NetworkParams.network), the one-mode pass-and-tally
# shortcut that only tests call (estimate_metrics), the config parser's
# second copies of the mode vocabulary, the window keys and the decibel
# conversion, the wrapper of a trial's two station arrays, the torus
# window option, which read coverage high, the kernel's tier branch
# with its serving-link record, now that the tally decides the tier, and
# the one-threshold macro coverage beside its batch form.  The
# __all__ scan above cannot see a keyword argument, a dataclass field or a
# private helper, so each one is named here.
RETIRED = [
    "integrate_annulus", "tail_profile_quad", "classify_case",
    "JointPdfCase", "j_components", "intersection_given_coverage",
    "case_b_only", "two_dim", "pico_exclusion", "approx_ac", "Point2",
    "truncation_radius", "max_subdivisions", "config_from_sweep_spec",
    "coverage_total", "CoverageBreakdown", "rate_covered", "RateBreakdown",
    "coverage_used", "access_conditional", "backhaul_conditional",
    "coverage_smallcell", "coverage_macro", "_band_shares",
    "quad_spec", "quad_abs_tol", "quad_rel_tol",
    "integrate_1d", "QuadratureSpec", "_MAX_SUBDIVISIONS", "_clip_cos",
    "_pico_mixed_term", "_rate_shares", "nu_lo", "nu_hi",
    "_GEOM_CACHE", "_GEOM_CACHE_MAX", "_GEOM_CACHE_BYTES", "_geometry_key",
    "_is_covered", "_rate_sample", "macro_tail", "pico_tail",
    "disc_union_area", "circle_arc_outside_disc", "tail_compensation",
    "window is None", "acc is None", "_converged", "_SKIP_EXPONENT",
    "_chunk_tallies", "generate_state", "_gain",
    "_PASSES", "_held_pass", "_point_key", "estimate_metrics",
    "UserSample", "associated_tier", "from_mean_se",
    "_db_to_linear", "_MODES", "_MC_KEYS", "NetworkRealization", "wrap",
    "pico_assoc", "access_signal", "seed_m", "seed_s", "seed_fading",
    "coverage_macro_result", "fixed_count", "full_scale", "full-scale",
]
# retired as functions, still quoted as sweep output names (SWEEP_OUTPUTS,
# a config and command-line value), so a quoted use is not a hit
OUTPUT_NAMES = {"coverage_total"}


def _retired_pattern(word: str) -> re.Pattern:
    pattern = rf"\b{word}\b"
    if word in OUTPUT_NAMES:
        pattern = rf"(?<![\"']){pattern}(?![\"'])"
    return re.compile(pattern)


@pytest.mark.parametrize("word", RETIRED)
def test_retired_test_only_name_stays_out_of_the_package(word):
    pattern = _retired_pattern(word)
    hits = [f"{path.relative_to(ROOT)}:{n}"
            for path in sorted(SRC.rglob("*.py"))
            for n, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1)
            if pattern.search(line)]
    assert hits == []


def test_output_name_exception_still_catches_the_function():
    pattern = _retired_pattern("coverage_total")
    assert not pattern.search('outputs = ("coverage_total",)')
    assert pattern.search("from .coverage import coverage_total")
    assert pattern.search("cb = coverage_total(params, th)")


def test_library_example_runs(capsys):
    exec(compile(_library_example(), "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 3
    assert all(math.isfinite(float(v)) for line in lines
               for v in line.split())


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


def test_cli_import_loads_no_adaptive_quadrature_or_optimizer():
    # every integral in the package is a fixed vectorized rule; scipy's
    # quadpack and optimize modules (about a third of the import time of
    # `hetnet`) belong to the test oracles only
    code = ("import sys, hetnet.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'integrate'], "
            "['scipy', 'optimize'])))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "[]"
    importers = [str(path.relative_to(ROOT))
                 for path in sorted(SRC.rglob("*.py"))
                 if re.search(r"^\s*(from\s+scipy\s+import\s+integrate|"
                              r"(from|import)\s+scipy\.integrate)",
                              path.read_text(encoding="utf-8"), re.M)]
    assert importers == []


def test_cli_import_loads_no_process_pool():
    # the fan-out imports its process pool when it splits, so a launch
    # that splits nothing does not pay for the import (concurrent.futures
    # alone is about 8 ms of set-up time)
    code = ("import sys, hetnet.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('multiprocessing', 'concurrent'))))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "[]"


def _imported_top_level_modules(path: pathlib.Path) -> set:
    """Top-level names of the absolute imports in one source file."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_runtime_needs_numpy_only():
    # scipy serves the test oracles alone: launching `hetnet` loads none of
    # it, and the package's runtime dependencies are exactly the
    # third-party modules its sources import
    code = ("import sys, hetnet.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC.parent)})
    assert out.stdout.strip() == "[]"
    imports = {str(path.relative_to(ROOT)): _imported_top_level_modules(path)
               for path in sorted(SRC.rglob("*.py"))}
    assert [path for path, mods in imports.items() if "scipy" in mods] == []

    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(
        (ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower()
                for dep in project["dependencies"]}
    third_party = set().union(*imports.values()) - set(
        sys.stdlib_module_names) - {"hetnet"}
    assert declared == third_party == {"numpy"}
