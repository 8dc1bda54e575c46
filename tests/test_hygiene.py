"""Source hygiene: no module defines the same top-level name twice (a later
definition silently shadows the earlier one), no module other than the
package's __init__ imports a name it never uses, every private top-level
function has a caller in the package, the modules whose checks must
survive `python -O` contain no assert, and every name the bench tracer
patches still exists."""

import ast
import importlib
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sftlab"


def _top_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_duplicate_top_level_definitions(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    counts = Counter(_top_level_names(tree))
    dups = sorted(name for name, c in counts.items() if c > 1)
    assert not dups, f"{path.name} defines {dups} more than once"


def _imported_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(set(_imported_names(tree)) - used)
    assert not unused, f"{path.name} imports {unused} and never uses them"


def _private_functions(tree):
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name.startswith("_") and not node.name.startswith("__")):
            yield node.name


def test_every_private_function_is_referenced():
    """A reference from inside the function's own body does not count."""
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"), filename=str(p))
             for p in sorted(SRC.glob("*.py"))}
    refs = set()  # (module, top-level node it sits in, referenced name)
    for name, tree in trees.items():
        for top in tree.body:
            for node in ast.walk(top):
                ref = (node.id if isinstance(node, ast.Name)
                       else node.attr if isinstance(node, ast.Attribute) else None)
                if ref is not None:
                    refs.add((name, getattr(top, "name", None), ref))
    dead = sorted(f"{name}.{fn}" for name, tree in trees.items()
                  for fn in _private_functions(tree)
                  if not any(r == fn and (m, owner) != (name, fn) for m, owner, r in refs))
    assert not dead, f"private functions without a reference: {dead}"


# modules whose every check raises an exception rather than asserting
ASSERT_FREE = ["analysis.py", "geometry.py", "orbits.py", "patterns.py", "repeatcover.py"]


@pytest.mark.parametrize("name", ASSERT_FREE)
def test_no_assert_in_checked_modules(name):
    path = SRC / name
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{name} asserts at lines {lines}; raise an SftlabError instead"


def _patched_names(tree):
    """(module, attr) of every `tr.patch(module, attr, ...)` call; an attr
    bound by a `for` loop over a tuple of strings yields each of them."""
    loops = {}
    for node in ast.walk(tree):
        if (isinstance(node, ast.For) and isinstance(node.target, ast.Name)
                and isinstance(node.iter, ast.Tuple)):
            for inner in ast.walk(node):
                loops[id(inner)] = (node.target.id, [e.value for e in node.iter.elts])
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "patch" and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "tr"):
            continue
        module, attr = node.args[0].id, node.args[1]
        if isinstance(attr, ast.Constant):
            yield module, attr.value
        else:
            var, values = loops[id(node)]
            assert attr.id == var
            for value in values:
                yield module, value


def test_every_traced_name_exists():
    """bench/trace_cli.py patches functions by name; one that is gone would
    make every traced bench run fail.  The file is parsed, not imported."""
    path = ROOT / "bench" / "trace_cli.py"
    names = sorted(set(_patched_names(ast.parse(path.read_text(encoding="utf-8")))))
    attrs = {attr for _, attr in names}
    assert {"decide_empty", "pattern_exists", "torus_config", "prune_rows",
            "shortest_allowed_cycle", "count_patterns_1d_fast", "sample",
            "sample_bits_batch", "_orbit_chunk"} <= attrs
    missing = [f"{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(f"sftlab.{module}"), attr)]
    assert not missing, f"bench/trace_cli.py patches names that are gone: {missing}"


def _count_calls(monkeypatch, modules, names):
    """Wrap each (module, attr) of names so that it counts its calls in the
    returned Counter."""
    calls = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module, attr in names:
        monkeypatch.setattr(modules[module], attr,
                            counted((module, attr), getattr(modules[module], attr)))
    return calls


def test_traced_cover_names_are_called(monkeypatch):
    """Every repeatcover and patterns name the tracer wraps is reached by the
    d2-cover run, so none of its per-layer metrics reads 0 after a refactor
    routes around it.  cubes_in is left out: no cube pattern reaches it."""
    from sftlab import patterns, repeatcover
    from test_repeatcover import d2_cover_pattern

    path = ROOT / "bench" / "trace_cli.py"
    modules = {"patterns": patterns, "repeatcover": repeatcover}
    names = sorted({(m, a) for m, a in _patched_names(ast.parse(path.read_text(encoding="utf-8")))
                    if m in modules and a != "cubes_in"})
    calls = _count_calls(monkeypatch, modules, names)
    repeatcover.asymptotic_cover(d2_cover_pattern(), 16, 0.5)
    missing = [f"{module}.{attr}" for module, attr in names if not calls[module, attr]]
    assert len(names) >= 6
    assert not missing, f"traced but never called on the d2-cover run: {missing}"


def test_traced_d1_names_are_called(monkeypatch):
    """Every d = 1 name the tracer wraps is reached by small d = 1 emptiness
    and orbit experiments, so the ensemble.*, analysis.prune_rows.* and
    orbit-table metrics of the d = 1 workloads do not read 0 after a refactor
    routes around them."""
    from sftlab import analysis, experiments

    path = ROOT / "bench" / "trace_cli.py"
    modules = {"analysis": analysis, "experiments": experiments}
    names = [("analysis", "prune_rows"), ("experiments", "_emptiness_chunk"),
             ("experiments", "_orbit_chunk"), ("experiments", "orbit_window_table"),
             ("experiments", "sample_bits_batch")]
    assert set(names) <= set(_patched_names(ast.parse(path.read_text(encoding="utf-8"))))
    calls = _count_calls(monkeypatch, modules, names)
    cfg = experiments.ExperimentConfig(d=1, alphabet=2, n=4, alphas=(0.3, 0.6), trials=70,
                                       seed=5, orbit_max=4)
    experiments.run_emptiness_experiment(cfg)
    experiments.run_orbit_experiment(cfg)
    missing = [f"{module}.{attr}" for module, attr in names if not calls[module, attr]]
    assert not missing, f"traced but never called by d = 1 chunks: {missing}"


def test_traced_entropy_names_are_called(monkeypatch):
    """The names behind the d1-entropy per-layer metrics (experiments.chunk,
    ensemble.sample, analysis.count_periodic_fillins and its
    boundaries_evaluated counter) are reached by a small entropy experiment,
    so none of them reads 0 after a refactor of the fill counts."""
    from sftlab import analysis, experiments

    path = ROOT / "bench" / "trace_cli.py"
    modules = {"analysis": analysis, "experiments": experiments}
    names = [("analysis", "count_periodic_fillins"), ("experiments", "_entropy_chunk"),
             ("experiments", "sample")]
    assert set(names) <= set(_patched_names(ast.parse(path.read_text(encoding="utf-8"))))
    calls = _count_calls(monkeypatch, modules, names)
    cfg = experiments.ExperimentConfig(d=1, alphabet=2, n=4, alphas=(0.75,), trials=3,
                                       seed=5, k=12, boundary_samples=16)
    experiments.run_entropy_experiment(cfg)
    missing = [f"{module}.{attr}" for module, attr in names if not calls[module, attr]]
    assert not missing, f"traced but never called by the entropy chunks: {missing}"


def test_traced_d2_names_are_called(monkeypatch):
    """The names behind the d2-transition per-layer metrics (the emptiness
    chunk, orbits.orbit_from_config for a certificate whose stabilizer is
    coarser than its torus, and zeta.zeta_inverse) are reached by a small
    d = 2 emptiness experiment, so none of them reads 0 after a refactor of
    the certificate orbits routes around it."""
    from sftlab import analysis, experiments

    path = ROOT / "bench" / "trace_cli.py"
    modules = {"analysis": analysis, "experiments": experiments}
    names = [("experiments", "_emptiness_chunk"), ("analysis", "orbit_from_config"),
             ("experiments", "zeta_inverse")]
    assert set(names) <= set(_patched_names(ast.parse(path.read_text(encoding="utf-8"))))
    calls = _count_calls(monkeypatch, modules, names)
    cfg = experiments.ExperimentConfig(d=2, alphabet=2, n=2, alphas=(0.3, 0.6), trials=70,
                                       seed=5, k_max=4, torus_max=3)
    experiments.run_emptiness_experiment(cfg)
    missing = [f"{module}.{attr}" for module, attr in names if not calls[module, attr]]
    assert not missing, f"traced but never called by d = 2 chunks: {missing}"
