"""Properties of the package as a whole: its source and how it starts."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import designcolour

PACKAGE = Path(designcolour.__file__).resolve().parent


def test_no_assert_statements():
    # Invariants raise InternalConsistencyError, which `python -O` keeps;
    # an assert statement would be stripped.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_no_function_level_imports():
    # Imports sit at module level; none of the modules needs a late import
    # to break a cycle.
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                )
    assert sorted(found) == []


def test_sources_parse_as_python_3_10():
    # pyproject declares requires-python >= 3.10; a newer-only construct
    # (an `except*` clause, say) would fail to parse there.
    for path in sorted(PACKAGE.rglob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_cli_module_runs_without_runpy_warning():
    # The package root does not import `designcolour.cli`, so running it
    # with -m does not find it already in sys.modules.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "designcolour.cli", "catalog", "list"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "sts21" in proc.stdout.split()


def test_start_up_does_not_load_multiprocessing():
    # `parallel` reaches ProcessPoolExecutor through `concurrent.futures`
    # only when `--jobs` starts a pool, so a command that starts none does
    # not pay for importing `multiprocessing`.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    code = (
        "import io, sys; import designcolour.cli; "
        "designcolour.cli.cli_main(['catalog', 'get', 'sts21'], out=io.StringIO()); "
        "print('multiprocessing' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]


def test_every_private_function_has_a_caller():
    # A module-level `def _name` that nothing in the package refers to,
    # apart from its own body, is dead code.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
    }

    def names(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.alias):
                yield sub.name

    dead = []
    for module, tree in trees.items():
        for func in tree.body:
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or not func.name.startswith("_"):
                continue
            used = any(
                func.name in names(node)
                for other_tree in trees.values()
                for node in other_tree.body
                if node is not func
            )
            if not used:
                dead.append(f"{module}:{func.name}")
    assert dead == []


def test_no_hidden_module_state():
    # No function rebinds a module-level name, except the pool initializer
    # `parallel._start_worker`, which hands each worker its design facts.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Global)
            for name in node.names
        ]
    assert found == ["parallel.py:_worker_facts"]


# The functions that call themselves, each with the bound on its depth.
BOUNDED_RECURSION = {
    "colouring.py:brute_min_monochrome.rec": "one level per point, at most 24 by the enumeration guard",
    "packings.py:max_equitable_packing": "one step, from an order 4n + 1 or 4n + 3 to one it builds directly",
    "packings.py:_rotation_families.rec": "at most 40,000 nodes, the search's own cap",
}


def test_no_unbounded_recursion():
    # Python stops at about 1,000 frames, so a search that recurses once
    # per point, variable or block fails on large inputs.  A method calls
    # itself through `self`; a bare name inside a method, or a call like
    # `super().__init__`, only shares the name.
    found = []

    def visit(node, prefix, path, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", path, True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name
                for call in ast.walk(child):
                    if not isinstance(call, ast.Call):
                        continue
                    func = call.func
                    if in_class:
                        hit = (
                            isinstance(func, ast.Attribute)
                            and func.attr == name
                            and isinstance(func.value, ast.Name)
                            and func.value.id in ("self", "cls")
                        )
                    else:
                        hit = isinstance(func, ast.Name) and func.id == name
                    if hit:
                        found.append(f"{path}:{prefix}{name}")
                        break
                visit(child, f"{prefix}{name}.", path, False)
            else:
                visit(child, prefix, path, in_class)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), "", path.name, False)
    assert sorted(found) == sorted(BOUNDED_RECURSION)
