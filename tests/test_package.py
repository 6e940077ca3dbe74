"""Properties of the package as a whole: its source and how it starts."""
import ast
import io
import os
import subprocess
import sys
from pathlib import Path

import designcolour
from designcolour.cli import cli_main

PACKAGE = Path(designcolour.__file__).resolve().parent


def test_no_assert_statements():
    # Invariants raise InternalConsistencyError, which `python -O` keeps;
    # an assert statement would be stripped.
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def _imports_at_run_time(node) -> bool:
    """An import statement, or a call of `import_module` or `__import__`."""
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return True
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return name in ("import_module", "__import__")


def test_no_function_level_imports():
    # Imports sit at module level.  The two exceptions are for start-up:
    # the package root's `__getattr__` imports a submodule on the first
    # use of one of its names, so a command starts without the modules
    # it does not use, and `analyze_parallel_classes` imports
    # `concurrent.futures` only when it starts a pool.
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_imports_at_run_time(node) for node in ast.walk(func)):
                    found.add(f"{path.name}:{func.name}")
    assert found == {"__init__.py:__getattr__", "parallel.py:analyze_parallel_classes"}


def _imported_names(node) -> list[str]:
    """The module names an import statement or call names; a relative one
    keeps its leading dots, a call's argument its literal prefix."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return ["." * node.level + (node.module or "")]
    arg = node.args[0] if node.args else None
    if isinstance(arg, ast.JoinedStr) and arg.values:
        arg = arg.values[0]
    return [arg.value if isinstance(arg, ast.Constant) and isinstance(arg.value, str) else "<computed>"]


def test_imports_only_the_standard_library():
    # The package has no dependencies: every import, at module or function
    # level, is relative, names the package itself, or names a module of
    # the standard library.
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if _imports_at_run_time(node):
                for name in _imported_names(node):
                    top = name.split(".")[0]
                    if not (name.startswith(".") or top == "designcolour" or top in sys.stdlib_module_names):
                        found.append(f"{path.name}:{node.lineno}:{name}")
    assert found == []


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


def test_analysis_without_a_pool_does_not_load_concurrent_futures():
    # `--analyze` without `--jobs` analyses each class in this process and
    # imports no pool machinery.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    code = (
        "import io, sys; from designcolour.cli import cli_main; "
        "print(cli_main(['pclasses', 'sts9', '--analyze'], out=io.StringIO()), 'concurrent.futures' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False"]


# The package modules every command loads.
COMMAND_BASE = {"cli", "core", "fileio", "catalog"}


def test_each_command_loads_only_the_modules_it_uses(tmp_path):
    # each command in a fresh interpreter, one process at a time
    paths = {}
    for name, argv in (
        ("sts21.design", ["catalog", "get", "sts21"]),
        ("sts7.design", ["catalog", "get", "sts7"]),
        ("td44.design", ["catalog", "get", "td44"]),
        ("sts7.col", ["chromatic", "sts7"]),
    ):
        out = io.StringIO()
        assert cli_main(argv, out=out) == 0
        text = out.getvalue()
        if name.endswith(".col"):
            # the witness, in the standalone colouring format
            text = text[text.index("colouring c="):]
        paths[name] = str(tmp_path / name)
        Path(paths[name]).write_text(text, encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]))
    cases = (
        (None, set()),
        (["catalog", "get", "sts21"], COMMAND_BASE),
        (["verify", paths["sts21.design"]], COMMAND_BASE),
        (["verify", paths["sts7.design"], "--colouring", paths["sts7.col"]], COMMAND_BASE | {"colouring"}),
        # a design file with colour lines
        (["verify", paths["td44.design"]], COMMAND_BASE | {"colouring"}),
        (["catalog", "get", "td44"], COMMAND_BASE | {"colouring", "td"}),
        (["construct", "td", "4", "5"], COMMAND_BASE | {"td"}),
        (["chromatic", paths["sts7.design"]], COMMAND_BASE | {"colouring", "solver"}),
        (["pclasses", "sts9", "--analyze"], COMMAND_BASE | {"colouring", "parallel", "solver", "td", "transforms"}),
        (["construct", "pack-max", "12"], COMMAND_BASE | {"colouring", "packings", "td"}),
        (["bound", "12", "4", "2"], COMMAND_BASE | {"colouring", "packings", "td"}),
    )
    for argv, expected in cases:
        if argv is None:
            # a submodule still resolves as an attribute of a bare import
            code = "import sys, designcolour; loaded = [*sys.modules]; designcolour.solver.SearchBudget; print(0, *loaded)"
        else:
            code = (
                "import io, sys; from designcolour.cli import cli_main; "
                f"print(cli_main({argv!r}, out=io.StringIO()), *sys.modules)"
            )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env)
        assert proc.returncode == 0, proc.stderr
        rc, *modules = proc.stdout.split()
        loaded = {m.split(".", 1)[1] for m in modules if m.startswith("designcolour.")}
        assert (rc, loaded) == ("0", expected), argv
        if expected == COMMAND_BASE:
            # `fractions`, and the `decimal` it imports, come with `colouring`
            assert not {"fractions", "decimal"} & set(modules), argv


# The names the package root exports.
EXPORTED = (
    "BlowUp BoundInfo BudgetExceededError CatalogEntry ChromaticResult ColouredPacking "
    "Colouring Design DesignError FieldTable Grouping InstanceTooLargeError "
    "InternalConsistencyError LeaveGraph NONEXISTENT PairStats PairsProfile ParallelClass "
    "ParseError PcAnalysis PcRecord SearchBudget SolveResult Unachievable UnknownEntryError "
    "UnsupportedOrderError UnsupportedParameterError ValidationReport Violation admissible "
    "analyze_parallel_classes blow_up bound_general bound_max_equitable brute_min_monochrome "
    "build_td catalog_get catalog_names check_block_equitable check_colouring "
    "check_group_colouring check_weak chromatic_lower_bound chromatic_number "
    "count_monochrome_cross_pairs decide_colourable delete_point enumerate_parallel_classes "
    "equitable_gdd_colouring field_table gdd_chromatic_numbers group_equitable_blowup "
    "is_parallel_class is_transversal max_equitable_packing pack_4n pack_4n2_odd "
    "pack_from_pairs pack_small pair_stats_equitable pairs_for_s parse_colouring parse_design "
    "pc_to_gdd remove_blocks render_colouring render_design td_group_equitable_colouring "
    "td_packing_coloured upper_bound_colouring validate_bibd validate_gdd validate_packing "
    "verify_pairs_profile"
).split()


def test_every_exported_name_resolves_to_its_defining_module():
    assert len(EXPORTED) == 74
    listed = dir(designcolour)
    for name in EXPORTED:
        namespace: dict = {}
        exec(f"from designcolour import {name}", namespace)
        value = namespace[name]
        module = f"designcolour.{designcolour._EXPORTS[name]}"
        # a class or function is pickled by the module it names
        assert getattr(value, "__module__", module) == module, name
        assert value is getattr(sys.modules[module], name), name
        assert name in listed, name
    assert sorted(designcolour.__all__) == sorted(EXPORTED)
    assert not hasattr(designcolour, "no_such_name")


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
            if func.name in ("__getattr__", "__dir__"):
                # module hooks (PEP 562), called by the interpreter
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
    # No function rebinds a module-level name: a pool worker is handed
    # what it needs with each chunk of tasks.  (The package root's
    # `__getattr__` binds a lazily loaded name once, through `globals()`,
    # to the object its submodule defines.)
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Global)
            for name in node.names
        ]
    assert found == []


def test_only_cli_main_writes_to_stderr():
    # A command raises for a usage error, and `cli_main` alone turns each
    # error into its stderr line and exit code.
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    found = sorted({
        func.name
        for func in tree.body
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and node.attr == "stderr"
    })
    assert found == ["cli_main"]


def test_only_core_raises_for_a_failed_check():
    # `core._require` alone turns a failed report into its exception, with
    # its first three violations, and `core._require_points` alone raises
    # for a colouring or grouping over other points than the design's.
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where.split(':')[0]}:{child.name}")
                continue
            listed = (
                isinstance(child, ast.Subscript)
                and isinstance(child.value, ast.Attribute)
                and child.value.attr == "violations"
                and isinstance(child.slice, ast.Slice)
            )
            named = (
                isinstance(child, ast.Constant)
                and isinstance(child.value, str)
                and "over a different point count" in child.value
            )
            if listed or named:
                found.add(where)
            visit(child, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert found == {"core.py:_require", "core.py:_require_points"}


def test_only_one_function_checks_a_colouring_mode():
    # `colouring._require_mode` alone refuses an unknown mode and a group
    # mode without a grouping, for the checkers and the search alike.
    found = set()

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{where.split(':')[0]}:{child.name}")
                continue
            if isinstance(child, ast.Constant) and isinstance(child.value, str) and (
                "unknown colouring mode" in child.value or "requires a grouping" in child.value
            ):
                found.add(where)
            visit(child, where)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.name)
    assert found == {"colouring.py:_require_mode"}


# The functions that call themselves, each with the bound on its depth.
BOUNDED_RECURSION = {
    "colouring.py:brute_min_monochrome.rec": "one level per point, at most 24 by the enumeration guard",
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
