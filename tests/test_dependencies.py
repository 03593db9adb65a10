"""src/lqphase imports only the standard library and numpy, its one runtime
dependency in pyproject.toml; the test extras (scipy, hypothesis, pytest)
stay out of the package.  Only serialize opens files (the builtin open) and
reads dataclass fields (dataclasses.fields, in its one payload decoder).
Every private module-level function or class is used somewhere in the
package, every module-level UPPER_CASE constant is read somewhere in it
outside its own assignment, and every function the package's __init__
exports is used in the package outside its own definition or in the
benchmark's sources, so code that nothing needs cannot linger.  The
enumerating modules raise ResourceBudgetError only through
linalg.check_budget, apart from the oracle's m guard, so every enumeration is
bounded by one rule: its work.  Every option is one a caller sets: each
optional parameter of a module-level function is passed by some call in the
package or the benchmark's sources, and each default of a private function
is relied on by some call in the package, so no knob serves only tests."""

import ast
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "lqphase"
BENCH = Path(__file__).resolve().parents[1] / "bench"
ALLOWED = set(sys.stdlib_module_names) | {"numpy"}


def _absolute_imports(text: str) -> set[str]:
    """The top-level names of the absolute imports in a module's source."""
    names = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_import_walker_sees_nested_and_dotted_imports():
    text = "import os.path\nfrom . import x\ndef f():\n    from scipy.linalg import svd\n"
    assert _absolute_imports(text) == {"os", "scipy"}


def test_package_imports_only_the_standard_library_and_numpy():
    found = {path.name: _absolute_imports(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert "numpy" in found["linalg.py"]  # the walk reads the real modules
    outside = {name: sorted(imports - ALLOWED) for name, imports in found.items() if imports - ALLOWED}
    assert outside == {}


def _io_calls(text: str) -> set[str]:
    """The calls in a module's source of the builtin open and of
    dataclasses.fields, under the names they are written with."""
    found = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("open", "fields"):
                found.add(func.id)
            elif (isinstance(func, ast.Attribute) and func.attr == "fields"
                  and isinstance(func.value, ast.Name) and func.value.id == "dataclasses"):
                found.add("dataclasses.fields")
    return found


def test_io_call_walker_sees_open_and_both_spellings_of_fields():
    text = "def f(cls):\n    with open('x') as fh:\n        return fields(cls), dataclasses.fields(cls)\n"
    assert _io_calls(text) == {"open", "fields", "dataclasses.fields"}
    assert _io_calls("path.open()\nnp.fields = 1\n") == set()


def test_only_serialize_opens_files_or_reads_dataclass_fields():
    found = {path.name: _io_calls(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
    assert found.pop("serialize.py") == {"open", "fields"}  # the walk reads the real modules
    assert {name: sorted(calls) for name, calls in found.items() if calls} == {}


def _private_definitions(top: ast.stmt) -> list[str]:
    """The private (single-underscore) function or class a module-level
    statement defines."""
    own = getattr(top, "name", "")
    if (isinstance(top, (ast.FunctionDef, ast.ClassDef)) and own.startswith("_")
            and not own.startswith("__")):
        return [own]
    return []


def _constants(top: ast.stmt) -> list[str]:
    """The UPPER_CASE names a module-level assignment binds."""
    targets = (top.targets if isinstance(top, ast.Assign) else
               [top.target] if isinstance(top, ast.AnnAssign) else [])
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and node.id.isupper()]


def _unread(modules: dict[str, str], defines) -> list[str]:
    """The names that defines(top) gives for the module-level statements of
    the given module sources and that no name, attribute or import outside
    that statement reads."""
    defined, refs = [], Counter()
    for text in modules.values():
        for top in ast.parse(text).body:
            own = defines(top)
            defined += own
            for node in ast.walk(top):
                ref = (node.id if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) else
                       node.attr if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load) else
                       node.name if isinstance(node, ast.alias) else None)
                if ref is not None and ref not in own:
                    refs[ref] += 1
    return sorted(name for name in defined if not refs[name])


def _orphans(modules: dict[str, str]) -> list[str]:
    """The private module-level functions and classes that nothing refers to
    outside their own definition."""
    return _unread(modules, _private_definitions)


def test_orphan_walker_sees_calls_attributes_and_imports():
    modules = {
        "a": "def _called():\n    pass\ndef _recursive():\n    _recursive()\n"
             "class _Unused:\n    pass\ndef __dunder__():\n    pass\n"
             "def f():\n    return _called()\n",
        "b": "from .a import _imported\nimport m\nm._attribute\n",
        "c": "def _imported():\n    pass\ndef _attribute():\n    pass\n",
    }
    assert _orphans(modules) == ["_Unused", "_recursive"]


def test_every_private_definition_is_used_in_the_package():
    modules = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert "_extremes" in modules["rip.py"]  # the walk reads the real modules
    assert _orphans(modules) == []


def test_constant_walker_counts_reads_only():
    modules = {
        "a": "READ = 1\nUNREAD = 2\nDERIVED = READ + 1\n"
             "lower = 4\nANNOTATED: int = 5\nPAIR_A, PAIR_B = 6, 7\n"
             "def f():\n    return PAIR_A\n",
        "b": "from .a import DERIVED\nimport c\nc.ATTR\nc.STORED = 8\n",
        "c": "ATTR = 9\nSTORED = 10\n",
    }
    assert _unread(modules, _constants) == ["ANNOTATED", "PAIR_B", "STORED", "UNREAD"]


def test_every_module_constant_is_read_in_the_package():
    # a constant that only tests or the benchmark read is not part of the package
    modules = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert "ORACLE_MAX_M" in modules["solver.py"]  # the walk reads the real modules
    assert _unread(modules, _constants) == []


def _unused_exports(init: str, modules: dict[str, str], bench: dict[str, str]) -> list[str]:
    """The module-level functions that __init__ imports from the given
    package modules and that nothing in those modules, outside the function's
    own definition, or in the bench sources refers to."""
    exported = set()
    for node in ast.parse(init).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            functions = {top.name for top in ast.parse(modules[f"{node.module}.py"]).body
                         if isinstance(top, ast.FunctionDef)}
            exported |= {alias.name for alias in node.names} & functions
    return _unread({**modules, **bench}, lambda top: [top.name] if (
        isinstance(top, ast.FunctionDef) and top.name in exported) else [])


def test_export_walker_counts_package_and_bench_references():
    modules = {
        "a.py": "def used():\n    pass\ndef recursive():\n    recursive()\n"
                "def unused():\n    pass\ndef benched():\n    pass\nclass Kept:\n    pass\n",
        "b.py": "from .a import used\n",
    }
    init = "from .a import used, recursive, unused, benched, Kept\nfrom .b import used as again\n"
    bench = {"run.py": "import lqphase\nlqphase.benched()\n"}
    assert _unused_exports(init, modules, bench) == ["recursive", "unused"]


def test_every_exported_function_is_used_in_the_package_or_the_benchmark():
    # a function that only tests call is not part of the package
    modules = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))
               if path.name != "__init__.py"}
    bench = {path.name: path.read_text(encoding="utf-8") for path in sorted(BENCH.glob("*.py"))
             if not path.name.startswith("test_")}
    init = (SRC / "__init__.py").read_text(encoding="utf-8")
    assert "solve_irls" in init and "workloads.py" in bench  # the walk reads the real files
    assert _unused_exports(init, modules, bench) == []


def _budget_raises(text: str) -> list[str]:
    """The module-level functions of a module's source, one entry per raise
    of ResourceBudgetError (bare or as an attribute) in their bodies."""
    found = []
    for top in ast.parse(text).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)
                if name == "ResourceBudgetError":
                    found.append(getattr(top, "name", "<module>"))
    return found


def test_budget_raise_walker_sees_calls_attributes_and_nested_functions():
    text = ("def f():\n    raise ResourceBudgetError('x')\n"
            "def g():\n    def inner():\n        raise errors.ResourceBudgetError\n"
            "def h():\n    check_budget(1, 1, 0, 'x')\n    raise ParameterError('y')\n")
    assert _budget_raises(text) == ["f", "g"]


def test_enumerations_raise_budget_errors_only_through_check_budget():
    # the one exception is the oracle's m guard, which the benchmark's
    # workloads pin through oracle_max_m and max_m (ROADMAP item 8)
    found = {name: _budget_raises((SRC / name).read_text(encoding="utf-8"))
             for name in ("lemmas.py", "rip.py", "nsp.py", "solver.py")}
    assert found == {"lemmas.py": [], "rip.py": [], "nsp.py": [],
                     "solver.py": ["solve_oracle_noiseless"]}


def _signatures(modules: dict[str, str]) -> dict[str, tuple[list[str], list[str]]]:
    """Each module-level function's positional parameters and its optional
    ones (positional or keyword-only, with a default), by name."""
    found = {}
    for text in modules.values():
        for top in ast.parse(text).body:
            if isinstance(top, ast.FunctionDef):
                a = top.args
                positional = [p.arg for p in a.posonlyargs + a.args]
                optional = positional[len(positional) - len(a.defaults):] if a.defaults else []
                optional += [p.arg for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                found[top.name] = (positional, optional)
    return found


def _calls(texts, signatures) -> dict[str, list[set[str]]]:
    """For each function of signatures, the set of its optional parameters
    that each call in texts passes, the function named as a bare name or an
    attribute; a *args or **kwargs argument passes every one."""
    found = {name: [] for name in signatures}
    for text in texts:
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name not in signatures:
                continue
            positional, optional = signatures[name]
            if (any(isinstance(arg, ast.Starred) for arg in node.args)
                    or any(kw.arg is None for kw in node.keywords)):
                found[name].append(set(optional))
            else:
                passed = set(positional[:len(node.args)]) | {kw.arg for kw in node.keywords}
                found[name].append(passed & set(optional))
    return found


def _test_only_options(modules: dict[str, str], bench: dict[str, str],
                       exempt: set[str] = frozenset()) -> list[str]:
    """The optional parameters, as function.parameter, that no call in the
    modules or in bench passes, and those of a private function that every
    call in the modules passes; functions named in exempt are skipped."""
    signatures = {name: sig for name, sig in _signatures(modules).items()
                  if sig[1] and name not in exempt}
    package = _calls(modules.values(), signatures)
    everywhere = _calls([*modules.values(), *bench.values()], signatures)
    found = []
    for name, (_, optional) in signatures.items():
        for p in optional:
            if not any(p in passed for passed in everywhere[name]):
                found.append(f"{name}.{p}")
            elif name.startswith("_") and all(p in passed for passed in package[name]):
                found.append(f"{name}.{p}")
    return sorted(found)


def test_option_walker_sees_positional_keyword_and_starred_calls():
    modules = {
        "a.py": "def f(x, y=1, *, z=2):\n    pass\n"
                "def _g(x, y=None):\n    pass\n"
                "def _h(x, y=0):\n    pass\n"
                "def unused(x=0):\n    pass\n"
                "def entry(argv=None):\n    pass\n",
        "b.py": "from . import a\na.f(1, 2)\n_g(1, y=3)\n_h(1)\n_h(1, 2)\n_h(*args)\n",
    }
    bench = {"run.py": "f(0, z=5)\n"}
    # f.y and f.z are passed, _g's default is never relied on, _h's is
    assert _test_only_options(modules, bench, exempt={"entry"}) == ["_g.y", "unused.x"]
    assert _test_only_options(modules, {}) == ["_g.y", "entry.argv", "f.z", "unused.x"]


def test_every_option_is_one_a_caller_sets():
    # cli.main(argv) is the console script's entry point, which passes no
    # argv; argv is there so that tests can drive the command line
    modules = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    bench = {path.name: path.read_text(encoding="utf-8") for path in sorted(BENCH.glob("*.py"))
             if not path.name.startswith("test_")}
    assert "def main(argv" in modules["cli.py"]  # the walk reads the real files
    assert _test_only_options(modules, bench, exempt={"main"}) == []
