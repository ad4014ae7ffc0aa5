"""Smoke tests of the public API as the README and the demos use it.

Each script runs in a fresh interpreter, so a broken name, signature or
constructor in the documented entry points fails here.
"""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import betta

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(path.name for path in (ROOT / "demos").glob("*.py"))


def run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def readme_snippet(heading):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split(heading, 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    assert run_python([str(ROOT / "demos" / demo)]).strip()


def test_readme_library_snippet_runs():
    lines = run_python(["-c", readme_snippet("## Library in one minute")]).splitlines()
    assert len(lines) >= 3


def test_readme_study_snippet_runs():
    lines = run_python(["-c", readme_snippet("## Monte Carlo studies")]).splitlines()
    assert lines[0] == "power"
    # One row per method at the one alpha level.
    rows = [line.split() for line in lines[1:]]
    assert sorted(row[0] for row in rows) == ["betta", "regression_on_c"]
    assert all(0.0 <= float(row[2]) <= 1.0 for row in rows)


def test_every_exported_name_resolves_once():
    assert len(betta.__all__) == len(set(betta.__all__))
    missing = [name for name in betta.__all__ if not hasattr(betta, name)]
    assert missing == []


def test_a_fit_loads_no_study_pool_or_subprocess(tmp_path):
    # Only simulate and bootstrap-se load the study module, only --workers > 1
    # the process pool and only a cmd: estimator subprocess.
    code = (
        "import sys, betta.cli; betta.cli.build_parser(); rare = sys.argv[1].split(); "
        "print(*[m for m in rare if m in sys.modules]); "
        "betta.cli.main(['fit', '--input', 'tests/data/est.csv', '--out', sys.argv[2]]); "
        "print(*[m for m in rare if m in sys.modules])"
    )
    rare = "betta.simulate concurrent.futures.process multiprocessing subprocess"
    lines = run_python(["-c", code, rare, str(tmp_path / "out")]).splitlines()
    assert lines[0] == ""
    assert lines[-1] == ""


def test_one_worker_loads_no_process_pool():
    code = (
        "import io, sys\n"
        "from betta import *\n"
        "from betta.simulate import CONTINUOUS_GRID\n"
        "pop = population_from_table(read_frequency_table(io.StringIO('1,20\\n2,10\\n5,3')))\n"
        "config = ExperimentConfig(replicates_per_dataset=6, n_datasets=4,\n"
        "    covariate_kind=CONTINUOUS_GRID, grid=(1.0, 2.0, 3.0, 4.0, 5.0, 6.0),\n"
        "    alpha_levels=(0.05,), seed=5, estimator='chao1')\n"
        "sizes = SampleSizeDistribution(observed_sizes=(200, 250))\n"
        "run_experiment(pop, sizes, config, workers=1)\n"
        "print('concurrent.futures.process' in sys.modules)\n"
    )
    assert run_python(["-c", code]).split() == ["False"]


def test_exports_load_on_first_use():
    # Run before anything else in the interpreter has imported a submodule.
    code = """
import importlib, sys
import betta
assert not [m for m in sys.modules if m.startswith("betta.")]
assert set(betta.__all__) == {"__version__", *betta._MODULE_OF}
assert set(betta.__all__) <= set(dir(betta))
assert betta.simulate is importlib.import_module("betta.simulate")
try:
    betta.no_such_name
except AttributeError as exc:
    assert "'no_such_name'" in str(exc), exc
else:
    raise AssertionError("betta.no_such_name resolved")
names = {}
exec("from betta import *", names)
for name, module in betta._MODULE_OF.items():
    assert names[name] is getattr(importlib.import_module(f"betta.{module}"), name), name
print(len(names) - 1)
"""
    # from betta import * binds every name in __all__; exec adds __builtins__.
    assert run_python(["-c", code]).split() == [str(len(betta.__all__))]


def test_benchmark_imports_resolve():
    # The benchmark under bench/ imports from the package but runs outside
    # this suite: each `import betta.<m>` and `from betta.<m> import <name>`
    # in it must still resolve.
    unresolved = []
    for path in sorted((ROOT / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                wanted = [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
                wanted = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            for module, name in wanted:
                if module.split(".")[0] != "betta":
                    continue
                try:
                    found = importlib.import_module(module)
                except ImportError:
                    found = None
                if found is None or name not in (None, "*") and not hasattr(found, name):
                    unresolved.append(f"{path.name}:{node.lineno} {module} {name or ''}".strip())
    assert unresolved == []


def test_every_exported_name_has_a_caller():
    # A name is used when the package (outside __init__.py), the README or a
    # demo mentions it on a line other than its own def or class line.
    paths = [p for p in (ROOT / "src" / "betta").glob("*.py") if p.name != "__init__.py"]
    paths += [ROOT / "README.md", *(ROOT / "demos").glob("*.py")]
    lines = [line for p in paths for line in p.read_text(encoding="utf-8").splitlines()]

    def used(name):
        word = re.compile(rf"\b{re.escape(name)}\b")
        own = re.compile(rf"\s*(def|class)\s+{re.escape(name)}\b")
        return any(word.search(line) and not own.match(line) for line in lines)

    assert [name for name in betta.__all__ if not used(name)] == []


def _callers_source():
    """The package (outside __init__.py), the README's python blocks and the demos."""
    paths = [p for p in (ROOT / "src" / "betta").glob("*.py") if p.name != "__init__.py"]
    texts = [p.read_text(encoding="utf-8") for p in [*paths, *(ROOT / "demos").glob("*.py")]]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return texts + re.findall(r"```python\n(.*?)```", readme, re.DOTALL)


def _public_callables():
    """(label, callable name, signature without self/cls) of each exported
    function and class and of each public method, classmethods included."""
    for name in betta.__all__:
        obj = getattr(betta, name)
        if inspect.isfunction(obj):
            yield name, name, inspect.signature(obj)
        elif inspect.isclass(obj) and obj.__module__.startswith("betta."):
            try:
                yield name, name, inspect.signature(obj)
            except ValueError:  # an exception class that keeps Exception's constructor
                pass
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    params = list(inspect.signature(member).parameters.values())
                    if params and params[0].name in ("self", "cls"):
                        params = params[1:]
                    yield f"{name}.{attr}", attr, inspect.Signature(params)


def test_every_default_has_a_caller():
    # A parameter with a default is set, by keyword or by position, by some
    # call of its callable's name in the package, the README or a demo;
    # otherwise the default is the only value any caller uses.
    set_by: dict[str, list[tuple[int, set[str]]]] = {}
    for text in _callers_source():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                func = node.func
                callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                n_positional = sum(not isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords if k.arg is not None}
                set_by.setdefault(callee, []).append((n_positional, keywords))

    unset = []
    for label, callee, signature in _public_callables():
        params = list(signature.parameters.values())
        for index, param in enumerate(params):
            if param.default is inspect.Parameter.empty:
                continue
            positional = param.kind in (param.POSITIONAL_ONLY, param.POSITIONAL_OR_KEYWORD)
            if not any(param.name in keywords or (positional and n > index)
                       for n, keywords in set_by.get(callee, [])):
                unset.append(f"{label}({param.name}=)")
    assert unset == []


def test_every_public_member_has_a_caller():
    # A public method, property or classmethod of an exported class is read
    # as an attribute (obj.member) by the package outside __init__.py, the
    # README's python blocks or a demo; otherwise only the tests reach it.
    read = {node.attr for text in _callers_source() for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute)}
    members = []
    for name in betta.__all__:
        obj = getattr(betta, name)
        if not (inspect.isclass(obj) and obj.__module__.startswith("betta.")):
            continue
        members += [f"{name}.{attr}" for attr, member in vars(obj).items()
                    if not attr.startswith("_")
                    and (isinstance(member, (property, classmethod, staticmethod))
                         or inspect.isfunction(member))]
    assert members
    assert [label for label in members if label.split(".", 1)[1] not in read] == []
