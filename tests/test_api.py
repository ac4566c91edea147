"""Public names and imports: every layer's __all__ resolves, the
package's own export list is pinned, and every import is declared."""

import ast
import importlib
import itertools
import pathlib
import sys

import pytest

import elastislab

LAYERS = ("spectral", "geometry", "elliptic", "dn", "dynamics", "stability",
          "cli", "snapshots", "errors")

PACKAGE_ALL = [
    "CeilingViolated",
    "ConfigInvalid",
    "DegenerateMap",
    "ElastislabError",
    "FlowState",
    "StabilityLost",
    "difference_energy",
    "energy_es_eps",
    "evo_residual",
    "invariant_report",
    "prepare_initial_data",
    "stability_report",
    "stable_dt",
    "step",
]


@pytest.mark.parametrize("layer", LAYERS)
def test_layer_all_resolves(layer):
    # tools that walk __all__ look every name up without a default
    module = importlib.import_module(f"elastislab.{layer}")
    names = list(getattr(module, "__all__", ()))
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(module, name)]
    assert not missing, f"elastislab.{layer}.__all__ names {missing}"


def test_package_all_is_pinned():
    assert elastislab.__all__ == PACKAGE_ALL
    assert all(hasattr(elastislab, name) for name in PACKAGE_ALL)


ROOT = pathlib.Path(__file__).resolve().parents[1]
TEST_PACKAGES = {"pytest", "hypothesis", "elastislab", "conftest"}


def _imported_packages(path):
    """Top-level packages of the absolute imports in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


@pytest.mark.parametrize("folder, extra", [
    ("src/elastislab", set()),
    ("tests", TEST_PACKAGES),
], ids=["src", "tests"])
def test_imports_are_declared(folder, extra):
    # numpy is the one runtime dependency; tests add only the [test] extra
    allowed = set(sys.stdlib_module_names) | {"numpy"} | extra
    found = {
        path.name: sorted(_imported_packages(path) - allowed)
        for path in sorted((ROOT / folder).glob("*.py"))
    }
    assert not {name: bad for name, bad in found.items() if bad}


# Defaulted parameters that only the acceptance battery sets, each with the
# test that needs a value other than the default.
TEST_ONLY_OPTIONS = {
    ("dn", "apply_dn", "tol"): "test_03 (flux derivatives at 1e-12)",
    ("dynamics", "evo_residual", "ablate"): "test_06 (term ablations)",
    ("stability", "stability_report", "enforce"): "test_08 (typed halt)",
}


def _src_functions():
    """(module, call name, function node, positional parameters) for every
    top-level function and method in src/; a class's __init__ is called by
    the class name, and a method's first parameter is dropped."""
    for path in sorted((ROOT / "src/elastislab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                funcs = [(node.name, node, 0)]
            elif isinstance(node, ast.ClassDef):
                funcs = [(node.name if item.name == "__init__" else item.name,
                          item, 1)
                         for item in node.body
                         if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for call, fn, skip in funcs:
                a = fn.args
                yield (path.stem, call, fn,
                       [p.arg for p in a.posonlyargs + a.args][skip:])


def _defaulted_parameters():
    """(module, function, parameter, call name, positional parameters) for
    every defaulted parameter of a top-level function or method in src/."""
    out = []
    for module, call, fn, positional in _src_functions():
        a = fn.args
        names = positional[len(positional) - len(a.defaults):]
        names += [k.arg for k, d in zip(a.kwonlyargs, a.kw_defaults)
                  if d is not None]
        out += [(module, fn.name, p, call, positional) for p in names]
    return out


def _call_settings(folders):
    """Call name -> keywords passed and positional indices filled by
    some call of that name."""
    found = {}
    for folder in folders:
        for path in sorted((ROOT / folder).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                plain = itertools.takewhile(
                    lambda arg: not isinstance(arg, ast.Starred), node.args)
                used = found.setdefault(name, set())
                used.update(k.arg for k in node.keywords if k.arg)
                used.update(range(len(list(plain))))
    return found


def test_every_option_has_a_user():
    # an option that only tests set doubles the configurations to cover
    # for no user path: src/ or benchmark/ must set each one
    calls = _call_settings(["src/elastislab", "benchmark"])
    test_only = set()
    for module, function, param, call, positional in _defaulted_parameters():
        used = calls.get(call, set())
        if param in used or (param in positional
                             and positional.index(param) in used):
            continue
        test_only.add((module, function, param))
    assert test_only == set(TEST_ONLY_OPTIONS)


# Functions that README documents for readers of the run command's
# snapshot artifact, though no user path calls them.
DOCUMENTED_READERS = {("snapshots", "read_snapshot"),
                      ("snapshots", "Snapshot.matches_map")}


def _names(*nodes):
    """Bare names and attribute names that some source refers to."""
    return {getattr(sub, "id", getattr(sub, "attr", None))
            for node in nodes for sub in ast.walk(node)}


def test_every_function_has_a_user():
    # a function that only tests call is code to keep working for no user
    # path: src/ must reach each one by name from cli.main, the package's
    # __all__, benchmark/ or the acceptance battery.  A class runs its body
    # outside plain methods (dunders included); module statements run on
    # import.
    bodies, functions, on_import = {}, set(), []
    for path in sorted((ROOT / "src/elastislab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef):
                functions.add((path.stem, node.name))
                bodies[path.stem, node.name] = [node]
            elif isinstance(node, ast.ClassDef):
                own = node.bases + node.decorator_list
                bodies[path.stem, node.name] = own
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("__")):
                        key = (path.stem, f"{node.name}.{item.name}")
                        functions.add(key)
                        bodies[key] = [item]
                    else:
                        own.append(item)
            else:
                on_import.append(node)
    roots = [ast.parse(path.read_text())
             for path in [*(ROOT / "benchmark").glob("*.py"),
                          ROOT / "tests/test_acceptance.py"]]
    todo = {"main", *elastislab.__all__} | _names(*on_import, *roots)
    reached = set()
    while todo:
        name = todo.pop()
        for key, nodes in bodies.items():
            if key not in reached and key[1].split(".")[-1] == name:
                reached.add(key)
                todo |= _names(*nodes)
    assert functions - reached == DOCUMENTED_READERS


# Required parameters that every src/ and benchmark/ call fills with one
# literal, each with the reason the parameter stays.
FIXED_BY_CALLERS = {
    ("cli", "_smooth_flow", "eps"):
        "conftest.sample_flow varies it from 0.0 to 0.02",
}


def _literal(node):
    """repr of a literal argument, or None for any other expression."""
    try:
        return repr(ast.literal_eval(node))
    except ValueError:
        return None


def test_no_parameter_is_a_constant():
    # a required parameter that every call sets to one and the same
    # literal is a choice no caller makes: the value belongs in the body
    calls = {}
    for folder in ("src/elastislab", "benchmark"):
        for path in sorted((ROOT / folder).glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id",
                                   getattr(node.func, "attr", None))
                    calls.setdefault(name, []).append(node)
    fixed = set()
    for module, call, fn, positional in _src_functions():
        required = positional[:len(positional) - len(fn.args.defaults)]
        for index, param in enumerate(required):
            values = set()
            for site in calls.get(call, ()):
                given = [k.value for k in site.keywords if k.arg == param]
                if index < len(site.args) and not any(
                        isinstance(arg, ast.Starred)
                        for arg in site.args[:index + 1]):
                    given.append(site.args[index])
                values.add(_literal(given[0]) if given else None)
            if len(values) == 1 and None not in values:
                fixed.add((module, fn.name, param))
    assert fixed == set(FIXED_BY_CALLERS)


def _constants():
    """(module, name) of every upper-case name a src/ module binds at its
    top level."""
    for path in sorted((ROOT / "src/elastislab").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield path.stem, target.id


def test_every_constant_is_read():
    # a constant that no src/ code reads is the leftover of deleted code,
    # such as the stopping rules of a solver that is gone
    read = set()
    for path in sorted((ROOT / "src/elastislab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    constants = list(_constants())
    assert constants
    assert [c for c in constants if c[1] not in read] == []


# The only src/ code that may refer to np.fft: the seeded check data of cli,
# whose irfft2 draw keeps checks.json the same.
FFT_HOMES = {("cli", "_band")}


def _refers_to_fft(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute) and sub.attr == "fft":
            return True
        if isinstance(sub, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in sub.names] + [getattr(sub, "module", "")]
            if any("fft" in (name or "") for name in names):
                return True
    return False


def test_fft_has_one_home():
    # every other horizontal operator acts in the real Fourier basis of
    # spectral._to_basis; a second transform convention beside it is what
    # this pins out
    found = {(path.stem, getattr(node, "name", "<module>"))
             for path in sorted((ROOT / "src/elastislab").glob("*.py"))
             for node in ast.parse(path.read_text()).body
             if _refers_to_fft(node)}
    assert found == FFT_HOMES
