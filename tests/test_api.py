"""Public names and imports: every layer's __all__ resolves, the
package's own export list is pinned, and every import is declared."""

import ast
import importlib
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
