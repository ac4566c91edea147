"""Public names: every layer's __all__ resolves, and the package's own
export list is pinned."""

import importlib

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
