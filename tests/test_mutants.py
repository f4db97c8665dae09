"""Mutation catch matrix: each row breaks one function of the lab and names
the acceptance criteria that must then fail, at quick scale and the pinned
seed.

A mutation replaces the function on every ``whirly_lab`` module that binds
it, so a caller that imported the function by name runs the mutant too.
Marginals fails unmutated at quick scale, so it takes no part here.
"""

import math
import sys

import numpy as np
import pytest

import whirly_lab.sets as sets_module
import whirly_lab.tree as tree_module
from whirly_lab import ACCEPTANCE_SEED, CRITERIA

SCALE = 0.1
CHECKED = tuple(c for c in CRITERIA if c.key != "marginals")


def _normals_times_1_1(original):
    def mutant(gen, shape, out=None):
        drawn = original(gen, shape, out)
        drawn *= 1.1
        return drawn

    return mutant


def _innovations_times(factor):
    def wrap(original):
        return lambda parent, innovation: original(parent, innovation * factor)

    return wrap


def _union_for_difference(original):
    return lambda a, b: sets_module.boolean_combine("union", [a, b])


def _first_innovation_reused(original):
    # The innovation path refines one level vector once per bit; the mutant
    # hands every later bit the first bit's innovation.
    first = {}

    def mutant(parent, innovation):
        if first.get("parent") is not parent:
            first.update(parent=parent, innovation=innovation.copy())
        return original(parent, first["innovation"])

    return mutant


def _dilation_times_1_3(original):
    def mutant(radii, centers, scale=1.0, shifts=0.0):
        a = math.sqrt(scale * scale - 1.0)
        return original(radii, centers, math.hypot(1.0, 1.3 * a), 1.3 * shifts)

    return mutant


def _siblings_halved(original):
    return lambda child: (child[..., 0::2] + child[..., 1::2]) / 2.0


# (id, module, name, mutant factory, {criterion key: outcome}); an outcome
# is "fails", or "raises <message>" for a criterion that raises ValueError.
ROWS = [
    ("none", None, None, None, {}),
    (
        "normals-x1.1", tree_module, "standard_complex", _normals_times_1_1,
        dict.fromkeys(("estimator", "convolution", "positivity", "sharpness", "engineering"), "fails"),
    ),
    (
        "innovations-x1.1", tree_module, "refine", _innovations_times(1.1),
        dict.fromkeys(("identities", "independence"), "fails"),
    ),
    ("difference-is-union", sets_module, "symmetric_difference", _union_for_difference, {"continuity": "fails"}),
    (
        "nan-innovations", tree_module, "refine", _innovations_times(np.nan),
        {
            "identities": "raises averaging constraint violated at level 0",
            "independence": "fails",
            "whirly": "fails",
        },
    ),
    (
        "one-innovation-for-every-bit", tree_module, "refine", _first_innovation_reused,
        dict.fromkeys(("independence", "whirly"), "fails"),
    ),
    ("dilation-a-x1.3", tree_module, "disk_product_mass", _dilation_times_1_3, {"positivity": "fails"}),
    (
        "siblings-averaged-by-half", tree_module, "_coarsen", _siblings_halved,
        {"identities": "raises averaging constraint violated at level 0"},
    ),
    (
        "disk-mass-nan", tree_module, "disk_mass", lambda original: lambda radius, center=0.0: math.nan,
        {"continuity": "raises report fields not finite: observed.annulus_mass", "engineering": "fails"},
    ),
]


def _patch_everywhere(monkeypatch, module, name, mutant):
    original = getattr(module, name)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.split(".")[0] == "whirly_lab" and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, mutant)


def _outcomes() -> dict[str, str]:
    outcomes = {}
    for criterion in CHECKED:
        try:
            if not criterion.run(seed=ACCEPTANCE_SEED, scale=SCALE).passed:
                outcomes[criterion.key] = "fails"
        except ValueError as exc:
            outcomes[criterion.key] = f"raises {exc}"
    return outcomes


@pytest.mark.parametrize("module, name, make, expected", [row[1:] for row in ROWS], ids=[row[0] for row in ROWS])
def test_mutation_is_caught(monkeypatch, module, name, make, expected):
    if module is not None:
        _patch_everywhere(monkeypatch, module, name, make(getattr(module, name)))
    assert _outcomes() == expected
