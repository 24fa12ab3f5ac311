"""The compare step of ``tools/bits.py``: identical entries, and one planted difference."""

import importlib.util
from pathlib import Path

import numpy as np

_spec = importlib.util.spec_from_file_location(
    "bits", Path(__file__).resolve().parents[1] / "tools" / "bits.py")
bits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bits)


def _entries():
    rng = np.random.default_rng(5)
    return {"a/spray/7": rng.normal(size=(7, 2)), "a/gem_residual": np.array(1.5e-13),
            "b/hh_curvature": rng.normal(size=(3, 2, 2, 2, 2))}


def test_compare_all_identical():
    a = _entries()
    b = {k: v.copy() for k, v in a.items()}
    assert bits.compare(a, b) == [(k, "identical") for k in a]


def test_compare_names_a_planted_difference():
    a = _entries()
    b = {k: v.copy() for k, v in a.items()}
    b["b/hh_curvature"][2, 1, 0, 1, 1] += 0.25
    a["a/spray/7"][4, 0] = 0.0
    b["a/spray/7"][4, 0] = -0.0  # equal as floats, not as bits
    rows = dict(bits.compare(a, b))
    assert rows["a/gem_residual"] == "identical"
    assert rows["b/hh_curvature"].startswith(
        "1 of 48 differ: max abs 2.500e-01 at (2, 1, 0, 1, 1), max rel")
    assert rows["b/hh_curvature"].endswith("at (2, 1, 0, 1, 1)")
    assert rows["a/spray/7"] == (
        "1 of 14 differ: max abs 0.000e+00 at (4, 0), max rel 0.000e+00 at (4, 0)")
    assert list(rows) == list(a)
