"""The oracle's fixed Gauss-Legendre rule: accuracy, silence, independence."""

import ast
import warnings
from pathlib import Path

import numpy as np

from spinsphere import oracle

EDGES = np.array([0.0, np.pi / 2, np.pi])
NEAR = np.concatenate(
    [EDGES + 1e-12, EDGES - 1e-12, EDGES + 3e-13, EDGES - 3e-13, [np.nextafter(0.0, 1.0)]]
)
THETAS = np.concatenate([np.radians(np.arange(1801) / 10.0), NEAR[(NEAR >= 0) & (NEAR <= np.pi)]])


def test_matches_the_closed_form_on_a_tenth_degree_grid():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no RuntimeWarning at alpha or theta = 0
        values = oracle.sign_model_curve(THETAS)
    assert np.abs(values - (-1.0 + 2.0 * THETAS / np.pi)).max() <= 1e-14


def test_rule_integrates_the_piece_exactly():
    # the substituted weights integrate 1 and sin on [0, pi/2] to rounding
    assert abs(oracle._W.sum() - 1.0) <= 1e-15
    half = np.pi / 2
    assert abs((half * oracle._W * np.sin(half * oracle._U)).sum() - 1.0) <= 1e-15
    assert np.all((oracle._U > 0.0) & (oracle._U < 1.0))


def test_imports_only_numpy_and_errors():
    tree = ast.parse(Path(oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported == {"__future__", "numpy", ".errors"}
