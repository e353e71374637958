"""Every name the package exports has a caller inside the package."""

import ast
from pathlib import Path

import circlelab

PACKAGE = Path(circlelab.__file__).parent

# exported names that wait for an open ROADMAP item to give them a caller
AWAITING_CALLER = {
    "approx_multiplier": "the circle-method approximant experiment",
    "exact_ladder_radius": "the L = 2..8 sweep along exact R-ladders",
    "v2_partial_sums_norm": "counterexample reporting V^2(S_m f)",
    "quadratic_gauss_row": "acceptance 03",
    "fit_power_law": "acceptance 10",
}


def exported_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def used_names():
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_export_has_a_caller():
    uncalled = exported_names() - used_names()
    assert uncalled == set(AWAITING_CALLER)
