"""Output checks for one circlelab op.

`invariants` holds for every seed: exit 0, a valid JSON document that
echoes the flags the op passed, finite numbers only, and the properties
that hold by construction (|Weyl sum| <= 1, variation values >= 0,
subadditive reassembly in ``main-decomp``, a search objective >= 1 with
unit-norm coefficients).

`against_reference` compares an op's ``results`` with the reference
document recorded for the default seed.  Numeric leaves must agree within
REL_TOL (relative) or ABS_TOL (absolute); every other leaf must be equal.
The coefficient search accepts or rejects a step by comparing two floats,
so a last-bit change can move its path: for ``search_coefficients`` and
``counterexample_eta`` only the objective (within OBJECTIVE_REL_TOL) and
the unit norm of the coefficients are compared, not the coefficients nor
the eta values they lead to.
"""

from __future__ import annotations

import json
import math

REL_TOL = 1e-9
ABS_TOL = 1e-12
OBJECTIVE_REL_TOL = 1e-4
NORM_TOL = 1e-9

PATH_DEPENDENT = {"search_coefficients": ("coefficients",),
                  "counterexample_eta": ("coefficients", "eta_sup", "eta_rms")}


def _leaves(obj, path=""):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaves(v, f"{path}.{k}")
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _leaves(v, f"{path}[{i}]")
    else:
        yield path, obj


def _echo_matches(echoed, text: str) -> bool:
    if isinstance(echoed, bool) or not isinstance(echoed, (int, float)):
        return echoed == text
    return echoed == float(text)


def _flags(argv):
    """(dest, text) for each ``--flag value`` pair of an op's argv."""
    for flag, text in zip(argv[1::2], argv[2::2]):
        yield flag[2:].replace("-", "_"), text


def _unit_norm(coefficients) -> bool:
    return abs(math.sqrt(sum(c * c for c in coefficients)) - 1.0) <= NORM_TOL


def _result_problems(entry) -> list:
    name = entry.get("name")
    value = entry.get("value")
    problems = []
    if name == "weyl_sum":
        if math.hypot(value["re"], value["im"]) > 1.0 + ABS_TOL:
            problems.append("|weyl sum| > 1")
    if name == "average_variation" and value < 0:
        problems.append("negative variation value")
    if any(v < 0 for v in entry.get("values", [])):
        problems.append(f"{name}: negative value")
    if "reassembly" in entry:
        lhs, rhs = entry["reassembly"]["lhs"], entry["reassembly"]["rhs"]
        if lhs > rhs * (1.0 + REL_TOL):
            problems.append(f"reassembly lhs {lhs} > rhs {rhs}")
    if name in PATH_DEPENDENT:
        if value["objective"] < 1.0 - ABS_TOL:
            problems.append(f"objective {value['objective']} < 1")
        if not _unit_norm(value["coefficients"]):
            problems.append("coefficients not of unit norm")
    if name == "counterexample_eta" and not \
            0 <= value["eta_rms"] <= value["eta_sup"] * (1.0 + REL_TOL):
        problems.append("eta_rms outside [0, eta_sup]")
    return problems


def invariants(argv, code: int, stdout: bytes):
    """(problems, document) for one op run; document is None if unusable."""
    if code != 0:
        return [f"exit code {code}"], None
    try:
        doc = json.loads(stdout)
        config, results = doc["config"], doc["results"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"invalid document: {exc!r}"], None
    if not isinstance(config, dict) or not isinstance(results, list):
        return ["invalid document: config or results malformed"], None
    problems = []
    if config.get("command") != argv[0]:
        problems.append(f"config command {config.get('command')!r}")
    for dest, text in _flags(argv):
        if dest not in config or not _echo_matches(config[dest], text):
            problems.append(f"config does not echo {dest}={text}")
    for path, leaf in _leaves(results):
        if leaf is None or (isinstance(leaf, float)
                            and not math.isfinite(leaf)):
            problems.append(f"non-finite number at results{path}")
    if problems:
        return problems, doc
    for entry in results:
        try:
            problems.extend(_result_problems(entry))
        except (AttributeError, KeyError, TypeError) as exc:
            problems.append(f"unexpected result layout: {exc!r}")
    return problems, doc


def _close(a, b, rel) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), ABS_TOL)


def _strip_path_dependent(results):
    out = []
    for entry in results:
        drop = PATH_DEPENDENT.get(entry.get("name"), ())
        if drop:
            value = {k: v for k, v in entry["value"].items() if k not in drop}
            entry = {**entry, "value": value}
        out.append(entry)
    return out


def against_reference(results, reference) -> list:
    """Problems found comparing an op's results with its reference results."""
    got = list(_leaves(_strip_path_dependent(results)))
    want = list(_leaves(_strip_path_dependent(reference)))
    if [p for p, _ in got] != [p for p, _ in want]:
        return ["result structure differs from the reference"]
    problems = []
    for (path, a), (_, b) in zip(got, want):
        numeric = all(isinstance(x, (int, float)) and not isinstance(x, bool)
                      for x in (a, b))
        rel = OBJECTIVE_REL_TOL if path.endswith(".objective") else REL_TOL
        if numeric and not _close(a, b, rel):
            problems.append(f"results{path}: {a!r} != reference {b!r}")
        elif not numeric and a != b:
            problems.append(f"results{path}: {a!r} != reference {b!r}")
    return problems
