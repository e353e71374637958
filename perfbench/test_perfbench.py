"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json

import numpy as np
import pytest

import checks
import run
import spans
import workloads

EXIT_3_OP = ["counterexample", "--L", "2", "--R", "60"]
SMALL_OP = ["weyl-sum", "--poly", "0,0,1", "--t", "1000", "--alpha", "2/7"]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed_fixes_the_ops(name):
    assert workloads.ops(name, 3) == workloads.ops(name, 3)
    assert workloads.ops(name, 3) != workloads.ops(name, 4)


def test_reference_covers_the_default_seed():
    for name in workloads.NAMES:
        refs = run.load_reference(name)
        assert set(refs) == {tuple(op) for op in
                             workloads.ops(name, run.DEFAULT_SEED)}


def _measure(monkeypatch, tmp_path, ops, trace=False, corrupt=False):
    monkeypatch.setattr(workloads, "ops", lambda name, seed: ops)
    if corrupt:
        spawn = run.spawn

        def corrupted(*args, **kwargs):
            op = spawn(*args, **kwargs)
            op.stdout = op.stdout.replace(b'"results"', b'"resul')
            return op

        monkeypatch.setattr(run, "spawn", corrupted)
    return run.measure("weyl", 1, 0.0, trace, str(tmp_path))["result"]


def test_exit_3_op_counts_as_failed(monkeypatch, tmp_path):
    result = _measure(monkeypatch, tmp_path, [EXIT_3_OP, SMALL_OP])
    assert (result["attempted"], result["failed"]) == (2, 1)
    assert not result["correct"]
    assert result["metrics"]["ok_frac"]["value"] == 0.5


def test_corrupted_document_counts_as_failed(monkeypatch, tmp_path):
    result = _measure(monkeypatch, tmp_path, [SMALL_OP], corrupt=True)
    assert (result["attempted"], result["failed"]) == (1, 1)


def test_traced_run_passes_its_self_check(monkeypatch, tmp_path):
    result = _measure(monkeypatch, tmp_path, [SMALL_OP], trace=True)
    assert (result["attempted"], result["failed"]) == (2, 0)
    assert set(result["metrics"]) == set(run.PER_LAYER)
    assert result["metrics"]["expsum.phase_terms"]["value"] == 1000


def _doc(results, command="search-coeffs", L=3):
    return json.dumps({"config": {"command": command, "L": L},
                       "results": results}).encode()


def _search(coefficients, objective):
    return [{"name": "search_coefficients",
             "value": {"coefficients": coefficients, "objective": objective}}]


def test_search_path_is_not_compared():
    ref = _search([1.0, 0.0, 0.0], 1.25)
    got = _search([0.6, 0.8, 0.0], 1.25 * (1 + 1e-7))
    assert checks.against_reference(got, ref) == []
    assert checks.against_reference(_search([1.0, 0.0, 0.0], 1.3), ref)


def test_invariants_catch_broken_results():
    argv = ["search-coeffs", "--L", "3"]
    problems, _ = checks.invariants(argv, 0, _doc(_search([0.6, 0.8], 1.1)))
    assert problems == []
    problems, _ = checks.invariants(argv, 0, _doc(_search([0.6, 0.6], 1.1)))
    assert problems == ["coefficients not of unit norm"]
    problems, _ = checks.invariants(argv, 0, _doc(_search([1.0], 0.9)))
    assert problems == ["objective 0.9 < 1"]
    problems, _ = checks.invariants(argv, 0, _doc(_search([1.0], 1.0), L=4))
    assert problems == ["config does not echo L=3"]
    problems, _ = checks.invariants(argv, 0, _doc(_search([1.0], None)))
    assert problems == ["non-finite number at results[0].value.objective"]


def _span_file(tmp_path, start, end, parent):
    path = str(tmp_path / "spans.npz")
    np.savez(path, op=np.int64(0), name=np.zeros(len(start), np.int32),
             start=np.asarray(start, float), end=np.asarray(end, float),
             parent=np.asarray(parent, np.int64))
    return path


def test_nesting_check_catches_bad_spans(tmp_path):
    good = _span_file(tmp_path, [0, 1, 3, 3.5], [10, 2, 5, 4], [-1, 0, 0, 2])
    assert spans.nesting_problems(good) == []
    overlap = _span_file(tmp_path, [0, 1, 1.5], [10, 2, 5], [-1, 0, 0])
    assert spans.nesting_problems(overlap) == ["sibling spans overlap"]
    outside = _span_file(tmp_path, [0, 1, 5], [10, 4, 11], [-1, 0, 0])
    assert spans.nesting_problems(outside) == [
        "a span lies outside its parent"]
