"""bench/write_bench.py: the summaries, pair counts and line counts it
writes; bench/kernels.py: what it times and how it reports it;
bench/never_run.py: which statements it counts as never run."""

import argparse
import importlib.util
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import kernels  # noqa: E402
import never_run  # noqa: E402
import write_bench  # noqa: E402

METRICS = {"wall_s": {"name": "wall_s", "unit": "s", "better": "lower"},
           "ok_frac": {"name": "ok_frac", "unit": "ratio",
                       "better": "higher"}}


def pair(parent_wall, change_wall, parent_ok=1.0, change_ok=1.0):
    return {"parent": {"metrics": {"wall_s": parent_wall,
                                   "ok_frac": parent_ok}},
            "change": {"metrics": {"wall_s": change_wall,
                                   "ok_frac": change_ok}}}


def test_summary_median_and_quartiles():
    s = write_bench.summary([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (s["q1"], s["median"], s["q3"]) == (2.0, 3.0, 4.0)
    assert s["values"] == [4.0, 1.0, 3.0, 2.0, 5.0]
    one = write_bench.summary([7.0])
    assert one["q1"] == one["median"] == one["q3"] == 7.0


def test_pairs_won_follow_the_metric_direction():
    pairs = [pair(1.0, 0.9), pair(1.0, 1.0), pair(1.0, 1.1, 1.0, 0.5),
             pair(0.8, 0.7, 0.5, 1.0)]
    out = write_bench.compare(pairs, METRICS)
    # a tie counts for neither side
    assert out["wall_s"]["pairs_change_better"] == 2
    assert out["ok_frac"]["pairs_change_better"] == 1
    assert out["wall_s"]["pairs"] == 4
    assert out["wall_s"]["parent"]["values"] == [1.0, 1.0, 1.0, 0.8]


def test_merge_only_the_same_commits(tmp_path):
    path = tmp_path / "BENCH.json"
    first = {"commands": [{"argv": ["a"]}], "commits": {"parent": "p",
                                                        "change": "c"},
             "workloads": {"decomp": {"0": {"x": 1}}}, "provenance": {}}
    path.write_text(json.dumps(first))
    more = {"commands": [{"argv": ["b"]}], "commits": first["commits"],
            "workloads": {"decomp": {"11": {"x": 2}}, "weyl": {"0": {}}},
            "provenance": {}}
    doc = write_bench.merged(str(path), more)
    assert doc["workloads"] == {"decomp": {"0": {"x": 1}, "11": {"x": 2}},
                                "weyl": {"0": {}}}
    assert [c["argv"] for c in doc["commands"]] == [["a"], ["b"]]
    with pytest.raises(SystemExit, match="other commits"):
        write_bench.merged(str(path), {**more,
                                       "commits": {"parent": "p",
                                                   "change": "d"}})


def test_merge_refuses_another_provenance_or_a_held_seed(tmp_path):
    path = tmp_path / "BENCH.json"
    prov = {"parent": {"numpy": "2.4.6"}, "change": {"numpy": "2.4.6"}}
    first = {"commands": [{"argv": ["a"]}], "commits": {"parent": "p",
                                                        "change": "c"},
             "workloads": {"decomp": {"0": {"x": 1}}}, "provenance": prov}
    path.write_text(json.dumps(first))
    other = {"parent": prov["parent"], "change": {"numpy": "2.5.0"}}
    with pytest.raises(SystemExit, match="another provenance"):
        write_bench.merged(str(path), {**first, "provenance": other,
                                       "workloads": {"weyl": {"0": {}}}})
    with pytest.raises(SystemExit, match="already holds decomp at seed 0"):
        write_bench.merged(str(path), {**first,
                                       "workloads": {"decomp": {"0": {}}}})
    # nothing of a refused merge reached the file
    assert json.loads(path.read_text()) == first


def test_src_lines_counts_the_package_modules(tmp_path):
    # newlines, as `wc -l` counts them, of src/circlelab/*.py only
    pkg = tmp_path / "src" / "circlelab"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3\nno_final_newline = 4")
    (pkg / "notes.txt").write_text("1\n2\n3\n")
    (pkg / "sub" / "c.py").write_text("w = 5\n")
    (tmp_path / "src" / "setup.py").write_text("v = 6\n")
    assert write_bench.src_lines(str(tmp_path)) == 3
    assert write_bench.src_lines(str(tmp_path / "missing")) == 0


def test_each_side_records_its_src_lines(tmp_path, monkeypatch):
    lines = {"p": 5, "c": 3}

    def checkout(rev, dest):
        pkg = Path(dest) / "src" / "circlelab"
        pkg.mkdir(parents=True)
        (pkg / "m.py").write_text("pass\n" * lines[rev])
        return rev * 40

    def run_once(tree, workload, seed, seconds):
        return {"metrics": {"wall_s": 1.0, "ok_frac": 1.0}, "failed": 0,
                "host": {"host_factor": 1.0},
                "provenance": {"git_commit": tree, "numpy": "2.4.6"},
                "ops": [{"argv": ["smooth"], "wall_s": 0.5}]}

    monkeypatch.setattr(write_bench, "checkout", checkout)
    monkeypatch.setattr(write_bench, "run_once", run_once)
    args = argparse.Namespace(parent="p", change="c")
    doc = write_bench.measure(args, [], str(tmp_path), METRICS, ["decomp"],
                              [0], 30)
    assert doc["src_lines"] == {"parent": 5, "change": 3}
    assert doc["commits"] == {"parent": "p" * 40, "change": "c" * 40}
    op = doc["workloads"]["decomp"]["0"]["op_raw_wall_s"]
    assert op == [{"argv": ["smooth"],
                   "parent": write_bench.summary([0.5] * write_bench.PAIRS),
                   "change": write_bench.summary([0.5] * write_bench.PAIRS)}]


def test_tier1_is_timed_once_per_file(tmp_path, monkeypatch):
    # the first invocation for a file times tier-1; one that extends the
    # file keeps its record and times nothing
    asked = []

    def measure(args, argv, workdir, metrics, workloads, seeds, seconds,
                with_tier1=False):
        asked.append(with_tier1)
        doc = {"commands": [{"argv": argv}], "provenance": {},
               "commits": {"parent": "p", "change": "c"},
               "workloads": {workloads[0]: {"0": {}}}}
        if with_tier1:
            doc["tier1"] = {"parent": {"wall_s": 2.0},
                            "change": {"wall_s": 1.0}}
        return doc

    monkeypatch.setattr(write_bench, "measure", measure)
    out = tmp_path / "BENCH.json"
    for workload in ("decomp", "weyl"):
        assert write_bench.main(["--parent", "p", "--change", "c", "--out",
                                 str(out), "--workload", workload,
                                 "--workdir", str(tmp_path)]) == 0
    assert asked == [True, False]
    doc = json.loads(out.read_text())
    assert doc["tier1"] == {"parent": {"wall_s": 2.0},
                            "change": {"wall_s": 1.0}}
    assert set(doc["workloads"]) == {"decomp", "weyl"}


def test_tier1_runs_the_trees_tests_on_its_src(tmp_path):
    # a tree whose one test imports a module from the tree's own src
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "probe.py").write_text("VALUE = 7\n")
    (tmp_path / "tests").mkdir()
    (tmp_path / "tests" / "test_probe.py").write_text(
        "import probe\n\n\ndef test_value():\n    assert probe.VALUE == 7\n")
    out = write_bench.tier1(str(tmp_path))
    assert out["exit"] == 0 and out["wall_s"] > 0
    assert out["summary"].startswith("1 passed")


def test_tier1_runs_on_the_repositorys_git_dir(tmp_path, monkeypatch):
    # the tree, an extraction with no .git, finds the repository that
    # write_bench runs from, as test_checkout_is_compiled needs
    monkeypatch.delenv("GIT_DIR", raising=False)
    repo = tmp_path / "repo"
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    git_dir = subprocess.run(["git", "rev-parse", "--absolute-git-dir"],
                             cwd=repo, check=True, capture_output=True,
                             text=True).stdout.strip()
    monkeypatch.setattr(write_bench, "ROOT", str(repo))
    tree = tmp_path / "tree"
    (tree / "tests").mkdir(parents=True)
    (tree / "tests" / "test_git.py").write_text(
        "import subprocess\n\n\ndef test_git_dir():\n"
        "    out = subprocess.run(['git', 'rev-parse', '--absolute-git-dir'],"
        "\n                         capture_output=True, text=True)\n"
        f"    assert out.stdout.strip() == {git_dir!r}\n")
    out = write_bench.tier1(str(tree))
    assert out["summary"].startswith("1 passed")


def test_run_once_keeps_each_ops_median_raw_wall(monkeypatch):
    # the last two stdout lines of perfbench/run.py: the detail line, with
    # each op's raw walls, and the result line
    detail = {"ops": [{"argv": ["counterexample", "--L", "3"],
                       "walls_s": [0.3, 0.1, 0.2], "runs": 3},
                      {"argv": ["smooth"], "walls_s": [0.7, 0.5],
                       "runs": 2}],
              "host": {"host_factor": 1.1}, "provenance": {"numpy": "x"}}
    result = {"metrics": {"wall_s": {"value": 2.0, "unit": "s"}},
              "correct": True, "attempted": 5, "failed": 0}
    out = "ladder wall_s 2.0 s\n" + json.dumps(detail) + "\n" + \
        json.dumps(result) + "\n"

    def run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, stdout=out)

    monkeypatch.setattr(write_bench.subprocess, "run", run)
    got = write_bench.run_once("tree", "ladder", 0, 30)
    assert got["ops"] == [{"argv": ["counterexample", "--L", "3"],
                           "wall_s": 0.2},
                          {"argv": ["smooth"], "wall_s": 0.6}]
    assert got["metrics"] == {"wall_s": 2.0}


def test_op_walls_match_ops_by_position_and_argv():
    def run(*walls, argv=("a", "b")):
        return {"ops": [{"argv": [name], "wall_s": w}
                        for name, w in zip(argv, walls)]}

    pairs = [{"parent": run(1.0, 2.0), "change": run(0.5, 2.0)},
             {"parent": run(3.0, 4.0), "change": run(1.5, 4.0,
                                                     argv=("a", "c"))}]
    out = write_bench.op_walls(pairs)
    assert [op["argv"] for op in out] == [["a"], ["b"], ["c"]]
    assert out[0]["parent"]["median"] == 2.0
    assert out[0]["change"]["values"] == [0.5, 1.5]
    # an op one side ran in a pair the other did not keeps its own runs
    assert out[1]["change"]["values"] == [2.0]
    assert "parent" not in out[2] and out[2]["change"]["values"] == [4.0]


def test_kernel_timings_reset_outside_each_timed_call(monkeypatch):
    clock = iter(range(100))
    monkeypatch.setattr(kernels.time, "perf_counter", lambda: next(clock))
    calls = []
    secs = kernels.timings(lambda: calls.append("run"), 3,
                           lambda: calls.append("reset"))
    # one untimed call, then three timed ones, each after its reset
    assert calls == ["reset", "run"] * 4
    assert secs == [1, 1, 1]


def test_kernel_summary_per_unit_of_work():
    s = kernels.summary([3e-3, 1e-3, 2e-3], 1000, "cell")
    assert (s["q1_s"], s["median_s"], s["q3_s"]) == (1.5e-3, 2e-3, 2.5e-3)
    assert s["ns_per_cell"] == pytest.approx(2000.0)
    assert s["cells"] == 1000 and s["repeats"] == 3


SYNTHETIC = '''"""Module docstring."""


def f(x):
    """Function docstring."""
    if x > 0:
        return 1
    elif x < 0:
        raise ValueError(
            "negative")
    return 0


@staticmethod
def g():
    pass
'''


def test_statements_skip_docstrings_and_start_at_decorators():
    assert never_run.statements(SYNTHETIC) == [
        (4, 11), (6, 10), (7, 7), (8, 10), (9, 10), (11, 11), (14, 16),
        (16, 16)]


def test_a_statement_ran_if_any_of_its_lines_did():
    # the if ran through its body; the elif, its raise, the last return
    # and g's body did not; docstrings are never listed
    assert never_run.never_run(SYNTHETIC, {4, 7, 14}) == [8, 9, 11, 16]
    assert never_run.never_run(SYNTHETIC, {10}) == [7, 11, 14, 16]


def test_tracer_follows_the_traced_files_and_new_threads(tmp_path):
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC)
    before = sys.gettrace()
    with never_run.LineTracer([str(path)]) as tracer:
        spec = importlib.util.spec_from_file_location("synthetic", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert module.f(1) == 1
        # f(0) runs only on a thread, so only its tracer sees the elif
        worker = threading.Thread(target=module.f, args=(0,))
        worker.start()
        worker.join()
    assert sys.gettrace() is before
    assert never_run.report(tracer) == ["synthetic.py:9  raise ValueError(",
                                        "synthetic.py:16  pass"]


def test_kernel_pairs_alternate_and_count_wins(monkeypatch):
    # the parent runs first in even pairs; the change's lower medians win
    calls = []
    medians = {"parent": iter([3.0, 2.0, 5.0, 1.0]),
               "change": iter([2.5, 2.0, 4.0, 1.5])}

    def child(src, name, repeats):
        calls.append(src)
        return {"name": name, "kernel": "k", "median_s": next(medians[src]),
                "q1_s": 0.0, "ns_per_cell": 1.0, "cells": 4}

    monkeypatch.setattr(kernels, "run_child", child)
    (out,) = kernels.compare_trees({"parent": "parent", "change": "change"},
                                   ["dp-8192x4-r2"], 4, 3)
    assert calls == ["parent", "change", "change", "parent"] * 2
    assert out["parent"]["values"] == [3.0, 2.0, 5.0, 1.0]
    assert out["pairs_change_better"] == 2 and out["pairs"] == 4
    assert out["name"] == "dp-8192x4-r2" and out["cells"] == 4
    assert "ns_per_cell" not in out and "q1_s" not in out


def test_kernel_one_side_lacks(monkeypatch):
    # a kernel only the change has keeps the change's runs and no count
    monkeypatch.setattr(kernels, "run_child", lambda src, name, repeats:
                        None if src == "parent" else
                        {"name": name, "median_s": 1.0})
    (out,) = kernels.compare_trees({"parent": "parent", "change": "change"},
                                   ["chain-dp-8192x5-r2"], 2, 3)
    assert "parent" not in out and out["change"]["values"] == [1.0, 1.0]
    assert "pairs_change_better" not in out


@pytest.mark.parametrize("flags", [["--src", "."], ["--parent", ".",
                                                    "--change", "src"],
                                    ["--parent", "src", "--change", "."]])
def test_a_checkout_root_is_refused_before_any_child(flags, monkeypatch,
                                                     capsys):
    # the repository's root holds src/, not the package: one line, exit 2,
    # and no kernel timed in this process or a child
    def never(*args):
        raise AssertionError("a kernel ran")

    monkeypatch.chdir(Path(__file__).resolve().parents[1])
    monkeypatch.setattr(kernels, "run_child", never)
    monkeypatch.setattr(kernels, "time_kernels", never)
    assert kernels.main(flags) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "holds no circlelab package" in err


def test_every_kernel_is_named_and_set_up():
    # the search, chain-mode and entropy kernels beside the DP shapes, each
    # set up from this tree (nothing is timed here)
    assert {"chain-dp-8192x5-r2", "search-L4-200-2", "search-L5-100-2",
            "entropy"} <= set(kernels.KERNELS)
    for name, (setup, args) in kernels.KERNELS.items():
        if name.startswith(("chain", "search", "entropy")):
            fn, reset, work, unit, fields = setup(*args)
            assert callable(fn) and work > 0 and fields["kernel"]


def test_entropy_kernel_runs_the_spectrum_op():
    # the spectrum workload's entropy op: 16 frequencies at the CLI's
    # default sigma, r and trials, here at seed 0
    setup, args = kernels.KERNELS["entropy"]
    fn, reset, work, unit, fields = setup(*args)
    assert reset is None and (work, unit) == (1, "run")
    assert {k: fields[k] for k in ("num_freqs", "sigma", "r", "seed")} == {
        "num_freqs": 16, "sigma": 2.0, "r": 3.0, "seed": 0}
    assert fields["kernel"] == "verify_entropy"


def test_projections_kernel_is_one_entropy_trial():
    # the spectrum op's six masks on M = 2^18, decimated, at r = 3
    setup, args = kernels.KERNELS["projections"]
    fn, reset, work, unit, fields = setup(*args)
    assert reset is None and (work, unit) == (6 << 18, "point")
    assert fields == {"kernel": "multiplier_variation", "S": 6,
                      "M": 1 << 18, "r": 3.0, "decimated": True}
    assert fn() > 0


def test_checkout_is_compiled(tmp_path):
    # every module of the extracted commit has its bytecode before a run
    dest = tmp_path / "tree"
    commit = write_bench.checkout("HEAD", str(dest))
    assert len(commit) == 40
    torus = dest / "src" / "circlelab" / "torus.py"
    assert torus.exists()
    assert list((torus.parent / "__pycache__").glob("torus.*.pyc"))
