"""Command-line interface: documented examples, exit codes, reproducibility."""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

from circlelab.cli import _run, build_parser, main


# a small main-decomp run: scales n = 4, 5 on Z/256
NU_BASE = ["main-decomp", "--modulus", "256", "--n-min", "4", "--n-max", "5"]


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestExamples:
    def test_weyl_sum_example(self, capsys):
        code, out = run_cli(["weyl-sum", "--poly", "0,0,1", "--t", "2",
                             "--alpha", "1/2"], capsys)
        assert code == 0
        doc = json.loads(out)
        val = doc["results"][0]["value"]
        assert abs(val["re"]) < 1e-12 and abs(val["im"]) < 1e-12

    def test_variation_example(self, capsys):
        code, out = run_cli(["variation", "--values", "0,1,0,1", "--r", "2"],
                            capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["results"][0]["value"] == pytest.approx(1.7320508075688772)

    def test_variation_chain_starts_after_an_underflow(self, capsys):
        # 0, -2^-360, 2^-308 at r = 3: |f_2 - f_1|^3 = 2^-1080 underflows,
        # so the chain starts at index 2, where the power sum is last 0
        code, out = run_cli(["variation", "--values", ",".join(
            map(repr, [0.0, -2.0 ** -360, 2.0 ** -308])), "--r", "3"],
            capsys)
        assert code == 0
        assert json.loads(out)["results"][0]["optimal_subsequence"] == [2, 3]

    def test_short_variation_shows_its_blocks(self, capsys):
        # the blocks [2, 4] and [4, 8] share 4, so the flat chain repeats it
        argv = ["variation", "--values", "0,1,0,1,0", "--indices",
                "2,3,4,6,8", "--r", "2", "--flavor"]
        code, out = run_cli(argv + ["short"], capsys)
        assert code == 0
        (res,) = json.loads(out)["results"]
        assert res["block_subsequences"] == [[2, 3, 4], [4, 6, 8]]
        assert res["optimal_subsequence"] == [2, 3, 4, 4, 6, 8]
        assert res["value"] == pytest.approx(2.0)
        for flavor in ("full", "long"):
            code, out = run_cli(argv + [flavor], capsys)
            assert "block_subsequences" not in json.loads(out)["results"][0]

    def test_counterexample_dry_run(self, capsys):
        code, out = run_cli(["counterexample", "--L", "2", "--R", "14",
                             "--dry-run"], capsys)
        assert code == 0
        doc = json.loads(out)
        val = doc["results"][0]["value"]
        assert val["k"] == [8, 0]
        assert val["j"] == [2, 6]
        assert val["coupling_defects"] == [0]
        assert all(c in (0, 1) for c in val["closure_defects"])

    def test_gauss_example(self, capsys):
        code, out = run_cli(["gauss", "--poly", "0,0,1", "--frac", "1/4"],
                            capsys)
        assert code == 0
        val = json.loads(out)["results"][0]["value"]
        assert val["re"] == pytest.approx(0.5, abs=1e-12)
        assert val["im"] == pytest.approx(-0.5, abs=1e-12)

    def test_arcs_example(self, capsys):
        code, out = run_cli(["arcs", "--poly", "0,0,1", "--alpha", "0",
                             "--n", "10"], capsys)
        assert code == 0
        val = json.loads(out)["results"][0]["value"]
        assert val["kind"] == "major"
        assert val["fraction"] == "0/1"

    def test_average_runs(self, capsys):
        code, out = run_cli(["average", "--poly", "0,0,1", "--modulus", "64",
                             "--scales", "1,2,4,8", "--r", "2"], capsys)
        assert code == 0
        assert json.loads(out)["results"][0]["value"] > 0

    def test_search_coeffs_runs(self, capsys):
        code, out = run_cli(["search-coeffs", "--L", "2",
                             "--iterations", "50", "--restarts", "1"], capsys)
        assert code == 0
        val = json.loads(out)["results"][0]["value"]
        assert val["objective"] == pytest.approx(1.0, abs=0.05)

    def test_search_coeffs_zero_counts_run_no_search(self, capsys):
        # the echoed zero counts hold: the first start, the uniform vector,
        # is returned with its objective
        code, out = run_cli(["search-coeffs", "--L", "3", "--iterations", "0",
                             "--restarts", "0", "--seed", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["config"]["iterations"] == doc["config"]["restarts"] == 0
        val = doc["results"][0]["value"]
        assert val["coefficients"] == [1 / math.sqrt(3)] * 3
        assert 0.5 < val["objective"] < 1.0


class TestExitCodes:
    def test_parameter_error(self, capsys):
        code, _ = run_cli(["weyl-sum", "--poly", "0,0,1", "--t", "0",
                           "--alpha", "1/2"], capsys)
        assert code == 2

    def test_bad_rational(self, capsys):
        code, _ = run_cli(["weyl-sum", "--poly", "0,0,1", "--t", "2",
                           "--alpha", "1/0"], capsys)
        assert code == 2

    def test_bad_poly(self, capsys):
        code, _ = run_cli(["weyl-sum", "--poly", "0,0,x", "--t", "2",
                           "--alpha", "0"], capsys)
        assert code == 2

    def test_resource_error(self, capsys):
        # counterexample at a radius whose 4096 sample points of R + 64 bits
        # exceed the sample-bit budget
        code, _ = run_cli(["counterexample", "--L", "2", "--R", "300000"],
                          capsys)
        assert code == 3

    def test_budget_checked_before_search(self, capsys, monkeypatch):
        # 4096 x (262081 + 64) bits is one sample point's worth over the
        # sample-bit budget: refused before the multipliers and the search
        def never(*args, **kwargs):
            raise AssertionError("work ran before the budget")

        for name in ("search_coefficients", "fast_dyadic_quadratic_weyl",
                     "_ladder_phases"):
            monkeypatch.setattr(f"circlelab.torus.{name}", never)
        code, _ = run_cli(["counterexample", "--L", "4", "--R", "262081"],
                          capsys)
        assert code == 3

    def test_four_rung_ladder_runs(self, capsys):
        # L = 4, R = 92 leaves a tail of 2^44 terms at m = 92, which
        # Euler-Maclaurin takes
        code, out = run_cli(["counterexample", "--L", "4", "--R", "92"],
                            capsys)
        assert code == 0
        value = json.loads(out)["results"][1]["value"]
        assert 0 < value["eta_rms"] <= value["eta_sup"] < math.inf

    def test_dry_run_never_sums(self, capsys):
        code, _ = run_cli(["counterexample", "--L", "2", "--R", "60",
                           "--dry-run"], capsys)
        assert code == 0

    @pytest.mark.parametrize("argv,expect", [
        (["--R", "47", "--sample-count", "0"], 2),
        # 4096 points of R + 64 bits: over the sample-bit budget
        (["--R", "300000"], 3)])
    def test_dry_run_refuses_what_the_run_refuses(self, argv, expect,
                                                   capsys):
        assert main(["counterexample", "--L", "3", "--dry-run"] + argv) \
            == expect
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_phase_term_budget(self, capsys):
        # refused before any phase is computed or any array allocated
        code, _ = run_cli(["weyl-sum", "--t", "1000000000000000",
                           "--alpha", "1/3"], capsys)
        assert code == 3

    def test_gauss_modulus_budget(self, capsys, monkeypatch):
        # q_i = 10^11 > PHASE_TERM_BUDGET: refused before any residue
        monkeypatch.setattr("circlelab.expsum._residue_rows", None)
        code = main(["gauss", "--poly", "0,0,1", "--frac", "1/100000000000"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,expect", [
        (["average", "--modulus", "-3", "--scales", "1,2"], 2),
        (["main-decomp", "--modulus", "0"], 2),
        # 2^40: refused before any array of length M is made
        (["main-decomp", "--modulus", str(1 << 40)], 3),
        (["average", "--modulus", "64", "--scales", "1,100000000"], 3),
        # averages up to t = 2^202, refused before the scale grid is built
        (["main-decomp", "--n-min", "200", "--n-max", "201"], 3),
        # arc widths 2^-n(2 - 0.001) of 5e-324 (subnormal) and 0.0, where
        # the point 0 used to come out Minor
        (["arcs", "--alpha", "0", "--n", "537", "--delta", "0.001"], 2),
        (["arcs", "--alpha", "0", "--n", "600", "--delta", "0.001"], 2),
    ])
    def test_size_refusals(self, argv, expect, capsys):
        code = main(argv)
        assert code == expect
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        # 1024 points x 4000 scales: 8.2e9 DP cells
        ["average", "--modulus", "1024",
         "--scales", ",".join(str(n) for n in range(1, 4001))],
        # 256 points x 100000 multipliers
        ["smooth", "--N", "100000", "--a", "0.00001"],
        # 2^26 points x 6 neighbourhood scales
        ["entropy", "--num-freqs", "4096"],
    ])
    def test_dp_cell_budget(self, argv, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("an FFT ran before the DP-cell budget")

        monkeypatch.setattr("numpy.fft.fft", never)
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "DP cells" in err

    def test_entropy_modulus_budget(self, capsys, monkeypatch):
        # 257 * 2^14 points: within the DP-cell budget, over the modulus cap
        def never(*args, **kwargs):
            raise AssertionError("an FFT ran before the modulus budget")

        monkeypatch.setattr("numpy.fft.fft", never)
        assert main(["entropy", "--num-freqs", "257"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert f"modulus M={257 << 14}" in err

    def test_entropy_k_count_refusal_names_sigma(self, capsys):
        # one frequency, 3715 admissible k: the k count depends on sigma
        # and the grid factor alone, so fewer frequencies cannot help
        assert main(["entropy", "--num-freqs", "1", "--sigma", "1.001"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "raise sigma" in err

    @pytest.mark.parametrize("argv,expect", [
        # ten scales fit the budgets; the last, N = 2^22 + 1, does not
        (["average", "--modulus", str(1 << 22), "--scales",
          ",".join(str(1 << i) for i in range(10)) + f",{(1 << 22) + 1}"],
         3),
        (["average", "--modulus", "64", "--scales", "0,1"], 2),
    ])
    def test_scales_checked_before_fft(self, argv, expect, capsys,
                                       monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("an FFT ran before every scale was checked")

        monkeypatch.setattr("numpy.fft.fft", never)
        assert main(argv) == expect
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("count,expect", [
        ("0", 2), ("-1", 2), (str((1 << 22) + 1), 3)])
    def test_sample_count_checked_before_search(self, count, expect, capsys,
                                                monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("coefficient search ran before the check")

        monkeypatch.setattr("circlelab.torus.search_coefficients", never)
        assert main(["counterexample", "--L", "3", "--R", "47",
                     "--sample-count", count]) == expect
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,expect", [
        # 8192 samples x L(L-1)/2 pairs over the DP-cell budget
        (["search-coeffs", "--L", "2000"], 3),
        (["search-coeffs", "--L", "100000"], 3),
        (["search-coeffs", "--L", "3", "--iterations", "-1"], 2),
        (["search-coeffs", "--L", "3", "--restarts", "-1"], 2),
    ])
    def test_search_refused_before_phases(self, argv, expect, capsys,
                                          monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("phase matrix built before the checks")

        monkeypatch.setattr("circlelab.torus._independent_phase_matrix",
                            never)
        assert main(argv) == expect
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,expect", [
        # 2^31 trials of 256 x 64(63)/2 cells each
        (["smooth", "--N", "64", "--a", "0.05", "--trials", "2147483648"], 3),
        # 65537 starts x 201 evaluations of 8192 x 21 cells
        (["search-coeffs", "--L", "7", "--restarts", "65536"], 3),
        (["search-coeffs", "--L", "7", "--iterations", "100000000"], 3),
        # the smallest runs refused at the default counts
        (["search-coeffs", "--L", "22"], 3),
        (["smooth", "--N", "1025", "--a", "0.05"], 3),
    ])
    def test_run_cell_budget_before_any_draw(self, argv, expect, capsys,
                                             monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("drew or ran the DP before the run budget")

        for name in ("circlelab.varnorm._best_power_sums",
                     "circlelab.verify._ramp_multipliers",
                     "circlelab.torus._independent_phase_matrix"):
            monkeypatch.setattr(name, never)
        assert main(argv) == expect
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "run budget" in err

    @pytest.mark.parametrize("argv,expect", [
        # L rungs need R >= 2^L: refused before lists of L rungs are made
        (["counterexample", "--L", "9223372036854775808", "--R", "14",
          "--dry-run"], 2),
        (["counterexample", "--L", "9223372036854775808", "--R", "14"], 2),
        # sample points of R + 64 bits over the sample-bit budget, refused
        # before any tail (of 2^(R/2) terms) is formed or summed and
        # before any draw
        (["counterexample", "--L", "2", "--R",
          "99999999999999999999999"], 3),
        # tails with more than 4300 decimal digits, and more sample bits
        # than the budget admits (R = 65536 runs at 4096 samples)
        (["counterexample", "--L", "2", "--R", "65536", "--sample-count",
          "65536"], 3),
    ])
    def test_huge_ladders_refused(self, argv, expect, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("summed a tail or drew before the budget")

        for name in ("fast_dyadic_quadratic_weyl", "_ladder_phases"):
            monkeypatch.setattr(f"circlelab.torus.{name}", never)
        assert main(argv) == expect
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_ladder_of_no_rungs_refused(self, capsys):
        assert main(["counterexample", "--L", "0", "--R", "10"]) == 2
        assert capsys.readouterr() == ("", "error: L must be >= 1\n")

    def test_arcs_past_level_nine(self, capsys):
        # s_max = 25: 1/3000007 is admitted, at level 21
        code, out = run_cli(["arcs", "--n", "200", "--delta", "0.125",
                             "--alpha", "1/3000007"], capsys)
        assert code == 0
        value = json.loads(out)["results"][0]["value"]
        assert value == {"kind": "major", "fraction": "1/3000007", "s": 21,
                         "pre_interval": 0}
        # a point admitted at s = 3 is labelled as before
        code, out = run_cli(["arcs", "--n", "200", "--delta", "0.125",
                             "--alpha", "0.3"], capsys)
        assert code == 0
        assert json.loads(out)["results"][0]["value"]["s"] == 3

    def test_bad_values(self, capsys):
        code, _ = run_cli(["variation", "--values", "1,x", "--r", "2"],
                          capsys)
        assert code == 2

    def test_bad_indices(self, capsys):
        code, _ = run_cli(["variation", "--values", "1,2", "--indices", "1,a",
                           "--r", "2"], capsys)
        assert code == 2

    def test_bad_scales(self, capsys):
        code, _ = run_cli(["average", "--modulus", "64", "--scales", "1,a"],
                          capsys)
        assert code == 2

    def test_unwritable_out(self, tmp_path, capsys):
        code, _ = run_cli(["variation", "--values", "0,1", "--r", "2",
                           "--out", str(tmp_path / "missing" / "res.json")],
                          capsys)
        assert code == 2

    def test_nan_value_rejected(self, capsys):
        code, _ = run_cli(["variation", "--values", "1,nan,2", "--r", "2"],
                          capsys)
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ["variation", "--values", "1,2,3", "--r", "nan"],
        # V^inf would be the largest jump, 2; the DP's power sums give 1
        ["variation", "--values", "1,2,3", "--r", "inf"],
        ["smooth", "--N", "4", "--A", "inf", "--a", "0.5"],
        ["entropy", "--num-freqs", "4", "--sigma", "nan"],
        ["entropy", "--num-freqs", "4", "--r", "nan"],
        ["entropy", "--num-freqs", "4", "--r", "inf"],
        ["main-decomp", "--modulus", "4096", "--n-max", "9",
         "--nu-floor", "nan"],
        ["main-decomp", "--modulus", "4096", "--n-max", "9",
         "--nu-floor", "inf"],
        ["average", "--modulus", "64", "--scales", "1,2,4", "--r", "nan"],
        ["average", "--modulus", "64", "--scales", "1,2,4", "--r", "inf"],
        ["average", "--modulus", "64", "--scales", "1,2,4", "--r", "0.5"],
    ])
    def test_non_finite_rejected_before_work(self, argv, capsys,
                                             monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("an FFT ran before the parameter checks")

        monkeypatch.setattr("numpy.fft.fft", never)
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,expect", [
        (["est", "--delta", "0.5"], 2),
        (["est", "--delta", "nan"], 2),
        (["est", "--n-min", "0"], 2),
        (["est", "--n-min", "9", "--n-max", "8"], 2),
        (["est", "--samples", "3"], 2),
        # 2^28-term prefixes at n = 27 fit the budget, 2^29 at n = 28 not
        (["est", "--n-min", "27", "--n-max", "28"], 3),
        # the largest call, 64 (default) or 10^8 alphas of 2^(n_max+1)
        # terms: 2^29 and 5.1e10 terms, over the 2^28 of the budget
        (["est", "--n-min", "22", "--n-max", "22"], 3),
        (["est", "--samples", "100000000", "--n-min", "8", "--n-max", "8"],
         3),
        # 2^26 alphas of 2^2 terms fit the phase-term budget, but not the
        # alpha-byte budget: 8 bytes each, 512 MB against 2^28 bytes
        (["est", "--samples", "67108864", "--n-min", "1", "--n-max", "1"],
         3),
    ])
    def test_est_checked_before_part_one(self, argv, expect, capsys,
                                         monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a Weyl prefix ran before the checks")

        monkeypatch.setattr("circlelab.verify.weyl_sum_prefixes", never)
        monkeypatch.setattr("circlelab.verify.arc_labels", never)
        monkeypatch.setattr("numpy.random.default_rng", never)
        assert main(argv) == expect
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["average", "--modulus", "64", "--scales", "1,2,4"],
        ["entropy", "--num-freqs", "4"],
        ["smooth", "--N", "4", "--a", "0.5"],
        ["est"],
        ["main-decomp", "--modulus", "4096", "--n-max", "9"],
        ["counterexample", "--L", "2", "--R", "14"],
        ["search-coeffs", "--L", "2"],
    ], ids=lambda argv: argv[0])
    def test_negative_seed(self, argv, capsys):
        code = main(argv + ["--seed", "-1"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


    @pytest.mark.parametrize("nu", ["3000", "1e308", "-3000", "-1e308",
                                    "400.001", "-400.001"])
    def test_nu_floor_out_of_float_range(self, nu, capsys, monkeypatch):
        # 2^(-n nu / 2) at n = n_max = 5 would leave 2^-1000..2^1000: it
        # underflowed to 0 (ZeroDivisionError), overflowed (OverflowError)
        # or zeroed every Minor value; refused before the first draw
        def never(*args, **kwargs):
            raise AssertionError("a draw ran before the nu_floor check")

        monkeypatch.setattr("numpy.random.default_rng", never)
        code = main(NU_BASE + [f"--nu-floor={nu}"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: nu_floor=") and err.count("\n") == 1

    @pytest.mark.parametrize("A,a", [("1e-170", "1e-170"), ("1e306", "0.5"),
                                     ("1e308", "0.5"), ("1", "1e-300")])
    def test_smooth_out_of_float_range(self, A, a, capsys, monkeypatch):
        # sqrt(N A a) underflowed to 0 (ZeroDivisionError), the multipliers
        # overflowed (null values after RuntimeWarnings), or a step of a
        # was lost against A (C about 7.7e133); refused before the first draw
        def never(*args, **kwargs):
            raise AssertionError("a draw ran before the A and a check")

        monkeypatch.setattr("numpy.random.default_rng", never)
        code = main(["smooth", "--N", "4", "--trials", "2", f"--A={A}",
                     f"--a={a}"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: need 2^-256") and err.count("\n") == 1

    @pytest.mark.parametrize("nu", ["400", "-400", "0"])
    def test_nu_floor_inside_float_range(self, nu, capsys):
        code = main(NU_BASE + [f"--nu-floor={nu}"])
        out = capsys.readouterr().out
        assert code == 0
        values = json.loads(out)["results"][0]["values"]
        assert all(v is not None and 0 < v < math.inf for v in values)


# each float or rational option, in a small run of every subcommand that
# takes it, at the edges of the float range
EDGE_BASES = {
    "--alpha": [["weyl-sum", "--t", "2"], ["arcs", "--n", "10"]],
    "--frac": [["gauss"]],
    "--delta": [["arcs", "--alpha", "1/3", "--n", "10"],
                ["est", "--n-min", "6", "--n-max", "6", "--samples", "16"],
                NU_BASE],
    "--r": [["variation", "--values", "0,1,0,1"],
            ["average", "--modulus", "64", "--scales", "1,2,4"],
            ["entropy", "--num-freqs", "1"]],
    "--sigma": [["entropy", "--num-freqs", "1"]],
    "--A": [["smooth", "--N", "4", "--a", "0.5", "--trials", "2"]],
    "--a": [["smooth", "--N", "4", "--trials", "2"]],
    "--nu-floor": [NU_BASE],
}
EDGE_VALUES = ["0", "-1", "3000", "-3000", "1e308", "-1e308", "inf", "-inf",
               "nan", "1e-320"]


class TestEdgeSweep:
    """Each run ends in 0, 2 or 3, and a refusal writes nothing to stdout
    and one `error:` line to stderr.

    A run that exits 0 may still print a null or a 0.0 after a
    RuntimeWarning (`average --r 1024`, `entropy --r 1e308`): that waits
    for the scale-safe variation DP, so it is not asserted here yet.
    """

    @pytest.mark.parametrize("argv", [
        base + [f"{option}={value}"] for option, bases in EDGE_BASES.items()
        for base in bases for value in EDGE_VALUES], ids=" ".join)
    def test_exit_code_and_streams(self, argv, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            code = main(argv)
        out, err = capsys.readouterr()
        assert code in (0, 2, 3)
        if code:
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")


class TestOptions:
    # a small run of each subcommand, one that reads all of its options
    ARGV = [
        ["weyl-sum", "--t", "2", "--alpha", "1/2"],
        ["gauss", "--poly", "0,1,2", "--frac", "1/5"],
        ["arcs", "--alpha", "1/2", "--n", "10"],
        ["variation", "--values", "0,1,0,1", "--r", "2"],
        ["average", "--modulus", "64", "--scales", "1,2,4"],
        ["entropy", "--num-freqs", "1"],
        ["smooth", "--N", "4", "--a", "0.5", "--trials", "2"],
        ["est", "--n-min", "6", "--n-max", "8", "--samples", "16"],
        ["main-decomp", "--modulus", "1024", "--n-min", "6", "--n-max", "8"],
        ["counterexample", "--L", "3", "--R", "47", "--sample-count", "64"],
        # 0 iterations: each start is evaluated once and the best returned;
        # from one step on, the uniform start wins at L = 3 and seed 0
        ["search-coeffs", "--L", "3", "--iterations", "0", "--restarts",
         "1"],
    ]

    def test_every_subcommand_covered(self):
        (subs,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
        assert sorted(argv[0] for argv in self.ARGV) == sorted(subs)

    @pytest.mark.parametrize("argv", ARGV, ids=lambda argv: argv[0])
    def test_every_option_is_read(self, argv):
        # an option that no run reads would do nothing
        reads = set()

        class ReadRecorder(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        args = build_parser().parse_args(argv, namespace=ReadRecorder())
        reads.clear()  # argparse reads the namespace while it parses
        _run(args)
        unread = set(vars(args)) - reads - {"out", "format"}
        assert not unread

    # other values for the options of each ARGV run, at least one per option
    OTHER = {
        "weyl-sum": [["--poly", "0,1,1"], ["--t", "3"], ["--alpha", "1/7"]],
        "gauss": [["--poly", "0,0,2"], ["--frac", "1/7"],
                  ["--pre-interval", "1"]],
        "arcs": [["--poly", "0,0,2"], ["--alpha", "0"], ["--n", "20"],
                 ["--delta", "0.125"]],
        "variation": [["--values", "0,2,0,1"], ["--indices", "1,2,4,8"],
                      ["--r", "3"], ["--flavor", "long"]],
        "average": [["--poly", "0,1"], ["--seed", "1"], ["--modulus", "32"],
                    ["--scales", "1,2,8"], ["--r", "3"]],
        "entropy": [["--seed", "1"], ["--num-freqs", "2"], ["--sigma", "3"],
                    ["--r", "4"]],
        "smooth": [["--seed", "1"], ["--N", "5"], ["--A", "2"],
                   ["--a", "0.25"], ["--trials", "3"]],
        "est": [["--poly", "0,0,0,1"], ["--seed", "1"], ["--delta", "0.1"],
                ["--n-min", "7"], ["--n-max", "9"], ["--samples", "17"]],
        "main-decomp": [["--poly", "0,1,3"], ["--seed", "1"],
                        ["--delta", "0.125"], ["--n-min", "7"],
                        ["--n-max", "9"], ["--nu-floor", "0.2"],
                        ["--modulus", "2048"]],
        "counterexample": [["--L", "2", "--R", "14"], ["--R", "46"],
                           ["--dry-run"], ["--sample-count", "128"],
                           ["--seed", "1"]],
        "search-coeffs": [["--L", "4"], ["--iterations", "5"],
                          ["--restarts", "0"], ["--seed", "1"]],
    }

    @pytest.mark.parametrize("argv", ARGV, ids=lambda argv: argv[0])
    def test_every_option_changes_the_results(self, argv, capsys):
        def run(extra):
            assert main(argv + extra) == 0
            doc = json.loads(capsys.readouterr().out)
            # the inputs echo options; the other entries are computed
            return ([{k: v for k, v in entry.items() if k != "inputs"}
                     for entry in doc["results"]], doc["config"])

        base, config = run([])
        moved = set()
        for extra in self.OTHER[argv[0]]:
            results, other = run(extra)
            assert results != base, f"{extra} changes no result"
            moved |= {k for k in config if other[k] != config[k]}
        assert moved == set(config) - {"command"}


# sha256 of the stdout of `variation` at every flavor and r = 1, 2, 3 and
# 2.5, concatenated in that order, as the chains read back by recomputing
# each candidate gave it: ties among candidates (equal values and equal
# gaps), a constant family, and irregular indices over several blocks.
# The first family's full r = 2 value is sqrt(12) correctly rounded,
# 3.4641016151377544, since its squares are re^2 + im^2; squaring |.|
# gave 3.464101615137755, one ulp above, with the same subsequence
VARIATION_DIGESTS = [
    ("0,1,1,0,2j,2j,1,0", "1,2,3,4,6,8,9,16",
     "f080eb3d0f17c719049552afa25a57c7db20f8f0e2ce0977a2eaf35874142f6d"),
    ("1,1,1,1", None,
     "7deea0a0aef03f5e2c8504031fd038aef3c1408b1edb1c64bed2e1b18d65da3e"),
    ("0,1,0,1,0,1,0,1,0", None,
     "b755ffd33a5971b6c3c564ec9988b08fe4af07122f55092b862427734d333a39"),
    ("3,1+1j,-2,0.5j,2,2,-1-1j,0,1e-3,4", "1,2,3,5,7,8,12,16,17,32",
     "2cf92fed733f4aed5abc25ad7c408ca617bec7e89c3d5286b2ca0df0a9a7d22f"),
]


class TestOutput:
    @pytest.mark.parametrize("values,indices,digest", VARIATION_DIGESTS,
                             ids=lambda x: x if isinstance(x, str) and
                             len(x) < 40 else "")
    def test_variation_outputs_pinned(self, values, indices, digest, capsys):
        h = hashlib.sha256()
        for r in ("1", "2", "3", "2.5"):
            for flavor in ("full", "long", "short"):
                argv = ["variation", "--values", values, "--r", r,
                        "--flavor", flavor]
                if indices:
                    argv += ["--indices", indices]
                code, out = run_cli(argv, capsys)
                assert code == 0
                h.update(out.encode())
        assert h.hexdigest() == digest

    def test_json_reruns_byte_identical(self, capsys):
        args = ["variation", "--values", "0,1,0,1", "--r", "2"]
        _, out1 = run_cli(args, capsys)
        _, out2 = run_cli(args, capsys)
        assert out1 == out2

    def test_csv_format(self, capsys):
        code, out = run_cli(["variation", "--values", "0,1", "--r", "2",
                             "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "key,value"
        assert any("results[0].value" in ln for ln in lines)

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "res.json"
        code, out = run_cli(["variation", "--values", "0,1", "--r", "2",
                             "--out", str(path)], capsys)
        assert code == 0
        assert out == ""
        assert json.loads(path.read_text())["results"]

    def test_overflow_is_valid_json(self, capsys):
        # finite inputs whose difference overflows to inf, silently: a
        # numpy overflow warning would raise here and would print on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["variation", "--values", "1e308,-1e308",
                         "--r", "2"])
        out, err = capsys.readouterr()
        assert code == 0
        assert err == ""

        def reject(constant):
            raise ValueError(f"invalid JSON constant {constant}")

        doc = json.loads(out, parse_constant=reject)
        assert doc["results"][0]["value"] is None

    def test_config_echoed(self, capsys):
        _, out = run_cli(["weyl-sum", "--poly", "0,0,1", "--t", "2",
                          "--alpha", "1/2"], capsys)
        cfg = json.loads(out)["config"]
        assert cfg["poly"] == "0,0,1" and cfg["t"] == 2


class TestBlasThreads:
    # M = 2^14 points: enough for a BLAS dot to split its sum across
    # threads, as np.linalg.norm's did
    RUNS = [["average", "--poly", "0,0,1", "--modulus", "16384",
             "--scales", "1,2,4,8", "--seed", "0"],
            ["main-decomp", "--modulus", "16384", "--n-min", "8",
             "--n-max", "8", "--seed", "0"]]

    def test_output_independent_of_blas_thread_count(self):
        procs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
            for argv in self.RUNS:
                procs[argv[0], threads] = subprocess.Popen(
                    [sys.executable, "-m", "circlelab.cli", *argv],
                    env=env, stdout=subprocess.PIPE, text=True)
        out = {key: proc.communicate()[0] for key, proc in procs.items()}
        assert all(proc.returncode == 0 for proc in procs.values())
        for argv in self.RUNS:
            assert out[argv[0], "1"] == out[argv[0], "2"]

    @pytest.mark.parametrize("preset,want", [(None, "1"), ("2", "2")])
    def test_import_sets_one_thread_unless_preset(self, preset, want):
        # in a fresh interpreter, before numpy is first imported
        env = {k: v for k, v in os.environ.items()
               if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        proc = subprocess.run(
            [sys.executable, "-c",
             "import os, sys, circlelab; "
             "print(os.environ['OPENBLAS_NUM_THREADS'])"],
            env=env, capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == want


def _python(code, *argv):
    """Run `code` in a fresh interpreter; its last stdout line."""
    proc = subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


class TestImports:
    LOADED = ("import sys; print(sorted(m for m in sys.modules "
              "if m == 'numpy' or m.startswith('circlelab')))")

    @pytest.mark.parametrize("argv,modules", [
        (["weyl-sum", "--t", "2", "--alpha", "1/2"],
         ["arith", "cli", "errors", "expsum"]),
        (["est", "--n-min", "8", "--n-max", "8", "--samples", "16"],
         ["arith", "cli", "errors", "expsum", "verify"]),
        # only the ladder subcommands sum dyadic tails
        (["smooth", "--N", "4", "--a", "0.5", "--trials", "2"],
         ["arith", "cli", "errors", "expsum", "spectral", "varnorm",
          "verify"]),
        (["counterexample", "--L", "2", "--R", "14", "--sample-count", "64"],
         ["arith", "cli", "dyadic", "errors", "expsum", "torus", "varnorm"]),
    ])
    def test_subcommand_loads_only_its_modules(self, argv, modules):
        # no spectral, varnorm or torus after either, no verify after
        # weyl-sum: each subcommand imports what it runs, and est's part
        # of verify reaches none of the Z/M helpers
        loaded = _python("import sys; from circlelab.cli import main; "
                         "main(sys.argv[1:]); " + self.LOADED, *argv)
        assert loaded == repr(["circlelab"]
                              + [f"circlelab.{m}" for m in modules]
                              + ["numpy"])

    def test_bare_import_loads_no_submodule_and_no_numpy(self):
        assert _python("import circlelab; " + self.LOADED) == \
            repr(["circlelab"])

    def test_exit_hook_freezes_the_heap(self):
        # the hook runs only at exit; run it here and read what it did
        assert _python("import atexit, gc, circlelab.cli; "
                       "before = gc.get_freeze_count(); "
                       "atexit._run_exitfuncs(); "
                       "print(before == 0 < gc.get_freeze_count())") == "True"


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "circlelab.cli",
                               "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0

    def test_import_leaves_scipy_out(self):
        # scipy and mpmath are imported nowhere in the package
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, circlelab.cli; "
             "print('scipy' in sys.modules, 'mpmath' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False False"
