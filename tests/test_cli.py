"""Command-line interface: documented examples, exit codes, reproducibility."""

import json
import subprocess
import sys
import warnings

import pytest

from circlelab.cli import main


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
        # counterexample at a radius whose tails exceed the direct budget
        code, _ = run_cli(["counterexample", "--L", "2", "--R", "60"], capsys)
        assert code == 3

    def test_budget_checked_before_search(self, capsys, monkeypatch):
        # L = 4, R = 92 has a tail over the budget: refused before the search
        def never(*args, **kwargs):
            raise AssertionError("coefficient search ran before the budget")

        monkeypatch.setattr("circlelab.cli.search_coefficients", never)
        code, _ = run_cli(["counterexample", "--L", "4", "--R", "92"], capsys)
        assert code == 3

    def test_dry_run_never_sums(self, capsys):
        code, _ = run_cli(["counterexample", "--L", "2", "--R", "60",
                           "--dry-run"], capsys)
        assert code == 0

    def test_phase_term_budget(self, capsys):
        # refused before any phase is computed or any array allocated
        code, _ = run_cli(["weyl-sum", "--t", "1000000000000000",
                           "--alpha", "1/3"], capsys)
        assert code == 3

    def test_gauss_modulus_budget(self, capsys, monkeypatch):
        # q_i = 10^11 > PHASE_TERM_BUDGET: refused before any residue
        monkeypatch.setattr("circlelab.expsum._residue_chunks", None)
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
    ])
    def test_size_refusals(self, argv, expect, capsys):
        code = main(argv)
        assert code == expect
        assert capsys.readouterr().err.startswith("error: ")

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

    def test_farey_level_budget(self, capsys):
        # no level up to s = 9 admits 1/3000007: refused at level 10
        code, _ = run_cli(["arcs", "--n", "200", "--delta", "0.125",
                           "--alpha", "1/3000007"], capsys)
        assert code == 3
        # a point admitted at s = 3 never asks for the refused levels
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


class TestOutput:
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


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run([sys.executable, "-m", "circlelab.cli",
                               "--version"],
                              capture_output=True, text=True)
        assert proc.returncode == 0

    def test_import_leaves_scipy_out(self):
        # scipy and mpmath are imported only where the closed forms of v_t
        # need them
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, circlelab.cli; "
             "print('scipy' in sys.modules, 'mpmath' in sys.modules)"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.strip() == "False False"
