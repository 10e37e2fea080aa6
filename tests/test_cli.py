"""Command-line interface: records, exit codes, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import darboux
from darboux.cli import EXIT_DOMAIN, EXIT_MODE, EXIT_OK, EXIT_PIPE, main


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def records(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


class TestEval:
    def test_lame_sn_channel(self, capsys):
        k = 0.6
        code, out = run_cli(
            ["eval", "--k", "0.6", "--xi", "0", "--eta", "-1", "--mu", "-1",
             "--nu", "1", "--h", str(1 + k * k), "--u-range", "0.1", "1.5", "8"],
            capsys,
        )
        assert code == EXIT_OK
        recs = records(out)
        assert len(recs) == 8
        from darboux.elliptic import jacobi_sn_cn_dn

        for r in recs:
            u = complex(r["u"])
            ref = jacobi_sn_cn_dn(u, k)[0]
            assert abs(complex(r["re"], r["im"]) - ref) < 1e-8
            assert r["variant"] == "corrected"

    def test_value_at_zero(self, capsys):
        code, out = run_cli(
            ["eval", "--k", "0.6", "--nu", "1", "--h", "0.5", "--points", "0"],
            capsys,
        )
        assert code == EXIT_OK
        r = records(out)[0]
        assert r["re"] == 0 and r["im"] == 0

    def test_out_of_domain_exit_2_no_partial_output(self, capsys):
        code, out = run_cli(
            ["eval", "--k", "0.6", "--xi", "0.2", "--eta", "0.1", "--mu", "0.4",
             "--nu", "0.9", "--h", "1.2", "--points", "0.3", "1.7507+1.3j"],
            capsys,
        )
        assert code == EXIT_DOMAIN
        recs = records(out)
        assert len(recs) == 1 and "error" in recs[0]

    def test_far_off_point_exit_2_one_error_line(self, capsys):
        code = main(["eval", "--k", "0.6", "--nu", "1", "--h", "0.83", "--points", "0.3+90j"])
        captured = capsys.readouterr()
        assert code == EXIT_DOMAIN
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    @pytest.mark.parametrize("xi", ["inf", "nan"])
    def test_nonfinite_exponent_exit_2_one_error_line(self, xi, capsys):
        code = main(["eval", "--k", "0.6", "--nu", "1", "--xi", xi, "--h", "0.83", "--points", "0.3"])
        captured = capsys.readouterr()
        assert code == EXIT_DOMAIN
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: exponents")


class TestEigen:
    def test_polynomial_nu3(self, capsys):
        code, out = run_cli(
            ["eigen", "--k", "0.6", "--nu", "3", "--mode", "polynomial"], capsys
        )
        assert code == EXIT_OK
        recs = records(out)
        assert len(recs) == 1
        assert abs(complex(recs[0]["h"]) - 4 * 1.36) < 1e-10
        assert recs[0]["q"] == 0

    def test_polynomial_lame_channel(self, capsys):
        code, out = run_cli(
            ["eigen", "--k", "0.6", "--eta", "-1", "--mu", "-1", "--nu", "1",
             "--mode", "polynomial"],
            capsys,
        )
        assert code == EXIT_OK
        assert abs(complex(records(out)[0]["h"]) - 1.36) < 1e-10

    def test_mode_mismatch_exit_3(self, capsys):
        code, _ = run_cli(
            ["eigen", "--k", "0.6", "--xi", "1", "--eta", "1", "--mode", "polynomial"],
            capsys,
        )
        assert code == EXIT_MODE

    def test_function_mode(self, capsys):
        code, out = run_cli(
            ["eigen", "--k", "0.6", "--nu", "1", "--mode", "function",
             "--region", "3.0", "4.0"],
            capsys,
        )
        assert code == EXIT_OK
        recs = records(out)
        assert len(recs) == 1 and recs[0]["mode"] == "function"

    def test_function_mode_complex_k_real_root_once(self, capsys):
        code, out = run_cli(
            ["eigen", "--k", "0.5+0.3j", "--xi", "-1", "--mu", "-1", "--nu", "1",
             "--mode", "function", "--region", "0.5", "1.5"],
            capsys,
        )
        assert code == EXIT_OK
        recs = records(out)
        assert len(recs) == 1 and recs[0]["h"] == "1+0j"

    def test_inverted_region_is_refused(self, capsys):
        code = main(["eigen", "--k", "0.6", "--nu", "1", "--mode", "function",
                     "--region", "3", "1"])
        captured = capsys.readouterr()
        assert code == EXIT_DOMAIN and captured.out == ""
        assert captured.err.startswith("error:")

    def test_rational_parameters(self, capsys):
        code, out = run_cli(
            ["eigen", "--k", "0.6", "--nu", "6/2", "--mode", "polynomial"], capsys
        )
        assert code == EXIT_OK
        assert records(out)[0]["q"] == 0

    def test_polynomial_mode_uses_the_library_termination_rule(self, capsys):
        # nu within 1e-9 of 3 terminates at q = 0, as termination_check says
        code, out = run_cli(
            ["eigen", "--k", "0.6", "--nu", "3.0000000001", "--mode", "polynomial"], capsys
        )
        assert code == EXIT_OK
        recs = records(out)
        assert [r["q"] for r in recs] == [0]
        assert abs(complex(recs[0]["h"]) - 4 * 1.36) < 1e-8


class TestCatalog:
    def test_list_192_in_8_groups(self, capsys):
        code, out = run_cli(["catalog", "list", "--k", "0.6"], capsys)
        assert code == EXIT_OK
        recs = records(out)
        assert len(recs) == 192
        from collections import Counter

        groups = Counter((r["singular_point"], r["branch"]) for r in recs)
        assert len(groups) == 8 and set(groups.values()) == {24}

    def test_verify_at_eigenvalue(self, capsys):
        code, out = run_cli(
            ["catalog", "verify", "--k", "0.6", "--nu", "3", "--h", str(4 * 1.36),
             "--seed", "0"],
            capsys,
        )
        assert code == EXIT_OK
        recs = records(out)
        assert len(recs) == 24
        assert all(r["residual"] <= 1e-6 for r in recs)

    @pytest.mark.parametrize("k", ["0.05", "0.02", "0.9999"])
    def test_extreme_modulus_sample_grid_is_full(self, k, capsys):
        # |kappa| = 1/k (rows C), 1/k' (rows D) or k/k' (rows A) is far above
        # 1 here; the walk in units of 1/|kappa| still finds every point
        code, out = run_cli(["catalog", "verify", "--all", "--k", k, "--nu", "3", "--h", "5.44"],
                            capsys)
        assert code == EXIT_OK
        recs = records(out)
        assert len(recs) == 192 and all(r["points"] == 5 for r in recs)


class TestTransform:
    def test_C0(self, capsys):
        code, out = run_cli(
            ["transform", "--row", "C0", "--k", "0.6", "--xi", "0.2", "--eta",
             "0.3", "--mu", "0.4", "--nu", "0.5", "--h", "1.1"],
            capsys,
        )
        assert code == EXIT_OK
        r = records(out)[0]
        assert abs(complex(r["h"]) - 1.1 / 0.36) < 1e-12
        assert abs(complex(r["kappa"]) - 1 / 0.6) < 1e-12
        assert r["sigma"] == "0213"
        assert complex(r["eta"]) == 0.4 and complex(r["mu"]) == 0.3

    def test_unknown_row_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["transform", "--row", "Z9", "--k", "0.6"])
        assert exc.value.code == 2
        assert "--row" in capsys.readouterr().err

    def test_identity_row(self, capsys):
        code, out = run_cli(
            ["transform", "--row", "I0", "--k", "0.6", "--xi", "0.2", "--h", "1.1"],
            capsys,
        )
        r = records(out)[0]
        assert complex(r["h"]) == 1.1 and complex(r["kappa"]) == 0.6

    def test_B0_accessory(self, capsys):
        code, out = run_cli(
            ["transform", "--row", "B0", "--k", "0.6", "--xi", "0.2", "--eta",
             "0.3", "--mu", "0.4", "--nu", "0.5", "--h", "1.1"],
            capsys,
        )
        r = records(out)[0]
        S = sum(g * (g + 1) for g in (0.2, 0.3, 0.4, 0.5))
        assert abs(complex(r["h"]) - (-1.1 + S)) < 1e-12
        assert abs(complex(r["kappa"]) - 0.8) < 1e-12


class TestIdentitiesLambdaWeierstrass:
    def test_identities_run(self, capsys):
        code, out = run_cli(
            ["identities", "--landen", "--duplication", "--samples", "3"], capsys
        )
        assert code == EXIT_OK
        recs = records(out)
        assert len(recs) == 6
        assert all(r["dl_relative_err"] < 1e-8 for r in recs)

    def test_lambda_i(self, capsys):
        code, out = run_cli(["lambda", "1j"], capsys)
        assert code == EXIT_OK
        r = records(out)[0]
        assert abs(r["lambda_re"] - 0.5) < 1e-10 and abs(r["lambda_im"]) < 1e-12

    @pytest.mark.parametrize("flag, value", [("--k", "nan"), ("--k", "inf"), ("--scale", "nan")])
    def test_weierstrass_evalues_nonfinite_exit_2_one_error_line(self, flag, value, capsys):
        argv = ["weierstrass", "evalues", "--k", "0.6", flag, value]
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_DOMAIN
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")

    def test_weierstrass_evalues(self, capsys):
        code, out = run_cli(
            ["weierstrass", "evalues", "--k", str(np.sqrt(0.5))], capsys
        )
        r = records(out)[0]
        assert abs(complex(r["e1"]) - 0.5) < 1e-12
        assert abs(complex(r["e2"])) < 1e-12
        assert abs(complex(r["e3"]) + 0.5) < 1e-12


class TestDeterminismAndFormats:
    def test_byte_identical_reruns(self, capsys):
        argv = ["catalog", "list", "--k", "0.6", "--seed", "7"]
        _, out1 = run_cli(argv, capsys)
        _, out2 = run_cli(argv, capsys)
        assert out1 == out2

    def test_csv_projection(self, capsys):
        code, out = run_cli(
            ["lambda", "1j", "2j", "--format", "csv"], capsys
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].split(",")[:2] == ["tau", "lambda_re"]
        assert len(lines) == 3

    def test_variant_stamped(self, capsys):
        _, out = run_cli(
            ["eigen", "--k", "0.6", "--nu", "3", "--mode", "polynomial",
             "--variant", "paper"],
            capsys,
        )
        r = records(out)[0]
        assert r["variant"] == "paper"
        assert abs(complex(r["h"]) - (4 * 1.36 - 1.36)) < 1e-10

    def test_config_validation(self, capsys):
        code, _ = run_cli(
            ["eval", "--k", "0.6", "--nu", "1", "--h", "0.83", "--points", "0.3",
             "--trunc", "4"],
            capsys,
        )
        assert code == EXIT_DOMAIN

    @pytest.mark.parametrize("tol", ["-1", "0"])
    def test_nonpositive_tolerance_is_refused(self, tol, capsys):
        code = main(["eigen", "--k", "0.6", "--nu", "1", "--mode", "function",
                     "--region", "3", "4", "--tol", tol])
        captured = capsys.readouterr()
        assert code == EXIT_DOMAIN and captured.out == ""
        assert captured.err.startswith("error: tolerance")

    def test_closed_stdout_stops_quietly(self):
        # 5000 records overflow the pipe, so the reader's close is seen mid-run
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(darboux.__file__).parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-c", "import sys; from darboux.cli import main; sys.exit(main())",
             "eval", "--k", "0.6", "--nu", "1", "--h", "0.83", "--u-range", "0.1", "1.0", "5000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_PIPE
        assert err == b"" and json.loads(first)["u"] == "0.1+0j"

    def test_truncation_without_depth(self, capsys):
        # eval reads --trunc only: no depth cross-check applies
        code, out = run_cli(
            ["eval", "--k", "0.6", "--nu", "1", "--h", "0.83", "--points", "0.3",
             "--trunc", "300"],
            capsys,
        )
        assert code == EXIT_OK and len(records(out)) == 1

    def test_depth_without_truncation(self, capsys):
        code, out = run_cli(
            ["eigen", "--k", "0.6", "--nu", "1", "--mode", "function",
             "--region", "0", "12", "--depth", "100"],
            capsys,
        )
        assert code == EXIT_OK and records(out)[0]["depth"] == 100

    def test_unread_flag_is_rejected(self, capsys):
        # eval has no pole guard to set
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--k", "0.6", "--nu", "1", "--h", "0.83", "--points", "0.3",
                  "--guard", "5"])
        assert exc.value.code == 2
        assert "--guard" in capsys.readouterr().err


class TestVerifyCommand:
    def test_full_battery_passes(self, capsys):
        code, out = run_cli(["verify"], capsys)
        assert code == EXIT_OK
        recs = records(out)
        verdict = [r for r in recs if r.get("check") == "lvariant"]
        assert verdict and verdict[0]["verdict"] == "corrected"
        # only repaired/failed table rows are listed; none may be "failed"
        assert all(r.get("status") != "failed" for r in recs)
