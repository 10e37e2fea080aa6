"""Oracle layer: residuals, Wronskian, identity harness, variant adjudicator."""

import cmath
import json
import pathlib

import numpy as np
import pytest

from darboux.elliptic import complete_elliptic, jacobi_sn_cn_dn
from darboux.errors import (
    DegenerateWronskian,
    InconclusiveAdjudication,
    PoleProximity,
    UntrustedCalibration,
)
from darboux.series import ParamTuple, dl_coefficients, dl_eval
from darboux.verify import (
    DEFAULT_FD_STEP,
    _row_entry_error,
    adjudicate_lambda_pairings,
    identity_harness,
    lvariant_adjudicator,
    ode_residual,
    regenerate_tables,
    second_derivative,
    wronskian_constancy,
)

K = 0.6
DATA_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "darboux" / "data"
DOCS_DIR = pathlib.Path(__file__).resolve().parents[1] / "docs" / "adjudication"


class TestResidual:
    def test_sin_calibration(self):
        # trigonometric equation: y = sin solves y'' + y = 0 with V = 0... use
        # the generic machinery through a parameter tuple with zero potential
        # coefficients and h = 1.
        p = ParamTuple(0, 0, 0, 0, h=1.0, k=K)
        grid = np.linspace(0.3, 1.2, 9)
        rep = ode_residual(cmath.sin, p, grid)
        assert rep.max_relative_residual <= 1e-10
        assert rep.calibration_residual <= 1e-10
        assert rep.trusted

    def test_sn_is_lame_eigensolution(self):
        p = ParamTuple(0, -1, -1, 1, h=1 + K * K, k=K)
        grid = np.linspace(0.25, 1.1, 9)
        rep = ode_residual(lambda u: jacobi_sn_cn_dn(u, K)[0], p, grid)
        assert rep.max_relative_residual <= 1e-6

    def test_detects_non_solution(self):
        p = ParamTuple(0, -1, -1, 1, h=1 + K * K + 0.1, k=K)
        grid = np.linspace(0.25, 1.1, 9)
        rep = ode_residual(lambda u: jacobi_sn_cn_dn(u, K)[0], p, grid)
        assert rep.max_relative_residual >= 1e-3

    def test_pole_guard_on_grid(self):
        p = ParamTuple(0, -1, -1, 1, h=1 + K * K, k=K)
        K_, _ = complete_elliptic(K)
        with pytest.raises(PoleProximity):
            ode_residual(lambda u: jacobi_sn_cn_dn(u, K)[0], p, [K_ + 0.01])

    def test_untrusted_calibration_raises(self):
        p = ParamTuple(0, 0, 0, 0, h=1.0, k=K)
        with pytest.raises(UntrustedCalibration):
            ode_residual(cmath.sin, p, np.linspace(0.3, 1.2, 5), step=1e-7)

    def test_second_derivative_accuracy(self):
        d2 = second_derivative(cmath.sin, 0.7, DEFAULT_FD_STEP)
        assert abs(d2 + cmath.sin(0.7)) < 1e-10


class TestWronskian:
    def test_sin_cos(self):
        grid = np.linspace(0.2, 1.4, 9)
        dev = wronskian_constancy(cmath.sin, cmath.cos, grid)
        assert dev <= 1e-9

    def test_two_exponent_branches(self):
        # both branches at u = 0 for generic parameters span the space:
        # Abel's identity (no first-order term) makes W constant
        p_plus = ParamTuple(0.23, -0.41, 0.57, 1.13, h=0.9, k=K)
        p_minus = ParamTuple(-1.23, -0.41, 0.57, 1.13, h=0.9, k=K)
        ca = dl_coefficients(p_plus, 160)
        cb = dl_coefficients(p_minus, 160)

        def f(u):
            return dl_eval(p_plus, u, coeffs=ca)

        def g(u):
            return dl_eval(p_minus, u, coeffs=cb)

        dev = wronskian_constancy(f, g, np.linspace(0.3, 0.8, 6))
        assert dev <= 1e-6

    def test_degenerate(self):
        with pytest.raises(DegenerateWronskian):
            wronskian_constancy(cmath.sin, cmath.sin, np.linspace(0.2, 1.0, 5))


class TestHarness:
    def test_zero_failures(self):
        report = identity_harness()
        assert report.passed()
        assert len(report.records) == 145

    def test_documented_repairs(self):
        report = identity_harness()
        repaired = {(r.table, r.row, r.fld) for r in report.repairs}
        # the three expected repairs, plus the further sign repairs the
        # harness uncovered
        assert ("joint", "D1", "substitution") in repaired
        assert ("joint", "C3", "dn") in repaired
        assert ("quarter", "D", "K") in repaired
        assert len(report.repairs) >= 3

    def test_row_identity_example(self):
        # row I2 sn-entry: sn(u+K+iK') = dc(u)/k
        K_, Kp_ = complete_elliptic(K)
        u = 0.41
        lhs = jacobi_sn_cn_dn(u + K_ + 1j * Kp_, K)[0]
        sn, cn, dn = jacobi_sn_cn_dn(u, K)
        assert abs(lhs - dn / cn / K) < 1e-12

    def test_glyph_path_at_zero_of_sn(self):
        assert _row_entry_error("I", 0, 1, (0, 0, 0), "cn", (0.6,), [0j]) == 0

    def test_lambda_pairing_unique(self):
        adopted, records = adjudicate_lambda_pairings()
        assert set(adopted) == set("IABCDE")
        assert all(r.status in ("ok", "repaired") for r in records)


class TestFrozenData:
    def test_regenerated_tables_match_shipped_files(self):
        anh_records, row_records, report = regenerate_tables()
        assert report.passed()
        shipped_anh = [json.loads(line) for line in
                       (DATA_DIR / "anh_elements.jsonl").read_text().splitlines() if line]
        shipped_rows = [json.loads(line) for line in
                        (DATA_DIR / "transform_rows.jsonl").read_text().splitlines() if line]
        assert json.loads(json.dumps(anh_records)) == shipped_anh
        assert json.loads(json.dumps(row_records)) == shipped_rows

    def test_repair_log_versioned(self):
        text = (DOCS_DIR / "table_repairs.jsonl").read_text()
        rows = [json.loads(line) for line in text.splitlines() if line]
        keys = {(r["table"], r["row"], r["fld"]) for r in rows}
        assert ("joint", "D1", "substitution") in keys
        assert ("joint", "C3", "dn") in keys
        assert ("quarter", "D", "K") in keys


class TestVariantAdjudicator:
    def test_verdict_corrected(self):
        verdict, evidence = lvariant_adjudicator()
        assert verdict == "corrected"
        for e in evidence:
            if e.variant == "corrected":
                assert e.residual <= 1e-6
            elif abs(e.exponents[0] + 1) > 1e-12:
                assert e.residual >= 1e-3

    def test_xi_minus_one_uninformative(self):
        # the disputed term carries (xi+1)^2: both variants coincide there
        from darboux.series import polynomial_eigenvalues, termination_check

        p = ParamTuple(-1, 0, 0, 2, h=0.0, k=K)
        q = termination_check(p)
        a = polynomial_eigenvalues(p, q, "corrected")
        b = polynomial_eigenvalues(p, q, "paper")
        assert np.allclose(a, b, atol=1e-13)

    def test_verdict_stable_across_k(self):
        for k in (0.3, 0.9):
            verdict, _ = lvariant_adjudicator(
                tuples=[(0, 0, 0, 3), (0, 0, -1, 2)], k_values=(k,)
            )
            assert verdict == "corrected"

    def test_neither_variant_passing_is_inconclusive(self):
        with pytest.raises(InconclusiveAdjudication):
            lvariant_adjudicator(tuples=[(0, 0, 0, 3)], k_values=(0.6,), accept=1e-30)

    def test_evidence_file_versioned(self):
        text = (DOCS_DIR / "lvariant_evidence.jsonl").read_text()
        lines = [json.loads(line) for line in text.splitlines() if line]
        assert lines[0] == {"verdict": "corrected"}
        assert len(lines) > 10
