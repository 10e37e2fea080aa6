"""Oracle layer: residuals, Wronskian, identity harness, variant adjudicator."""

import cmath
import json
import pathlib

import numpy as np
import pytest

from darboux.elliptic import (
    ModulusData,
    _glyph,
    _lattice_remainder,
    complete_elliptic,
    jacobi_sn_cn_dn,
    singular_points,
)
from darboux.errors import (
    DegenerateWronskian,
    InconclusiveAdjudication,
    InsufficientData,
    PoleProximity,
    UntrustedCalibration,
)
from darboux.series import ParamTuple, dl_coefficients, dl_eval
from darboux.symmetry import scalar_value
from darboux.verify import (
    _CANDIDATES,
    PRINTED_ROWS,
    _adopt,
    _candidate_sides,
    _entry_errors,
    _printed_substitution,
    _substituted_side,
    adjudicate_accessory_maps,
    adjudicate_joint_table,
    adjudicate_lambda_pairings,
    adjudicate_quarter_periods,
    adjudicate_sigmas,
    identity_harness,
    lvariant_adjudicator,
    ode_residual,
    regenerate_tables,
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
        rep = ode_residual(np.sin, p, grid)
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

    @pytest.mark.parametrize("k", [K, 1.7, 0.5 + 0.4j])
    def test_pole_guard_at_every_half_period_and_translate(self, k):
        p = ParamTuple(0, 0, 0, 0, h=1.0, k=k)
        md = ModulusData.from_modulus(k)
        for s in singular_points(k):
            for a, b in ((0, 0), (1, 0), (-1, 1), (2, -1), (0, -2)):
                u = s + 2 * a * md.K + 2j * b * md.Kp + 0.01 * cmath.exp(0.7j * (a + 2 * b))
                with pytest.raises(PoleProximity):
                    ode_residual(np.sin, p, [1.0 + 0.2j, u], require_trusted=False)

    @pytest.mark.parametrize("k", [K, 0.98, 1.7, 0.5 + 0.4j, 2 * cmath.exp(2.5j)])
    def test_pole_guard_agrees_with_the_four_half_period_lattices(self, k):
        # one distance to the lattice (K, iK') gives the verdict of the
        # distances to the four half-periods modulo (2K, 2iK')
        p = ParamTuple(0, 0, 0, 0, h=1.0, k=k)
        md = ModulusData.from_modulus(k)
        rng = np.random.default_rng(7)
        pts = (rng.uniform(-1, 1, 300) * 3 * abs(md.K) + 1j * rng.uniform(-1, 1, 300) * 3 * abs(md.Kp))
        pts[::3] = [rng.choice(singular_points(k)) + 0.1 * cmath.exp(6j * rng.random()) * rng.random()
                    for _ in pts[::3]]
        for u in pts:
            dist = min(_lattice_remainder(u - s, 2 * md.K, 2j * md.Kp) for s in singular_points(k))
            if abs(dist - 0.05) < 1e-9:
                continue
            if dist < 0.05:
                with pytest.raises(PoleProximity):
                    ode_residual(np.sin, p, [u], require_trusted=False)
            else:
                ode_residual(np.sin, p, [u], require_trusted=False)

    def test_empty_grid_raises(self):
        p = ParamTuple(0, 0, 0, 0, h=1.0, k=K)
        with pytest.raises(InsufficientData):
            ode_residual(np.sin, p, [])

    def test_untrusted_calibration_raises(self):
        p = ParamTuple(0, 0, 0, 0, h=1.0, k=K)
        with pytest.raises(UntrustedCalibration):
            ode_residual(np.sin, p, np.linspace(0.3, 1.2, 5), step=1e-7)

    def test_second_derivative_accuracy(self):
        # V = 0 at zero exponents: the residual of sin is the stencil's error on y'' = -y
        p = ParamTuple(0, 0, 0, 0, h=1.0, k=K)
        assert ode_residual(np.sin, p, [0.7]).max_relative_residual < 1e-10


class TestWronskian:
    def test_sin_cos(self):
        grid = np.linspace(0.2, 1.4, 9)
        dev = wronskian_constancy(np.sin, np.cos, grid)
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
            wronskian_constancy(np.sin, np.sin, np.linspace(0.2, 1.0, 5))

    def test_empty_grid_raises(self):
        with pytest.raises(InsufficientData):
            wronskian_constancy(np.sin, np.cos, [])


class TestHarness:
    def test_zero_failures(self):
        report = identity_harness()
        assert report.passed()
        assert len(report.records) == 145

    def test_each_side_evaluated_once_per_modulus(self):
        # per modulus: one old side and 24 substituted sides, one original
        # potential and 24 substituted ones, and each glyph quotient once;
        # the scalar theta loop and the AGM run only for the lambda/e-value
        # checks and the quarter periods
        import cProfile
        import pstats

        identity_harness()
        prof = cProfile.Profile()
        prof.runcall(identity_harness)
        calls = {name: n for (_, _, name), (_, n, *_) in pstats.Stats(prof).stats.items()}
        assert calls["_theta_all"] <= 100 and calls["_agm"] <= 100
        assert calls["jacobi_sn_cn_dn"] <= 150
        assert calls["darboux_potential"] <= 75
        assert calls["_glyph"] <= 12

    def test_grid_on_a_pole_is_typed(self):
        # u = 0 is a pole of the ns, ds and cs entries
        with pytest.raises(PoleProximity):
            identity_harness(u_grid=[0j])

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
        # row I0's cn entry at u = 0, a zero of sn that the cn glyph does not divide by
        us = np.array([0j])
        new, old = _substituted_side("I", 0, 0.6, us), jacobi_sn_cn_dn(us, 0.6)
        assert np.abs(new[1] - _glyph("cn", *old)).max() == 0

    def test_entry_errors_match_per_point_loop(self):
        # reference: each (k, u) evaluated on its own through the scalar path
        ks, us = (0.3, 0.6, 0.9), np.array([0.41 + 0.1j, 0.9 - 0.2j, 1.2 + 0.25j])
        # every candidate's side, flattened to the order of _CANDIDATES
        sides, scales = (a.reshape(len(_CANDIDATES), len(ks), len(us))
                      for a in _candidate_sides([complex(k) for k in ks], us))
        for name in ("I2", "C3", "E1"):
            shift, entries = PRINTED_ROWS[name]
            new = np.array([_substituted_side(name[0], shift, k, us) for k in ks])
            for j, (scalar, glyph) in enumerate(entries):
                ref = 0.0
                for k in ks:
                    a, b, kappa = _printed_substitution(name[0], shift, complex(k))
                    s = scalar_value(scalar, k, cmath.sqrt(1 - k * k))
                    for u in us:
                        rhs = s * _glyph(glyph, *jacobi_sn_cn_dn(complex(u), k))
                        lhs = jacobi_sn_cn_dn(complex(a * (u + b)), kappa)[j]
                        ref = max(ref, abs(lhs - rhs) / max(1.0, abs(rhs)))
                c = _CANDIDATES.index((scalar, glyph))
                err = _entry_errors(new[:, j], sides[c], scales[c])
                assert abs(err - ref) <= 1e-13 * max(1.0, ref)

    def test_lambda_pairing_unique(self):
        adopted, records = adjudicate_lambda_pairings()
        assert set(adopted) == set("IABCDE")
        assert all(r.status in ("ok", "repaired") for r in records)


class TestAdoptionRule:
    def test_printed_unique_is_ok(self):
        adopted, rec = _adopt("t", "r", "f", "a", 1e-12, [("a", 1e-12)], "fixed")
        assert adopted == "a"
        assert (rec.status, rec.max_error, rec.printed, rec.adopted, rec.note) == (
            "ok", 1e-12, "a", "a", "")

    def test_other_candidate_unique_is_repaired(self):
        adopted, rec = _adopt("t", "r", "f", "a", 0.5, [("b", 2e-13)], "fixed")
        assert adopted == "b"
        assert (rec.status, rec.max_error, rec.printed, rec.adopted, rec.note) == (
            "repaired", 2e-13, "a", "b", "fixed")

    @pytest.mark.parametrize("hits", [[], [("a", 1e-12), ("b", 2e-13)], [("b", 0.0), ("c", 0.0)]])
    def test_none_or_several_fail(self, hits):
        adopted, rec = _adopt("t", "r", "f", "a", 0.5, hits, "fixed")
        assert adopted == "a"
        assert (rec.status, rec.max_error, rec.printed, rec.adopted, rec.note) == (
            "failed", 0.5, "a", "", f"{len(hits)} candidates passed")


class TestIndeterminateSamples:
    def test_lambda_at_tau_i(self):
        # lambda(i) = 1/2 = 1 - lambda(i): the cross-ratios pair up
        adopted, records = adjudicate_lambda_pairings(taus=(1j,))
        assert len(records) == 12 and set(adopted) == set("IABCDE")
        for r in records:
            if r.table == "lambda":
                assert (r.status, r.note, r.adopted) == ("failed", "2 candidates passed", "")
            else:
                assert r.status in ("ok", "repaired")

    def test_harness_at_k_equal_kp(self):
        # k = k' = 1/sqrt(2): k and k' cannot be told apart, so no glyph
        # entry or quarter period is decided
        report = identity_harness(k_values=(2**-0.5,))
        glyphs = [r for r in report.records if r.table == "joint" and r.fld != "substitution"]
        quarters = [r for r in report.records if r.table == "quarter"]
        assert len(glyphs) == 72 and all(r.status == "failed" for r in glyphs)
        assert len(quarters) == 12 and all(r.status == "failed" for r in quarters)
        assert all(r.note.endswith("candidates passed") for r in glyphs + quarters)


class TestEmptySamples:
    @pytest.mark.parametrize("call", [
        lambda: identity_harness(u_grid=[]),
        lambda: identity_harness(k_values=()),
        lambda: adjudicate_joint_table(u_grid=[]),
        lambda: adjudicate_joint_table(k_values=()),
        lambda: adjudicate_quarter_periods(k_values=()),
        lambda: adjudicate_lambda_pairings(taus=()),
        lambda: adjudicate_sigmas(k_values=()),
        lambda: adjudicate_accessory_maps(k_values=()),
        lambda: lvariant_adjudicator(tuples=[]),
        lambda: lvariant_adjudicator(k_values=()),
    ], ids=["harness-u", "harness-k", "joint-u", "joint-k", "quarter", "lambda", "sigma",
            "accessory", "lvariant-tuples", "lvariant-k"])
    def test_refused(self, call):
        with pytest.raises(InsufficientData):
            call()


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
