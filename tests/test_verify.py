"""Oracle layer: residuals, Wronskian, identity harness, variant adjudicator."""

import cmath
import json
import math
import pathlib
import re

import numpy as np
import pytest

from darboux import series, symmetry, verify
from darboux.cli import EXIT_OK, EXIT_VERIFY, main
from darboux.elliptic import (
    ModulusData,
    _glyph,
    _lattice_remainder,
    complete_elliptic,
    jacobi_sn_cn_dn,
    singular_points,
)
from darboux.errors import (
    DegenerateModulus,
    DegenerateRecursion,
    DegenerateWronskian,
    InconclusiveAdjudication,
    InsufficientData,
    PoleProximity,
    UntrustedCalibration,
)
from darboux.series import (
    ParamTuple,
    darboux_potential,
    dl_coefficients,
    dl_eval,
    polynomial_eigenvalues,
    termination_check,
)
from darboux.symmetry import GlyphEntry, scalar_value
from darboux.verify import (
    _CANDIDATES,
    PRINTED_ROWS,
    PRINTED_SIGMAS,
    CheckRecord,
    VariantEvidence,
    _adopt,
    _candidate_sides,
    _default_u_grid,
    _entry_errors,
    _printed_substitution,
    _type_sides,
    adjudicated_shift,
    adjudicate_accessory_maps,
    adjudicate_joint_table,
    adjudicate_lambda_pairings,
    adjudicate_quarter_periods,
    adjudicate_sigmas,
    identity_harness,
    lvariant_adjudicator,
    ode_residual,
    printed_l_shift,
    regenerate_tables,
    wronskian_constancy,
)

K = 0.6
DATA_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "darboux" / "data"
DOCS_DIR = pathlib.Path(__file__).resolve().parents[1] / "docs" / "adjudication"


def _jsonl(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def _substituted_side(anh, shift, k, us):
    """Oracle: (sn, cn, dn)(a (u + b), kappa) of one row's substitution at the
    modulus k, from its own jacobi_sn_cn_dn call."""
    a, b, kappa = _printed_substitution(anh, shift, k)
    return np.array(jacobi_sn_cn_dn(a * (us + b), kappa))


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
        assert len(report.records) == 127

    def test_each_side_evaluated_once_per_modulus(self):
        # per modulus: one old side and one original potential; per
        # (anharmonic type, modulus): one theta sum for the four rows'
        # substituted sides and one for their potentials; each glyph
        # quotient once; the scalar theta loop and the AGM run only for the
        # lambda/e-value checks and the quarter periods
        import cProfile
        import pstats

        identity_harness()
        prof = cProfile.Profile()
        prof.runcall(identity_harness)
        calls = {name: n for (_, _, name), (_, n, *_) in pstats.Stats(prof).stats.items()}
        assert calls["_theta_all"] <= 100 and calls["_agm"] <= 100
        assert calls["jacobi_sn_cn_dn"] == 42
        assert calls["darboux_potential"] == 3
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
        assert ("accessory", "D", "gamma") in repaired
        assert len(report.repairs) >= 4

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
        new, old = _type_sides("I", 0.6, us)[0][:, 0], jacobi_sn_cn_dn(us, 0.6)
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


def _joint_records_scoring_every_candidate(k_values, u_grid, tol):
    """Oracle: the joint table's 72 glyph records with all 432 candidates of
    every field scored on the whole (k, u) sample."""
    ks, us = [complex(k) for k in k_values], np.array(u_grid, dtype=complex)
    rhs, scale = _candidate_sides(ks, us)
    records = []
    for name, (_, printed_entries) in PRINTED_ROWS.items():
        new = np.moveaxis(np.array([_substituted_side(name[0], adjudicated_shift(name), k, us)
                                    for k in ks]), 1, 0)
        errs = _entry_errors(new[:, None, None], rhs, scale).reshape(3, len(_CANDIDATES))
        for fld, printed, row_errs in zip(("sn", "cn", "dn"), printed_entries, errs):
            err = float(row_errs[_CANDIDATES.index(printed)])
            hits = [(_CANDIDATES[i], float(row_errs[i])) for i in np.flatnonzero(row_errs < tol)]
            records.append(_adopt("joint", name, fld, printed, err, hits, f"printed entry off by {err:.2e}",
                                  show=lambda e: str(GlyphEntry(*e)))[1])
    return records


def _sigma_one_row_at_a_time(name, k):
    """Oracle: one row's sigma from four separate lattice classifications."""
    k = complex(k)
    a, b, kappa = _printed_substitution(name[0], adjudicated_shift(name), k)
    md = ModulusData.from_modulus(k)
    old_points = singular_points(k)
    perm = []
    for s in singular_points(kappa):
        dists = _lattice_remainder(s / a - b - np.array(old_points), 2 * md.K, 2j * md.Kp)
        j = int(np.argmin(dists))
        assert dists[j] <= 1e-8
        perm.append(j)
    return tuple(perm)


#: (k_values, u_grid) samples the two-stage scoring is checked on; None is the default grid
SAMPLES = [((0.3, 0.6, 0.9), None), ((2**-0.5,), None), ((0.5 + 0.3j, 1.5, 0.6j), None),
           ((0.6,), [0.41 + 0.1j, 0.9 - 0.2j, 1.2 + 0.25j])]


class TestScoringOnlyWhatTheRecordsRead:
    """The joint table scores on the whole sample only the candidates that pass
    at its first point, and sigma classifies all rows in one lattice pass; the
    records stay those of scoring everything, byte for byte."""

    @pytest.mark.parametrize("tol", [1e-17, 1e-10, 1e-6])
    @pytest.mark.parametrize("ks, us", SAMPLES)
    def test_joint_records_match_scoring_every_candidate(self, ks, us, tol):
        _, records = adjudicate_joint_table(ks, us, tol)
        want = _joint_records_scoring_every_candidate(ks, _default_u_grid() if us is None else us, tol)
        assert [r.as_json() for r in records if r.fld != "substitution"] == [r.as_json() for r in want]

    @pytest.mark.parametrize("ks, us", SAMPLES)
    def test_sigma_records_match_the_row_loop(self, ks, us):
        want = []
        for name in PRINTED_ROWS:
            derived = {_sigma_one_row_at_a_time(name, k) for k in ks}
            ok = derived == {PRINTED_SIGMAS[name]}
            want.append(CheckRecord("sigma", name, "perm", "ok" if ok else "failed", 0.0 if ok else math.inf,
                                    str(PRINTED_SIGMAS[name]), str(sorted(derived)[0])))
        assert [r.as_json() for r in adjudicate_sigmas(ks)] == [r.as_json() for r in want]

    @pytest.mark.parametrize("ks, most", [((0.3, 0.6, 0.9), 2), ((2**-0.5,), 4)])
    def test_few_candidates_reach_the_whole_sample(self, ks, most, monkeypatch):
        # a whole-sample call's lhs holds one field's side per candidate scored
        whole = []

        def spy(lhs, rhs, scale):
            if lhs.shape[-2:] == (len(ks), len(_default_u_grid())):
                whole.extend(side.tobytes() for side in lhs)
            return _entry_errors(lhs, rhs, scale)

        monkeypatch.setattr(verify, "_entry_errors", spy)
        adjudicate_joint_table(ks)
        per_field = {side: whole.count(side) for side in whole}
        assert len(per_field) == 72 and max(per_field.values()) <= most


def _accessory_records_row_by_row(k_values, tol):
    """Oracle: the accessory-map records with every row's substituted
    potential from its own darboux_potential call, per row and modulus."""
    params = (0.23, -0.41, 0.57, 1.13)
    h = 0.77
    S = sum(g * (g + 1) for g in params)
    us = np.array([0.31 + 0.12j, 0.77 - 0.2j, 1.1 + 0.33j])
    ks = [complex(k) for k in k_values]
    gammas = verify._GAMMAS
    lhs = [h - darboux_potential(us, ParamTuple(*params, h=0, k=k)) for k in ks]
    ti, tk, tkp = np.array(gammas[1:]).T
    shifted = [h + S * np.append(0, 1j**ti * k**tk * cmath.sqrt(1 - k * k) ** tkp) for k in ks]
    records = []
    for X in symmetry.ANH_TAGS:
        printed = verify.PRINTED_GAMMA[X]
        outside = verify.PRINTED_OFF_FAMILY.get(printed)
        terms = []
        for name in (f"{X}{i}" for i in range(4)):
            newp = tuple(params[j] for j in PRINTED_SIGMAS[name])
            for k, side, num in zip(ks, lhs, shifted):
                a, b, kappa = _printed_substitution(X, adjudicated_shift(name), k)
                hX = np.append(num / (a * a), [outside(h, S, k)] if outside else [])
                pot = darboux_potential(a * (us + b), ParamTuple(*newp, h=0, k=kappa))
                terms.append((side, a * a, hX, pot))
        side, a2, hX, pot = map(np.array, zip(*terms))
        rhs = a2[:, None, None] * (hX[:, :, None] - pot[:, None])
        errs = np.max(np.abs(side[:, None] - rhs) / np.maximum(1.0, np.abs(side[:, None])), axis=(0, 2))
        err = float(errs[-1] if outside else errs[gammas.index(printed)])
        hits = [(gammas[j], float(errs[j])) for j in np.flatnonzero(errs[:len(gammas)] < tol)]
        records.append(_adopt("accessory", X, "gamma", printed, err, hits,
                              "the covariance identity fixes h_X = (h + gamma*S)/a^2",
                              show=lambda g: g if isinstance(g, str) else symmetry.scalar_repr(g) if g else "0")[1])
    return records


def _variant_evidence_one_residual_call_each(k_values):
    """Oracle: the variant adjudicator's evidence from one ode_residual call
    per (tuple, modulus, variant), on the series callable."""
    evidence = []
    for exps in [(0, 0, 0, 3), (0, 0, -1, 2), (0, -1, -1, 1), (0, -1, 0, 2)]:
        for k in map(complex, k_values):
            base = ParamTuple(*exps, h=0.0, k=k)
            q = termination_check(base)
            grid = np.linspace(0.25, 0.8, 7) * complete_elliptic(k)[0].real
            eig = polynomial_eigenvalues(base, q)[0]
            p = ParamTuple(*exps, h=eig, k=k)
            coeffs = dl_coefficients(p, max(8, 2 * q + 4), mode="forward")
            for variant, h in (("corrected", eig), ("paper", eig - printed_l_shift(exps[0], k))):
                rep = ode_residual(lambda u: dl_eval(p, u, coeffs=coeffs), ParamTuple(*exps, h=h, k=k), grid)
                evidence.append(VariantEvidence(exps, k, variant, complex(h), rep.max_relative_residual))
    return evidence


#: the distinct modulus samples of SAMPLES, for the checks that take no u grid
MODULUS_SAMPLES = [ks for ks, _ in SAMPLES[:3]]


class TestOneThetaSumPerTypeAndModulus:
    """The harness evaluates the four rows of an anharmonic type in one theta
    sum per modulus, and the variant adjudicator its stencil in one per
    modulus; every record and every piece of evidence keeps its bytes."""

    def test_type_sides_are_the_row_loop(self):
        # 24 rows x 3 sides x 8 points x 7 moduli: 4,032 values
        us = np.array(_default_u_grid())
        for k in (0.3, 0.6, 0.9, 2**-0.5, 0.5 + 0.3j, 1.5, 0.6j):
            for X in symmetry.ANH_TAGS:
                sides, a, kappa = _type_sides(X, complex(k), us)
                rows = [_substituted_side(X, adjudicated_shift(f"{X}{i}"), complex(k), us) for i in range(4)]
                assert (a, kappa) == _printed_substitution(X, 0, complex(k))[::2]
                assert sides.dtype == complex and sides.tobytes() == np.stack(rows, axis=1).tobytes()

    @pytest.mark.parametrize("tol", [1e-17, 1e-10, 1e-6])
    @pytest.mark.parametrize("ks", MODULUS_SAMPLES)
    def test_accessory_records_match_the_row_loop(self, ks, tol):
        _, records = adjudicate_accessory_maps(ks, tol)
        assert [r.as_json() for r in records] == [r.as_json() for r in _accessory_records_row_by_row(ks, tol)]

    @pytest.mark.parametrize("ks", MODULUS_SAMPLES)
    def test_variant_evidence_matches_one_residual_call_each(self, ks):
        _, evidence = lvariant_adjudicator(k_values=ks)
        want = _variant_evidence_one_residual_call_each(ks)
        assert [e.as_json() for e in evidence] == [e.as_json() for e in want]

    def test_theta_sums_per_run(self, monkeypatch):
        sizes = []

        def spy(u, k):
            sizes.append(np.size(u))
            return jacobi_sn_cn_dn(u, k)

        for module in (verify, series):
            monkeypatch.setattr(module, "jacobi_sn_cn_dn", spy)
        identity_harness()
        # per modulus: the candidates' sides and the original potential; per
        # (type, modulus): the four rows' substituted sides and their potentials
        assert len(sizes) == 3 * 2 + 6 * 3 * 2 == 42
        sizes.clear()
        lvariant_adjudicator()
        assert sizes == [7 * 7] * 3     # one 7-point stencil on the 7-point grid per modulus


class TestSigmaNearZeroModulus:
    """Near k = 0, kappa = 1/k' is within roundoff of 1 and some rows'
    preimages miss the old singular points: those rows fail, typed as data."""

    @pytest.mark.parametrize("k, missed", [(1e-4, "D"), (1e-6, "BD")])
    def test_missed_rows_fail_and_the_others_stand(self, k, missed):
        records = adjudicate_sigmas((k,))
        assert [r.row for r in records] == list(PRINTED_ROWS)
        for r in records:
            if r.row[0] in missed:
                assert (r.status, r.max_error, r.printed, r.adopted) == (
                    "failed", math.inf, str(PRINTED_SIGMAS[r.row]), "")
                found = re.fullmatch(r"at k = (\S+) a preimage is (\S+) from the nearest singular point "
                                     r"\(> 1e-08\)", r.note)
                assert found and complex(found[1]) == k and float(found[2]) > 1e-8
            else:
                assert r.as_json() == CheckRecord("sigma", r.row, "perm", "ok", 0.0, str(PRINTED_SIGMAS[r.row]),
                                                  str(_sigma_one_row_at_a_time(r.row, k))).as_json()

    def test_harness_reports_instead_of_raising(self):
        report = identity_harness(k_values=(1e-4,))
        assert len(report.records) == 127
        assert {r.row for r in report.failures if r.table == "sigma"} == {"D0", "D1", "D2", "D3"}


class TestDegenerateModulus:
    @pytest.mark.parametrize("ks", [(1.0,), (0,), (-1,), (0.6, 1.0)], ids=["1", "0", "-1", "0.6,1"])
    @pytest.mark.parametrize("call", [
        adjudicate_joint_table, adjudicate_quarter_periods, adjudicate_sigmas, adjudicate_accessory_maps,
        identity_harness, regenerate_tables, lambda k_values: lvariant_adjudicator(k_values=k_values),
    ], ids=["joint", "quarter", "sigma", "accessory", "harness", "regenerate", "lvariant"])
    def test_refused_with_a_type(self, call, ks):
        with pytest.raises(DegenerateModulus):
            call(k_values=ks)


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

    def test_rho_gated_at_tol(self):
        # the identity's pairing is exact; the others' errors are rounding (~1e-15)
        _, records = adjudicate_lambda_pairings(tol=1e-17)
        assert {r.row: r.status for r in records if r.table == "rho"} == {
            "I": "ok", "A": "failed", "B": "failed", "C": "failed", "D": "failed", "E": "failed"}

    def test_harness_at_k_equal_kp(self):
        # k = k' = 1/sqrt(2): k and k' cannot be told apart, so no glyph
        # entry or quarter period is decided
        report = identity_harness(k_values=(2**-0.5,))
        glyphs = [r for r in report.records if r.table == "joint" and r.fld != "substitution"]
        quarters = [r for r in report.records if r.table == "quarter"]
        assert len(glyphs) == 72 and all(r.status == "failed" for r in glyphs)
        assert len(quarters) == 12 and all(r.status == "failed" for r in quarters)
        assert all(r.note.endswith("candidates passed") for r in glyphs + quarters)
        # gamma = 0 of I and C is told apart from every token; the others are not
        accessory = {r.row: r for r in report.records if r.table == "accessory"}
        assert {X: r.status for X, r in accessory.items()} == {
            "I": "ok", "A": "failed", "B": "failed", "C": "ok", "D": "failed", "E": "failed"}
        assert all(accessory[X].note.endswith("candidates passed") for X in "ABDE")


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
        assert json.loads(json.dumps(anh_records)) == _jsonl(DATA_DIR / "anh_elements.jsonl")
        assert json.loads(json.dumps(row_records)) == _jsonl(DATA_DIR / "transform_rows.jsonl")

    #: The gate each repair record's max_error was adopted at, by table.
    REPAIR_GATES = {"joint": 1e-10, "quarter": 1e-10, "lambda": 1e-10, "rho": 1e-10, "accessory": 1e-10}

    @staticmethod
    def _shipped(name):
        return _jsonl(DOCS_DIR / name)

    def _check_repair_log(self, fresh):
        # the floats follow the last bits of the kernels; each stays on its side of its gate
        shipped = self._shipped("table_repairs.jsonl")
        assert len(fresh) == len(shipped)
        for got, want in zip(fresh, shipped):
            err, gate = got.pop("max_error"), self.REPAIR_GATES[got["table"]]
            assert got == {f: v for f, v in want.items() if f != "max_error"}
            assert (math.isnan(err), err < gate) == (math.isnan(want["max_error"]), want["max_error"] < gate)

    def _check_variant_evidence(self, fresh):
        shipped = self._shipped("lvariant_evidence.jsonl")
        assert len(fresh) == len(shipped) and fresh[0] == shipped[0]   # the verdict line
        for got, want in zip(fresh[1:], shipped[1:]):
            res, eig = got.pop("residual"), complex(got.pop("eigenvalue"))
            assert got == {f: v for f, v in want.items() if f not in ("residual", "eigenvalue")}
            assert eig == pytest.approx(complex(want["eigenvalue"]), rel=1e-12)
            assert (res <= 1e-6) == (want["residual"] <= 1e-6)   # the adjudicator's accept gate

    def test_shipped_repair_log_matches_the_harness(self):
        _, _, report = regenerate_tables()
        self._check_repair_log([json.loads(r.as_json()) for r in report.records if r.status != "ok"])

    def test_shipped_variant_evidence_matches_the_adjudicator(self):
        verdict, evidence = lvariant_adjudicator()
        self._check_variant_evidence([{"verdict": verdict}, *(json.loads(e.as_json()) for e in evidence)])

    def test_emit_docs_writes_the_shipped_files(self, tmp_path, capsys):
        assert main(["verify", "--emit-docs", str(tmp_path)]) == EXIT_OK
        for name in ("anh_elements.jsonl", "transform_rows.jsonl"):
            assert (tmp_path / "data" / name).read_bytes() == (DATA_DIR / name).read_bytes()
        self._check_repair_log(_jsonl(tmp_path / "table_repairs.jsonl"))
        self._check_variant_evidence(_jsonl(tmp_path / "lvariant_evidence.jsonl"))

    def test_emit_docs_logs_the_failures_it_prints(self, tmp_path, capsys):
        # at a tolerance below rounding most fields fail; the log is of the same run
        assert main(["verify", "--tol", "1e-17", "--emit-docs", str(tmp_path)]) == EXIT_VERIFY
        printed = {(r["check"], r["row"], r["field"])
                   for r in map(json.loads, capsys.readouterr().out.splitlines()) if r.get("status") == "failed"}
        written = {(r["table"], r["row"], r["fld"])
                   for r in _jsonl(tmp_path / "table_repairs.jsonl") if r["status"] == "failed"}
        assert printed and written == printed
        # --tol reaches the accessory maps too: their errors reach ~9e-15
        assert {row for check, row, _ in printed if check == "accessory"} == set("IABCDE")

    def test_emit_docs_at_a_failing_tol_writes_loadable_tables(self, tmp_path, monkeypatch, capsys):
        # every failed field keeps its printed reading; row D's gamma is off
        # the token family, so it stays a string that accessory_map refuses
        assert main(["verify", "--tol", "1e-17", "--emit-docs", str(tmp_path)]) == EXIT_VERIFY
        tables = symmetry._read_tables(tmp_path / "data")
        anh, rows = tables
        assert set(anh) == set(symmetry.ANH_TAGS) and len(rows) == 24
        assert anh["D"].gamma == verify.PRINTED_GAMMA["D"]
        monkeypatch.setattr(symmetry, "_load_tables", lambda: tables)
        with pytest.raises(InconclusiveAdjudication, match=r"^accessory map of D: field gamma "):
            symmetry.accessory_map("D", 0.77, 1.94, 0.6)
        for X in "IABCE":   # on-family printed tokens still give a value
            assert cmath.isfinite(symmetry.accessory_map(X, 0.77, 1.94, 0.6))

    def test_emit_docs_runs_each_adjudicator_once(self, tmp_path, monkeypatch, capsys):
        calls = {}

        def spy(name):
            real = getattr(verify, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return real(*args, **kwargs)
            return counted

        names = [n for n in dir(verify) if n.startswith("adjudicate_")] + ["lvariant_adjudicator"]
        assert len(names) == 6
        for name in names:
            monkeypatch.setattr(verify, name, spy(name))
        assert main(["verify", "--emit-docs", str(tmp_path)]) == EXIT_OK
        assert calls == dict.fromkeys(names, 1)

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
        assert printed_l_shift(-1, complex(K)) == 0
        verdict, (a, b) = lvariant_adjudicator(tuples=[(-1, 0, 0, 2)], k_values=(K,))
        assert verdict == "corrected" and (a.variant, b.variant) == ("corrected", "paper")
        assert (a.eigenvalue, a.residual) == (b.eigenvalue, b.residual) and a.residual <= 1e-6

    def test_verdict_stable_across_k(self):
        for k in (0.3, 0.9):
            verdict, _ = lvariant_adjudicator(
                tuples=[(0, 0, 0, 3), (0, 0, -1, 2)], k_values=(k,)
            )
            assert verdict == "corrected"

    def test_neither_variant_passing_is_inconclusive(self):
        with pytest.raises(InconclusiveAdjudication):
            lvariant_adjudicator(tuples=[(0, 0, 0, 3)], k_values=(0.6,), accept=1e-30)

    def test_non_terminating_tuple_refused_with_a_type(self):
        with pytest.raises(DegenerateRecursion, match=r"tuple \(0\.5, 0, 0, 0\) does not terminate"):
            lvariant_adjudicator(tuples=[(0.5, 0, 0, 0)])

    def test_evidence_file_versioned(self):
        text = (DOCS_DIR / "lvariant_evidence.jsonl").read_text()
        lines = [json.loads(line) for line in text.splitlines() if line]
        assert lines[0] == {"verdict": "corrected"}
        assert len(lines) > 10
