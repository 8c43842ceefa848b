"""Tests for the Morse index assembly and the structural checks.

Frozen integers below follow from the frozen eigenvalues in
test_spectrum.py by pure arithmetic.  For alpha=0, p=3, two nodal domains
(lambda_1 = -14.77002261, lambda_2 = -0.9079707):

    k_max = ceil(sqrt(14.77...)) = 4;
    lambda_1 + k^2 < 0 for k = 1, 2, 3 and lambda_2 + k^2 > 0 for all k,
    so the counts per k are (1, 1, 1, 0) and m_total = 2 + 2 * 3 = 8.

For alpha=2 every eigenvalue is exactly 4x the alpha=0 one (the log
variable rescales), giving counts (2, 1, 1, 1, 1, 1, 1, 0) and m = 18.
"""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

import henon_morse.cli as cli
import henon_morse.morse as morse_mod
import henon_morse.spectrum as spectrum_mod
from henon_morse import (
    HenonParams,
    NonConvergenceError,
    ThresholdTieError,
    TwoRouteError,
    UsageError,
    assemble_morse,
    check_lower_bounds,
    large_exponent_probe,
    solve_nodal,
    solve_point,
    sweep_from_reports,
)
from henon_morse.config import DEFAULT
from henon_morse.io import dumps_canonical, morse_document
from henon_morse.spectrum import RadialSpectrum, build_schrodinger


def _counts_agreeing_with(lambdas):
    """A stand-in for ``oscillation_counts`` that agrees with route A on
    the given eigenvalues: #{j : lambda_j < -w^2} for each wave number w,
    every angle pi/2 from a multiple of pi."""
    lam = np.asarray(lambdas)
    return lambda prof, waves, settings=None: (
        np.array([np.sum(lam < -w * w) for w in waves]), math.pi / 2.0)


def _spy_route_c(monkeypatch, edit=lambda rtol, waves, counts: counts):
    """Wraps route C as ``spectrum.confirm_counts`` calls it: records the
    (rtol, atol) of every pass, and returns what ``edit`` makes of the
    pass's ``(counts, margin)`` pair."""
    passes = []
    real = spectrum_mod.oscillation_counts

    def spy(prof, waves, settings):
        passes.append((settings.rtol, settings.atol))
        return edit(settings.rtol, waves, real(prof, waves, settings))

    monkeypatch.setattr(spectrum_mod, "oscillation_counts", spy)
    return passes


def _miscounting_two_at(rtols):
    """An ``edit`` of ``_spy_route_c`` that counts w = 2 one too many on
    the passes whose rtol is in ``rtols``."""
    def edit(rtol, waves, counts):
        if rtol not in rtols:
            return counts
        return counts[0] + (np.asarray(waves) == 2.0), counts[1]
    return edit


# The passes of route C's ladder at the default tolerances.
COARSE, WORKING, FINE = ((1000.0 * DEFAULT.rtol, 1000.0 * DEFAULT.atol),
                         (DEFAULT.rtol, DEFAULT.atol),
                         (DEFAULT.rtol / 100.0, DEFAULT.atol / 100.0))


@pytest.fixture(scope="module")
def case_132():
    """(1, 3, 2), s = 3/2: the profile and its report's document."""
    profile = solve_nodal(HenonParams(alpha=1.0, p=3.0, n_nodal=2))
    return profile, assemble_morse(profile).to_dict()


@pytest.fixture(scope="module")
def report_032():
    return assemble_morse(solve_nodal(HenonParams(alpha=0.0, p=3.0, n_nodal=2)))


@pytest.fixture(scope="module")
def report_232():
    return assemble_morse(solve_nodal(HenonParams(alpha=2.0, p=3.0, n_nodal=2)))


class TestAssembly:
    def test_known_index_unweighted(self, report_032):
        assert report_032.m_rad == 2
        assert report_032.k_max == 4
        assert report_032.mode_counts_per_k == (1, 1, 1, 0)
        assert report_032.negative_modes == ((1, 2, 3), ())
        assert report_032.m_total == 8
        assert report_032.route_b_total == 8

    def test_known_index_even_weight(self, report_232):
        assert report_232.m_rad == 2
        assert report_232.mode_counts_per_k == (2, 1, 1, 1, 1, 1, 1, 0)
        assert report_232.m_total == 18

    def test_tabulations_are_transposes(self, report_032, report_232):
        for rep in (report_032, report_232):
            assert sum(rep.mode_counts_per_k) == sum(len(m) for m in rep.negative_modes)
            assert rep.m_total == rep.m_rad + 2 * sum(rep.mode_counts_per_k)
            assert rep.m_total == rep.route_b_total
            assert (rep.m_total - rep.m_rad) % 2 == 0

    def test_k_max_is_sharp(self, report_032, report_232):
        for rep in (report_032, report_232):
            assert rep.mode_counts_per_k[-1] == 0
            if rep.k_max >= 2:
                assert rep.mode_counts_per_k[-2] >= 1

    def test_report_serializes(self, report_032):
        payload = report_032.to_dict()
        text = json.dumps(payload)
        assert json.loads(text)["m_total"] == 8
        assert payload["angular_counts"] == [[1, 2, 3], []]
        assert payload["route_b_total"] == 8
        assert payload["n"] == 2

    def test_morse_document_has_the_fields_the_benchmark_reads(self, report_232):
        """The keys ``perfbench/workloads.py`` reads from a ``morse``
        document; a renamed key fails here, not in the benchmark."""
        doc = json.loads(dumps_canonical(
            morse_document(report_232, check_lower_bounds(report_232))))
        assert (doc["alpha"], doc["p"], doc["n"]) == (2.0, 3.0, 2)
        for key in ("m_rad", "m_total", "route_b_total"):
            assert isinstance(doc[key], int), key
        assert len(doc["lambdas"]) == doc["m_rad"]
        assert doc["bounds"] and all(isinstance(b["pass"], bool)
                                     for b in doc["bounds"])

    @pytest.mark.parametrize("wave,count", [(0.0, 2), (2.0, 1), (4.5, 1)])
    def test_a_miscounted_wave_raises(self, monkeypatch, wave, count):
        """At (1, 3, 2), s = 3/2: the one solve counts the point's k = 0..6
        and the companion's s k = 1.5, 3, 4.5, 6, each distinct wave number
        once.  A miscount at any of them (the radial w = 0, the point's own
        k = 2, or 4.5, which only the companion reads) is a two-route
        failure naming that wave and both counts."""
        profile = solve_nodal(HenonParams(alpha=1.0, p=3.0, n_nodal=2))
        real = spectrum_mod.oscillation_counts
        seen = []

        def miscounting(prof, waves, settings):
            seen.append(list(waves))
            counts, margin = real(prof, waves, settings)
            return counts + (np.asarray(waves) == wave), margin

        monkeypatch.setattr(spectrum_mod, "oscillation_counts", miscounting)
        with pytest.raises(TwoRouteError) as err:
            assemble_morse(profile)
        assert "Sturm oscillation counts" in str(err.value)
        assert seen and all(
            waves == [0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5, 5.0, 6.0]
            for waves in seen)
        context = err.value.context
        assert context["wave_numbers"] == seen[0]
        differing = [(w, a, b) for w, a, b in zip(
            context["wave_numbers"], context["decomposition"],
            context["oscillation_route"]) if a != b]
        assert differing == [(wave, count, count + 1)]

    def test_a_coarse_miscount_is_recounted(self, monkeypatch, case_132):
        """A count that only the coarse pass gets wrong is counted again at
        the working rtol, and the point reports as if route C had been
        right at once."""
        profile, expected = case_132
        passes = _spy_route_c(monkeypatch, _miscounting_two_at({COARSE[0]}))
        assert assemble_morse(profile).to_dict() == expected
        assert passes == [COARSE, WORKING]

    def test_a_recounted_miscount_carries_the_recount(self, monkeypatch,
                                                      case_132):
        """A count wrong on every pass is refused after the last pass, at
        rtol / 100, with that pass's counts, margin and rtol."""
        profile, _ = case_132
        waves = [0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5, 5.0, 6.0]
        fine, fine_margin = spectrum_mod.oscillation_counts(
            profile, waves, replace(DEFAULT, rtol=FINE[0], atol=FINE[1]))
        passes = _spy_route_c(monkeypatch, _miscounting_two_at(
            {COARSE[0], WORKING[0], FINE[0]}))
        with pytest.raises(TwoRouteError) as err:
            assemble_morse(profile)
        assert passes == [COARSE, WORKING, FINE]
        context = err.value.context
        assert context["oscillation_route"] == [
            c + (w == 2.0) for c, w in zip(fine, waves)]
        assert context["oscillation_rtol"] == 1e-12
        assert context["oscillation_margin"] == fine_margin
        assert context["oscillation_margin"] >= 1e-3

    def test_threshold_tie_raises(self, monkeypatch):
        profile = solve_nodal(HenonParams(alpha=0.0, p=3.0, n_nodal=1))

        def fake_spectrum(problem, settings=None):
            eig_tol = settings.eig_tol if settings is not None else 1e-8
            return RadialSpectrum(
                lambdas=np.array([-4.0 - 1e-12, -1.5]),
                T=problem.T, M=problem.M, eig_tol=eig_tol, discrepancy=eig_tol)

        monkeypatch.setattr(morse_mod, "negative_spectrum", fake_spectrum)
        with pytest.raises(ThresholdTieError) as err:
            assemble_morse(profile)
        assert "threshold" in str(err.value)
        assert isinstance(err.value, NonConvergenceError)
        assert err.value.context["eig_tol"] == 1e-9
        assert err.value.context["scaled_tie_distance"] < 1e-8
        assert cli.main(["morse", "--alpha", "0", "--p", "3",
                         "--nodes", "1"]) == 2

    def test_tie_retry_tightens_eig_tol_once(self, monkeypatch):
        profile = solve_nodal(HenonParams(alpha=0.0, p=3.0, n_nodal=1))
        seen = []

        def fake_spectrum(problem, settings):
            seen.append(settings.eig_tol)
            lam = -4.0 - (1e-12 if len(seen) == 1 else 1e-3)
            return RadialSpectrum(lambdas=np.array([lam]), T=problem.T,
                                  M=problem.M, eig_tol=settings.eig_tol,
                                  discrepancy=settings.eig_tol)

        monkeypatch.setattr(morse_mod, "negative_spectrum", fake_spectrum)
        monkeypatch.setattr(spectrum_mod, "oscillation_counts",
                            _counts_agreeing_with([-4.0 - 1e-3]))
        report = assemble_morse(profile)
        assert seen == [1e-8, 1e-9]
        assert report.tolerances["eig_tol"] == 1e-9
        assert report.tolerances["scaled_tie_distance"] == pytest.approx(1e-3 / 5.0)
        assert report.mode_counts_per_k == (1, 1, 0)

    @pytest.mark.parametrize("discrepancy,passes", [
        (5e-10, [1e-8, 1e-9]), (1e-9, [1e-8, 1e-9]), (5e-9, [1e-8, 1e-9]),
        (1e-8, [1e-8, 1e-9])])
    def test_tie_retry_always_reruns_the_ladder(self, monkeypatch,
                                                discrepancy, passes):
        """No ladder is reused, however tight: the tighter pass always runs
        the ladder at eig_tol / 10, whatever discrepancy the first ladder
        was accepted with."""
        profile = solve_nodal(HenonParams(alpha=0.0, p=3.0, n_nodal=1))
        seen = []
        lam = -4.0 - 1e-7  # tie distance 2e-8: a tie at 1e-8, none at 1e-9

        def fake_spectrum(problem, settings):
            seen.append(settings.eig_tol)
            return RadialSpectrum(lambdas=np.array([lam]), T=problem.T,
                                  M=problem.M, eig_tol=settings.eig_tol,
                                  discrepancy=discrepancy)

        monkeypatch.setattr(morse_mod, "negative_spectrum", fake_spectrum)
        monkeypatch.setattr(spectrum_mod, "oscillation_counts",
                            _counts_agreeing_with([lam]))
        report = assemble_morse(profile)
        assert seen == passes
        assert report.tolerances["eig_tol"] == 1e-9
        assert report.lambdas.tolist() == [lam]
        assert report.tolerances["scaled_tie_distance"] == pytest.approx(2e-8)

    def test_real_tie_is_refused_after_the_tighter_ladder(self, monkeypatch):
        """At (2, 30, 2) lambda_2 sits within 1e-12 of -4 = -2^2, so the
        tighter pass runs the ladder again at eig_tol / 10, and the refusal
        carries, bit for bit, the lambdas of that ladder on the problem
        built at the working tolerance.  With s = 2 it also carries the
        companion's distance, that of lambda_j / 4 from -k^2."""
        calls = []
        real = morse_mod.negative_spectrum

        def counting(problem, settings):
            calls.append(settings.eig_tol)
            return real(problem, settings)

        monkeypatch.setattr(morse_mod, "negative_spectrum", counting)
        with pytest.raises(ThresholdTieError) as err:
            solve_point(2.0, 30.0, 2)
        assert calls == [1e-8, 1e-9]
        profile = solve_nodal(HenonParams(alpha=2.0, p=30.0, n_nodal=2))
        tight = replace(DEFAULT, eig_tol=1e-9)
        lambdas = real(build_schrodinger(profile), tight).lambdas
        assert err.value.context["lambdas"] == lambdas.tolist()
        assert err.value.context == {
            "lambdas": lambdas.tolist(),
            "scaled_tie_distance": morse_mod._tie_distance(lambdas, 10),
            "eig_tol": 1e-9,
            "companion_scaled_tie_distance": morse_mod._tie_distance(
                lambdas / 4.0, 5)}

    def test_tie_retry_builds_the_problem_once(self, monkeypatch):
        """The tighter pass reruns the ladder on the first pass's problem:
        a rebuild at eig_tol / 10 would move the cut-off."""
        profile = solve_nodal(HenonParams(alpha=0.0, p=3.0, n_nodal=1))
        builds, problems = [], []
        real_build = morse_mod.build_schrodinger

        def counting_build(prof, settings):
            builds.append(settings.eig_tol)
            return real_build(prof, settings)

        def fake_spectrum(problem, settings):
            problems.append(problem)
            lam = -4.0 - (1e-12 if len(problems) == 1 else 1e-3)
            return RadialSpectrum(lambdas=np.array([lam]), T=problem.T,
                                  M=problem.M, eig_tol=settings.eig_tol,
                                  discrepancy=settings.eig_tol)

        monkeypatch.setattr(morse_mod, "build_schrodinger", counting_build)
        monkeypatch.setattr(morse_mod, "negative_spectrum", fake_spectrum)
        monkeypatch.setattr(spectrum_mod, "oscillation_counts",
                            _counts_agreeing_with([-4.0 - 1e-3]))
        assemble_morse(profile)
        assert builds == [1e-8]
        assert len(problems) == 2 and problems[0] is problems[1]

    def test_empty_tightened_spectrum_raises(self, monkeypatch):
        profile = solve_nodal(HenonParams(alpha=0.0, p=3.0, n_nodal=1))
        passes = []

        def fake_spectrum(problem, settings):
            passes.append(settings.eig_tol)
            lambdas = [-4.0 - 1e-12] if len(passes) == 1 else []
            return RadialSpectrum(lambdas=np.array(lambdas), T=problem.T,
                                  M=problem.M, eig_tol=settings.eig_tol,
                                  discrepancy=settings.eig_tol)

        monkeypatch.setattr(morse_mod, "negative_spectrum", fake_spectrum)
        with pytest.raises(NonConvergenceError) as err:
            assemble_morse(profile)
        assert len(passes) == 2
        assert "no negative radial eigenvalues" in str(err.value)

    def test_refused_empty_spectrum_carries_its_evidence(self):
        """At (0, 1.05, 1) route A finds no negative eigenvalue, while the
        oscillation count gives the radial index 1 a positive solution must
        have.  The refusal reports both, with the mesh and the depth of V.
        The mesh is at least the ladder's earliest stop, and its finest cell
        is no wider than the uniform M = 8192 cell, T / 8192."""
        profile = solve_nodal(HenonParams(alpha=0.0, p=1.05, n_nodal=1))
        with pytest.raises(NonConvergenceError) as err:
            assemble_morse(profile)
        assert "no negative radial eigenvalues" in str(err.value)
        context = err.value.context
        assert context["oscillation_radial_count"] == 1
        problem = build_schrodinger(profile)
        M = context["spectrum_M"]
        assert M >= 4 * problem.M
        finest = np.diff(problem.mesh((M // problem.M).bit_length() - 1)).min()
        assert finest <= context["spectrum_T"] / 8192
        assert context["spectrum_T"] > 0.0
        assert context["min_V"] < 0.0

    @pytest.mark.parametrize("alpha,p,n,m_total", [
        (5.0, 5.0, 3, 93), (8.5, 3.0, 2, 52), (10.5, 3.0, 2, 60),
        (5.5, 3.0, 3, 91)])
    def test_known_route_b_undercounts(self, alpha, p, n, m_total):
        """The finite-element cross-route stopped on an undercounting plateau
        here (one mode short); the oscillation count agrees with route A."""
        _, report = solve_point(alpha, p, n)
        assert report.m_total == m_total
        assert report.route_b_total == report.m_total

    def test_fractional_p_below_two_converges(self):
        """(0, 1.8, 2) used to climb to M = 131072 and stop there inside the
        roundoff floor.  On the nested corner mesh with the hat-averaged
        potential its ladder stops by M = 16384, and both routes give 8."""
        _, report = solve_point(0.0, 1.8, 2)
        assert report.m_rad == 2
        assert report.m_total == report.route_b_total == 8
        assert report.tolerances["spectrum_M"] <= 16384

    def test_fractional_p_three_nodes_matches_shooting(self):
        """(0, 1.8, 3) did not stabilize on the corner-swapped mesh.  Now it
        reports with every lower bound holding, as a ``morse`` run's exit 0
        needs, and its eigenvalues agree with an independent shooting solve
        to 1e-7."""
        _, report = solve_point(0.0, 1.8, 3)
        assert report.m_rad == 3
        assert report.route_b_total == report.m_total == 19
        assert all(row["pass"] for row in check_lower_bounds(report))
        shooting = [-34.15787409, -11.97515095, -0.76132417]
        np.testing.assert_allclose(report.lambdas, shooting, rtol=1e-7)

    def test_tighter_eig_tol_converges(self):
        """The ladder's finest rungs sit on a roundoff floor of about 1e-9
        (M >= 32768); from M = 1024, two extrapolants agree to 1e-9 here
        on coarser rungs, before the ladder reaches that floor."""
        _, report = solve_point(4.0, 3.0, 2, replace(DEFAULT, eig_tol=1e-9))
        assert report.m_total == report.route_b_total == 28

    @pytest.mark.parametrize("alpha,p,n", [
        (1.0, 3.0, 2), (2.0, 3.0, 2), (2.5, 3.0, 2), (0.5, 5.0, 3),
        (6.0, 2.0, 1)])
    def test_companion_total_equals_a_direct_solve(self, alpha, p, n):
        """The power map's companion index equals the alpha = 0 point's own
        m_total; (6, 2, 1) sits on the T >= 5 floor of the cut-off.  At
        alpha = 2 (s = 2) every companion wave number s k is an integer and
        merges with a point column; at alpha = 1 and 2.5 (s = 1.5 and 2.25)
        the companion's columns are extra Pruefer components.  Every lower
        bound holds, as a ``morse`` run's exit 0 needs."""
        _, report = solve_point(alpha, p, n)
        assert report.companion_total == solve_point(0.0, p, n)[1].m_total
        assert all(row["pass"] for row in check_lower_bounds(report))

    def test_unweighted_point_counts_its_own_wave_numbers(self, monkeypatch):
        """At alpha = 0 the companion is the point: the solve sees exactly
        the wave numbers 0..k_max."""
        profile = solve_nodal(HenonParams(alpha=0.0, p=3.0, n_nodal=2))
        real = spectrum_mod.oscillation_counts
        seen = []

        def spy(prof, waves, settings):
            seen.append(list(waves))
            return real(prof, waves, settings)

        monkeypatch.setattr(spectrum_mod, "oscillation_counts", spy)
        report = assemble_morse(profile)
        assert seen == [[0.0, 1.0, 2.0, 3.0, 4.0]]
        assert report.companion_total == report.m_total == 8


class TestOscillationLadder:
    """Route C runs at 1000 times rtol and atol, at them and at a
    hundredth of them, each capped at the coarse rung of the defaults, and
    stops at the first pass that agrees with route A with every angle at
    least ``spectrum._MIN_MARGIN`` from a multiple of pi."""

    def test_small_margin_climbs_the_whole_ladder(self, monkeypatch,
                                                  case_132):
        """No margin reaches 2 rad, so every pass runs, each once, and the
        last one's agreeing counts make the same report."""
        profile, expected = case_132
        passes = _spy_route_c(monkeypatch)
        monkeypatch.setattr(spectrum_mod, "_MIN_MARGIN", 2.0)
        assert assemble_morse(profile).to_dict() == expected
        assert passes == [COARSE, WORKING, FINE]

    def test_loose_tolerances_are_capped_at_the_measured_rung(
            self, monkeypatch, case_132):
        """At rtol 1e-6 the rungs 1e-3 and 1e-6 are both capped at the
        default coarse rung, about (1e-7, 1e-9), where the angle error was
        measured; that pass runs once, then the rtol / 100 pass."""
        profile, expected = case_132
        passes = _spy_route_c(monkeypatch)
        monkeypatch.setattr(spectrum_mod, "_MIN_MARGIN", 2.0)
        loose = replace(DEFAULT, rtol=1e-6, atol=1e-8)
        assert assemble_morse(profile, loose).to_dict() == expected
        assert passes == [(pytest.approx(1e-7, rel=1e-12),
                           pytest.approx(1e-9, rel=1e-12)), (1e-8, 1e-10)]

    def test_a_small_coarse_margin_then_a_miscount_runs_each_pass_once(
            self, monkeypatch, case_132):
        """A coarse pass too close to call, then a miscount at the working
        rtol: the ladder goes on to rtol / 100 without repeating the
        working pass, and that pass's agreeing counts make the report."""
        profile, expected = case_132

        def edit(rtol, waves, counts):
            if rtol == COARSE[0]:
                return counts[0], 1e-4
            return _miscounting_two_at({WORKING[0]})(rtol, waves, counts)

        passes = _spy_route_c(monkeypatch, edit)
        assert assemble_morse(profile).to_dict() == expected
        assert passes == [COARSE, WORKING, FINE]

    def test_accepted_coarse_pass_saves_a_quarter_of_the_calls(
            self, monkeypatch, case_132):
        """The right-hand side calls of an assembly whose coarse pass
        stands, against those of one pass at the working tolerance."""
        profile, expected = case_132
        waves = [0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5, 5.0, 6.0]
        calls = [0]
        real = spectrum_mod._prufer_rate

        def counting(*args):
            calls[0] += 1
            return real(*args)

        monkeypatch.setattr(spectrum_mod, "_prufer_rate", counting)
        one_pass = spectrum_mod.oscillation_counts
        passes = _spy_route_c(monkeypatch)
        assert assemble_morse(profile).to_dict() == expected
        assert passes == [COARSE]
        coarse_calls, calls[0] = calls[0], 0
        one_pass(profile, waves)
        assert coarse_calls <= 0.75 * calls[0]

    @pytest.mark.parametrize("alpha,p,n,waves", [
        (0.0, 3.0, 6, [float(k) for k in range(18)]),
        (1.0, 1.05, 3, [0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5, 5.0, 6.0, 7.0,
                        7.5, 8.0]),
    ])
    def test_coarse_rung_error_is_a_ninth_of_the_margin(
            self, monkeypatch, alpha, p, n, waves):
        """At (0, 3, 6) and (1, 1.05, 3), reporting tuples with large
        coarse-rung angle errors, every theta_w(0) of a pass at
        ``spectrum._LOOSEST``, the loosest rung the ladder runs, lies within
        _MIN_MARGIN / 9 of a pass at rtol 1e-13 that starts at t_C for
        eig_tol = eps, which lies below route A's -T, so the bound covers
        the rung's error and the truncation of the coarse pass's later start
        together.  The wave numbers are the ones the assembly counts
        there."""
        profile = solve_nodal(HenonParams(alpha=alpha, p=p, n_nodal=n))
        problem = build_schrodinger(profile)
        starts, ends = [], []
        real = spectrum_mod.dopri5

        def spy(rate, t0, *args):
            starts.append(t0)
            t, theta, idid = real(rate, t0, *args)
            ends.append(np.array(theta))
            return t, theta, idid

        monkeypatch.setattr(spectrum_mod, "dopri5", spy)
        thetas = []
        for settings in (
                replace(DEFAULT, rtol=spectrum_mod._LOOSEST[0],
                        atol=spectrum_mod._LOOSEST[1]),
                replace(DEFAULT, rtol=1e-13, atol=1e-15, eig_tol=math.ulp(1.0))):
            starts.clear()
            spectrum_mod.oscillation_counts(profile, waves, settings)
            thetas.append(ends[-1])  # the pass's last segment ends at t = 0
        t_c = (math.log(math.ulp(1.0)) - math.log(p)
               - (p - 1.0) * math.log(profile.amp)) / (alpha + 2.0)
        assert starts[0] == t_c < -problem.T
        coarse, reference = thetas
        assert 9.0 * np.max(np.abs(coarse - reference)) <= spectrum_mod._MIN_MARGIN


class TestLowerBounds:
    def test_all_bounds_hold_with_companion(self, report_232):
        checks = check_lower_bounds(report_232)
        names = [c["name"] for c in checks]
        assert names == [
            "radial_count", "nodal_gap", "autonomous_companion",
            "autonomous_gap", "sign_changing_minimum",
            "sign_changing_superlinear", "even_weight_minimum",
            "even_weight_superlinear",
        ]
        assert all(c["pass"] for c in checks)
        by_name = {c["name"]: c for c in checks}
        # alpha=2, n=2: floor(alpha/2) = 1, so the nodal gap requires
        # n + (n-1)(2*1+2) = 6 and the companion gap n + 6*(1+1) = 14.
        assert by_name["nodal_gap"]["required"] == 6
        assert by_name["autonomous_companion"]["required"] == 4
        assert by_name["autonomous_gap"]["required"] == 14
        assert by_name["even_weight_minimum"]["required"] == 5
        assert by_name["even_weight_superlinear"]["required"] == 6

    def test_even_weight_bounds_round_alpha(self, report_232):
        """An alpha within 1e-12 of an even integer counts as that integer;
        the bounds use it rounded, not truncated."""
        near_four = replace(report_232, params=HenonParams(
            alpha=4.0 - 1e-13, p=3.0, n_nodal=2))
        checks = {c["name"]: c for c in check_lower_bounds(near_four)}
        assert checks["even_weight_minimum"]["required"] == 7
        assert checks["even_weight_superlinear"]["required"] == 8

    def test_unweighted_report_is_own_companion(self, report_032):
        checks = {c["name"]: c for c in check_lower_bounds(report_032)}
        assert checks["autonomous_companion"]["actual"] == report_032.m_total
        # alpha = 0: the companion gap bound collapses to m >= m_0, an equality
        assert checks["autonomous_gap"]["required"] == report_032.m_total
        assert checks["autonomous_gap"]["pass"]

    def test_ground_state_bounds(self):
        report = assemble_morse(solve_nodal(HenonParams(alpha=0.0, p=3.0, n_nodal=1)))
        assert report.m_total == 1
        checks = {c["name"]: c for c in check_lower_bounds(report)}
        assert set(checks) == {"radial_count", "nodal_gap",
                               "autonomous_companion", "autonomous_gap"}
        assert all(c["pass"] for c in checks.values())

    def test_bounds_read_the_reports_own_companion(self, report_032,
                                                   report_232):
        """Without a companion report the bounds read the companion index
        the report decided from its own spectrum."""
        assert report_232.companion_total == report_032.m_total
        checks = {c["name"]: c for c in check_lower_bounds(report_232)}
        assert checks["autonomous_companion"]["actual"] == report_032.m_total
        assert checks["autonomous_gap"]["required"] == 14
        assert checks == {c["name"]: c for c in
                          check_lower_bounds(report_232)}


class TestRowKeyOrder:
    """The rows these functions return are the rows the documents print,
    key order included: canonical JSON writes keys in insertion order."""

    def test_bounds_rows_are_the_morse_documents(self, report_232):
        bounds = check_lower_bounds(report_232)
        assert [list(b) for b in bounds] == (
            [["name", "required", "actual", "pass"]] * len(bounds))
        doc = json.loads(dumps_canonical(morse_document(report_232, bounds)))
        assert doc["bounds"] == bounds
        assert [list(b) for b in doc["bounds"]] == [list(b) for b in bounds]

    def test_sweep_document(self, report_032, report_232):
        doc = json.loads(dumps_canonical(
            sweep_from_reports([report_032, report_232])))
        assert list(doc) == ["reports", "transitions", "monotone"]
        assert [list(t) for t in doc["transitions"]] == [
            ["alpha_lo", "alpha_hi", "m_lo", "m_hi", "nondecreasing"]]


class TestSweepAndProbe:
    def test_monotone_sweep(self, report_032, report_232):
        _, report_132 = solve_point(1.0, 3.0, 2)
        sweep = sweep_from_reports([report_032, report_132, report_232])
        assert [r["m_total"] for r in sweep["reports"]] == [8, 14, 18]
        assert sweep["monotone"]
        assert len(sweep["transitions"]) == 2
        assert all(t["nondecreasing"] for t in sweep["transitions"])
        payload = json.dumps(sweep)
        assert json.loads(payload)["monotone"] is True

    def test_sweep_sorts_alphas(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        assert cli.main(["sweep", "--p", "3", "--nodes", "2",
                         "--alphas", "2,0", "--csv", str(csv)]) == 0
        rows = csv.read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["0.0", "2.0"]

    def test_sweep_needs_two_points(self, report_032):
        with pytest.raises(UsageError):
            sweep_from_reports([report_032])

    def test_probe_is_cross_checked_and_consistent(self, monkeypatch):
        monkeypatch.setattr(morse_mod, "_PROBE_PS", (5.0, 15.0))
        rows = large_exponent_probe()
        assert [row["report"].m_total for row in rows] == [10, 10]
        for p, row in zip([5.0, 15.0], rows):
            assert row.keys() == {"p", "report"}
            assert row["p"] == p
            rep = row["report"]
            assert rep.params.p == p
            assert rep.route_b_total == rep.m_total

    def test_probe_records_a_tie_as_undecided(self, monkeypatch):
        """A ThresholdTieError makes an undecided row and the probe goes on;
        any other error stops it."""
        real = morse_mod.solve_point
        tie = ThresholdTieError("tie", {"scaled_tie_distance": 1e-9,
                                        "eig_tol": 1e-9})

        def tied_at_15(alpha, p, n, settings):
            if p == 15.0:
                raise tie
            return real(alpha, p, n, settings)

        monkeypatch.setattr(morse_mod, "solve_point", tied_at_15)
        monkeypatch.setattr(morse_mod, "_PROBE_PS", (15.0, 5.0))
        rows = large_exponent_probe()
        assert rows[0] == {"p": 15.0, "report": None, "refusal": tie}
        assert rows[1]["report"].m_total == 10

        def failing(alpha, p, n, settings):
            raise NonConvergenceError("not a tie", {})

        monkeypatch.setattr(morse_mod, "solve_point", failing)
        monkeypatch.setattr(morse_mod, "_PROBE_PS", (5.0,))
        with pytest.raises(NonConvergenceError, match="not a tie"):
            large_exponent_probe()
