"""Tests for the battery's point task (criterion 4's rows)."""

from dataclasses import replace

import pytest

import henon_morse.verify as verify
from henon_morse import solve_point
from henon_morse.config import DEFAULT


@pytest.fixture(scope="module")
def companion_031():
    return solve_point(0.0, 3.0, 1)


@pytest.fixture
def assembled(monkeypatch):
    calls = []
    real = verify.assemble_morse

    def counting(profile, settings=DEFAULT):
        calls.append(profile.params.alpha)
        return real(profile, settings)

    monkeypatch.setattr(verify, "assemble_morse", counting)
    return calls


def test_identity_map_reuses_the_companion_report(companion_031, assembled):
    profile, report = companion_031
    key, row = verify._point_task(((0.0, 3.0, 1), profile, report, DEFAULT))
    assert key == (0.0, 3.0, 1)
    assert assembled == []
    assert row["report"] is report
    assert row["transform_reports_identical"] is True
    assert row["sup_rel_error"] == 0.0


def test_mapped_profile_is_assembled_once(companion_031, assembled):
    profile, report = companion_031
    _, row = verify._point_task(((1.0, 3.0, 1), profile, report, DEFAULT))
    assert assembled == [1.0]
    assert row["transform_reports_identical"] is True
    assert 0.0 < row["sup_rel_error"] <= 1e-6


def test_a_miscounted_companion_is_not_identical(companion_031, monkeypatch):
    """Criterion 4 gates the companion index a weighted report derives from
    its own spectrum against the directly solved alpha = 0 m_total."""
    profile, report = companion_031
    real_solve, real_assemble = verify.solve_point, verify.assemble_morse
    transformed = []

    def off_by_two(alpha, p, n, settings):
        prof, rep = real_solve(alpha, p, n, settings)
        return prof, replace(rep, companion_total=rep.companion_total + 2)

    def capturing(profile, settings=DEFAULT):
        transformed.append(real_assemble(profile, settings))
        return transformed[-1]

    monkeypatch.setattr(verify, "solve_point", off_by_two)
    monkeypatch.setattr(verify, "assemble_morse", capturing)
    _, row = verify._point_task(((1.0, 3.0, 1), profile, report, DEFAULT))
    assert row["transform_reports_identical"] is False
    # only the companion clause differs: the mapped report agrees with the
    # direct one on every other integer
    (report_t,) = transformed
    for field in ("m_rad", "k_max", "mode_counts_per_k", "negative_modes",
                  "m_total"):
        assert getattr(report_t, field) == getattr(row["report"], field)
    assert report_t.companion_total == report.m_total
    assert row["report"].companion_total == report.m_total + 2
