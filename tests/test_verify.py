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
    assert row["transformed_m_total"] == report.m_total


def test_mapped_profile_is_assembled_once(companion_031, assembled):
    profile, report = companion_031
    _, row = verify._point_task(((1.0, 3.0, 1), profile, report, DEFAULT))
    assert assembled == [1.0]
    assert row["transform_reports_identical"] is True
    assert 0.0 < row["sup_rel_error"] <= 1e-6
    assert row["transformed_m_total"] == row["report"].m_total


def test_a_miscounted_companion_is_not_identical(companion_031, monkeypatch):
    """Criterion 4 gates the companion index a weighted report derives from
    its own spectrum against the directly solved alpha = 0 m_total."""
    profile, report = companion_031
    real = verify.solve_point

    def off_by_two(alpha, p, n, settings):
        prof, rep = real(alpha, p, n, settings)
        return prof, replace(rep, companion_total=rep.companion_total + 2)

    monkeypatch.setattr(verify, "solve_point", off_by_two)
    _, row = verify._point_task(((1.0, 3.0, 1), profile, report, DEFAULT))
    assert row["transform_reports_identical"] is False
    assert row["transformed_m_total"] == row["report"].m_total
