"""Acceptance criteria, one test per criterion.

The verification battery runs once per session on the default grid
(alpha in {0, 0.5, 1, 2, 3, 4, 6}) x (p in {2, 3, 5}) x (n in {1, 2, 3}),
and every test prints exactly one line

    CRITERION <k> <name>: PASS/FAIL - <detail>

before asserting its section, so the verdicts are visible in the pytest
log even with output capture on, and a failure is both readable and red.

Criterion 9 is observational: it gates only on the structural facts (the
angular gap m_total - m_rad is even and at least 2 for every probed p whose
decomposition is decided) and logs the computed gaps next to the expected
large-exponent value without failing on the comparison.  A p refused at a
-k^2 tie is logged as undecided and asserts no gap.

Three more tests read the same session battery, so they add no solve. One
holds the battery's integers against the frozen behaviour oracle
(tests/data/point_oracle.json); one checks that the battery document
carries every field the benchmark's checker (perfbench/workloads.py)
reads; one pins the key order of the document and of its sections.
"""

import json
from pathlib import Path
import time

import pytest

from henon_morse.io import dumps_canonical
from henon_morse.verify import run_battery

RUNTIME_BUDGET_SECONDS = 300.0


@pytest.fixture(scope="session")
def battery():
    started = time.perf_counter()
    summary = run_battery("default")
    wall = time.perf_counter() - started
    return summary, wall


def section_of(summary, name):
    """The battery document's section called ``name``."""
    for section in summary["sections"]:
        if section["name"] == name:
            return section
    raise KeyError(name)


def _announce(capsys, criterion, name, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"\nCRITERION {criterion} {name}: {verdict} - {detail}")


def test_criterion_1_radial_count_identity(battery, capsys):
    """m_rad equals the prescribed nodal count n at every grid point, and
    the whole battery stays inside the runtime budget."""
    summary, wall = battery
    section = section_of(summary, "radial_identity")
    in_budget = wall < RUNTIME_BUDGET_SECONDS
    passed = section["pass"] and in_budget
    _announce(capsys, 1, "radial index identity", passed,
              f"{section['summary']}; battery wall time {wall:.1f} s "
              f"(budget {RUNTIME_BUDGET_SECONDS:.0f} s)")
    assert section["pass"], section["rows"]
    assert in_budget, f"battery took {wall:.1f} s"


def test_criterion_2_monotonicity(battery, capsys):
    """alpha -> m_total is nondecreasing along the grid at every (p, n)."""
    summary, _ = battery
    section = section_of(summary, "monotonicity")
    _announce(capsys, 2, "monotonicity in alpha", section["pass"],
              section["summary"])
    assert section["pass"], [r for r in section["rows"] if not r["pass"]]


def test_criterion_3_two_route_agreement(battery, capsys):
    """The decomposition total matches the independent Sturm oscillation
    count at every grid point."""
    summary, _ = battery
    section = section_of(summary, "two_route")
    _announce(capsys, 3, "two-route agreement", section["pass"],
              section["summary"])
    assert section["pass"], [r for r in section["rows"] if not r["pass"]]


def test_criterion_4_transform_correspondence(battery, capsys):
    """The profile mapped from the unweighted problem agrees with the
    direct solve in sup norm (<= 1e-6 relative) and produces an
    integer-identical index report, at every grid point."""
    summary, _ = battery
    section = section_of(summary, "transform_correspondence")
    _announce(capsys, 4, "transform correspondence", section["pass"],
              section["summary"])
    assert section["pass"], [r for r in section["rows"] if not r["pass"]]


def test_criterion_5_eigenvalue_scaling(battery, capsys):
    """For even alpha the linearized eigenvalues satisfy the exact scaling
    lambda_j(u_alpha) = ((alpha+2)/2)^2 lambda_j(u_0) to 1e-4 relative."""
    summary, _ = battery
    section = section_of(summary, "eigenvalue_scaling")
    _announce(capsys, 5, "eigenvalue scaling law", section["pass"],
              section["summary"])
    assert section["pass"], [r for r in section["rows"] if not r["pass"]]


def test_criterion_6_form_comparison(battery, capsys):
    """Q_beta(w_kappa) <= kappa Q_alpha(w) for every battery member and
    every alpha <= beta pair, with equality (within tolerance) for the
    radial members."""
    summary, _ = battery
    section = section_of(summary, "form_comparison")
    _announce(capsys, 6, "quadratic form comparison", section["pass"],
              section["summary"])
    assert section["pass"], [r for r in section["rows"] if not r["pass"]]


def test_criterion_7_lower_bounds(battery, capsys):
    """Every named lower bound for m_total holds at every grid point."""
    summary, _ = battery
    section = section_of(summary, "lower_bounds")
    _announce(capsys, 7, "index lower bounds", section["pass"],
              section["summary"])
    assert section["pass"], [r for r in section["rows"] if not r["pass"]]


def test_criterion_8_square_well(battery, capsys):
    """The eigenvalue solver reproduces the exactly solvable square well
    {-4, -1} with second-order convergence and 1e-6 raw accuracy."""
    summary, _ = battery
    section = section_of(summary, "square_well")
    _announce(capsys, 8, "square well validation", section["pass"],
              section["summary"])
    assert section["pass"], section["rows"]


def test_criterion_9_large_exponent_probe(battery, capsys):
    """Observational: the angular gap stays even and >= 2 as p grows; the
    computed gaps are logged next to the expected large-exponent value
    without gating on the match."""
    summary, _ = battery
    section = section_of(summary, "large_exponent")
    expected = section["rows"][0]["expected_large_p_gap"]
    observed = ", ".join(
        f"p={r['p']:g}: {r['gap'] if r['decided'] else 'undecided'}"
        for r in section["rows"])
    matches = [f"p={r['p']:g}" for r in section["rows"] if r["matches_expected"]]
    detail = (f"computed gaps [{observed}]; expected large-p gap {expected}"
              f" (matched at {', '.join(matches) if matches else 'none'};"
              f" comparison logged, not gated)")
    _announce(capsys, 9, "large exponent probe", section["pass"], detail)
    assert section["pass"], section["rows"]


def test_battery_integers_match_the_frozen_oracle(battery):
    """m_total at each of the 63 default-grid points is the frozen one."""
    summary, _ = battery
    doc = json.loads((Path(__file__).parent / "data"
                      / "point_oracle.json").read_text())
    frozen = {(e["alpha"], e["p"], e["n"]): e["m_total"]
              for e in doc["default_grid_m_total"]}
    assert {(r["alpha"], r["p"], r["n"]): r["m_total"]
            for r in section_of(summary, "two_route")["rows"]} == frozen


def test_battery_document_has_the_fields_the_benchmark_reads(battery):
    """The keys ``perfbench/workloads.py`` reads from a ``verify``
    document; a renamed key fails here, not in the benchmark."""
    summary, _ = battery
    doc = json.loads(dumps_canonical(summary))
    assert isinstance(doc["pass"], bool)
    sections = {s["name"]: s["rows"] for s in doc["sections"]}
    for row in sections["radial_identity"]:
        assert {"m_rad", "n"} <= row.keys()
    for row in sections["monotonicity"]:
        assert isinstance(row["m_totals"], list)
    for row in sections["two_route"]:
        assert {"route_b_total", "m_total"} <= row.keys()
    well = {r["check"]: r for r in sections["square_well"]}
    assert isinstance(well["negative_eigenvalue_count"]["actual"], int)
    assert isinstance(well["extrapolated_values"]["errors"], list)


def test_battery_document_key_order(battery):
    """``run_battery`` returns the document ``verify --out`` prints, keys in
    the printed order."""
    summary, _ = battery
    doc = json.loads(dumps_canonical(summary))
    assert list(doc) == ["grid", "pass", "elapsed_seconds", "sections"]
    assert [list(s) for s in doc["sections"]] == (
        [["name", "criterion", "gating", "pass", "summary", "rows"]] * 9)
