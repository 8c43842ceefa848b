"""The frozen behaviour oracle: what the package prints at the 120 points of
the ``point`` benchmark workload, recomputed and compared.

The points are alpha in {0, 0.5, 1, 1.5, 2, 2.5, 3, 4, 5, 6}, p in
{2, 3, 4, 5} and n in {1, 2, 3}.  ``data/point_oracle.json`` holds, for
each, m_rad, m_total, the angular table ``negative_modes``, the alpha = 0
companion's index ``companion_total`` and the eigenvalues.  Integers must
match exactly.  Eigenvalues must match within 1e-5 (1 + |lambda|): that
covers route A's truncation error at -T (about 3e-6 at worst) and still
catches real breakage.  The integers do not hang on the platform's last
bits: the smallest scaled tie distance over these points is 1.4e-3, far
outside the 1e-7 guard.

The file also freezes the m_total of the 63 points of the
``verify --grid default`` battery, which tests/test_acceptance.py compares
with the battery it runs.

Rewrite the file only with a change that means to move these values, and
record it in CHANGES.md:

    PYTHONPATH=src python tests/test_point_oracle.py
"""

import json
from pathlib import Path

import numpy as np

from henon_morse import solve_point
from henon_morse.verify import run_battery

ORACLE = Path(__file__).parent / "data" / "point_oracle.json"
ALPHAS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0)
PS = (2.0, 3.0, 4.0, 5.0)
NS = (1, 2, 3)
LAMBDA_RTOL = 1e-5


def _entry(alpha, p, n):
    report = solve_point(alpha, p, n)[1]
    return {"alpha": alpha, "p": p, "n": n, "m_rad": report.m_rad,
            "m_total": report.m_total,
            "negative_modes": [list(m) for m in report.negative_modes],
            "companion_total": report.companion_total,
            "lambdas": [float(x) for x in report.lambdas]}


def test_points_match_the_frozen_oracle():
    frozen = json.loads(ORACLE.read_text())["points"]
    assert [(e["alpha"], e["p"], e["n"]) for e in frozen] == [
        (a, p, n) for a in ALPHAS for p in PS for n in NS]
    wrong = []
    for want in frozen:
        got = _entry(want["alpha"], want["p"], want["n"])
        lam, lam0 = np.array(got.pop("lambdas")), np.array(want["lambdas"])
        integers = {k: v for k, v in want.items() if k != "lambdas"}
        if (got != integers or lam.shape != lam0.shape or np.any(
                np.abs(lam - lam0) > LAMBDA_RTOL * (1.0 + np.abs(lam0)))):
            wrong.append((want, got, lam.tolist()))
    assert not wrong


if __name__ == "__main__":
    rows = next(s["rows"] for s in run_battery("default")["sections"]
                if s["name"] == "two_route")
    points = ",\n".join(json.dumps(_entry(a, p, n))
                        for a in ALPHAS for p in PS for n in NS)
    grid = ",\n".join(json.dumps({k: r[k] for k in ("alpha", "p", "n",
                                                     "m_total")})
                      for r in rows)
    ORACLE.parent.mkdir(exist_ok=True)
    ORACLE.write_text(f'{{"points": [\n{points}\n],\n'
                      f'"default_grid_m_total": [\n{grid}\n]}}\n')
