"""The workloads' operations and the property checks on their outputs.

Every operation is one ``henon_morse.cli.main`` argument list.  A round is
the fixed set of operations of a workload; the seed only fixes their order,
so every round attempts the same operations and fails the same ones.

The checks use properties the method must have, never stored output:

* ``m_rad == n``, ``m_total - n`` even and ``route_b_total == m_total``;
* the scaling law lambda_j(alpha) = ((alpha+2)/2)^2 lambda_j(0) against the
  alpha = 0 point of the same (p, n) in the same round;
* ``m_total == n + 2 sum_j #{k >= 1 : k < ((alpha+2)/2) sqrt(-lambda_j(0))}``,
  counted by this module; where some ((alpha+2)/2) sqrt(-lambda_j(0)) lies
  within THRESHOLD_MARGIN (relative) of an integer the point is unchecked;
* for the battery: ``pass`` is true, the radial-identity, monotonicity and
  two-route rows hold when re-checked, and the square-well eigenvalues
  match the exact -4 and -1.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

POINT_ALPHAS = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 5.0, 6.0)
POINT_PS = (2.0, 3.0, 4.0, 5.0)
POINT_NS = (1, 2, 3)

# The quick grid holds every section of the battery (transform, forms,
# square well, large-exponent probe) at a fifth of the default grid's time,
# so a run holds enough batteries for a median.
BATTERY_GRID = "quick"

# Route B's geometric mode mesh undercounts mode k = 27 here, so this point
# raises TwoRouteError on every attempt.  It stays in the point set.
EXPECTED_FAILURES = {(5.0, 5.0, 3): "TwoRouteError"}

SCALING_RTOL = 1e-4
THRESHOLD_MARGIN = 1e-4
SQUARE_WELL_EXACT = (-4.0, -1.0)
SQUARE_WELL_TOL = 1e-6


@dataclass(frozen=True)
class Operation:
    """One command of a round and the file it writes."""

    command: str          # "morse" or "verify"
    key: tuple            # (alpha, p, n) | (grid,)
    argv: tuple
    out: Path

    @property
    def asks_alpha_zero(self) -> bool:
        """Whether the command's own points include alpha = 0 (an alpha = 0
        solve elsewhere is a companion re-solve)."""
        return self.command != "morse" or self.key[0] == 0.0


def _num(x: float) -> str:
    return repr(float(x))


def make_round(workload: str, rng, out_dir: Path) -> list:
    """The operations of one round, in an order drawn from ``rng``."""
    if workload == "point":
        ops = [Operation("morse", (a, p, n),
                         ("morse", "--alpha", _num(a), "--p", _num(p),
                          "--nodes", str(n), "--out", str(out_dir / "point.json")),
                         out_dir / "point.json")
               for a in POINT_ALPHAS for p in POINT_PS for n in POINT_NS]
    elif workload == "battery":
        ops = [Operation("verify", (BATTERY_GRID,),
                         ("verify", "--grid", BATTERY_GRID,
                          "--out", str(out_dir / "battery.json")),
                         out_dir / "battery.json")]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def closed_form_m_total(n: int, alpha: float, lambdas0) -> int | None:
    """n + 2 sum_j #{k >= 1 : k < s sqrt(-lambda_j(0))}, s = (alpha+2)/2,
    or None when some s sqrt(-lambda_j(0)) is too close to an integer k to
    call with the scaling law's accuracy."""
    s = (alpha + 2.0) / 2.0
    total = n
    for lam in lambdas0:
        x = s * math.sqrt(-lam)
        k = round(x)
        if k >= 1 and abs(x - k) < THRESHOLD_MARGIN * k:
            return None
        total += 2 * (math.ceil(x) - 1)
    return total


class Checker:
    """Accumulates property violations and unchecked points over a run."""

    def __init__(self):
        self.problems = []
        self.unchecked = 0
        self._round = []  # (key, doc) of the point round so far

    def fail(self, where, message):
        self.problems.append(f"{where}: {message}")

    def check(self, op: Operation) -> None:
        """Check the file one successful operation wrote."""
        where = " ".join(op.argv[:-2])
        with open(op.out, encoding="utf-8") as fp:
            doc = json.load(fp)
        if op.command == "verify":
            self._check_battery(where, doc)
            return
        alpha, p, n = op.key
        if (doc["alpha"], doc["p"], doc["n"]) != (alpha, p, n):
            self.fail(where, "report echoes other parameters")
        if doc["m_rad"] != n:
            self.fail(where, f"m_rad {doc['m_rad']} != n {n}")
        if (doc["m_total"] - n) % 2:
            self.fail(where, f"m_total - n = {doc['m_total'] - n} is odd")
        if doc["route_b_total"] != doc["m_total"]:
            self.fail(where, "route_b_total != m_total")
        if not all(b["pass"] for b in doc["bounds"]):
            self.fail(where, "a lower bound fails")
        self._round.append((op.key, doc))

    def end_point_round(self) -> None:
        """Check each point of the round against the alpha = 0 point of the
        same (p, n): the scaling law and the closed-form m_total."""
        zero = {(p, n): doc["lambdas"] for (a, p, n), doc in self._round
                if a == 0.0}
        for (alpha, p, n), doc in self._round:
            where = f"morse {alpha} {p} {n}"
            lambdas0 = zero.get((p, n))
            if lambdas0 is None:
                self.unchecked += 1
                continue
            if len(doc["lambdas"]) != len(lambdas0):
                self.fail(where, "eigenvalue count differs from alpha = 0")
                continue
            factor = ((alpha + 2.0) / 2.0) ** 2
            for lam, lam0 in zip(doc["lambdas"], lambdas0):
                if abs(lam - factor * lam0) > SCALING_RTOL * abs(factor * lam0):
                    self.fail(where, f"lambda {lam} breaks the scaling law "
                                     f"({factor} * {lam0})")
            expected = closed_form_m_total(n, alpha, lambdas0)
            if expected is None:
                self.unchecked += 1
            elif expected != doc["m_total"]:
                self.fail(where, f"m_total {doc['m_total']} != closed form "
                                 f"{expected}")
        self._round = []

    def _check_battery(self, where, doc):
        if doc["pass"] is not True:
            self.fail(where, "battery verdict is not pass")
        sections = {s["name"]: s["rows"] for s in doc["sections"]}
        for row in sections["radial_identity"]:
            if row["m_rad"] != row["n"]:
                self.fail(where, f"radial identity fails at {row}")
        for row in sections["monotonicity"]:
            ms = row["m_totals"]
            if any(b < a for a, b in zip(ms, ms[1:])):
                self.fail(where, f"m_total decreases in alpha at {row}")
        for row in sections["two_route"]:
            if row["route_b_total"] != row["m_total"]:
                self.fail(where, f"routes disagree at {row}")
        well = {r["check"]: r for r in sections["square_well"]}
        count = well["negative_eigenvalue_count"]["actual"]
        errors = well.get("extrapolated_values", {}).get("errors", [])
        if count != len(SQUARE_WELL_EXACT) or len(errors) != count or any(
                e > SQUARE_WELL_TOL for e in errors):
            self.fail(where, f"square well misses {SQUARE_WELL_EXACT}: "
                             f"count {count}, errors {errors}")
