"""Self-test of the benchmark's checks: wrong answers must be flagged.

    python3 bench/selftest.py

run.py also runs it before every measurement.  It needs numpy but not
partstab.
"""

from __future__ import annotations

import math
import sys

import checks
from inputs import make_arc


def run() -> None:
    arc = make_arc(1.0, 4.0, 1.0, 1.0)          # crit1-interval, mu1 = -1.9168...
    mu1 = arc.mu[0]
    assert arc.branch == "crit1-interval", arc.branch
    assert not checks.mu_problems(arc, mu1)
    assert checks.mu_problems(arc, mu1 + 1e-3), "wrong mu1 not flagged"
    assert checks.mu_problems(arc, None), "missing mu1 not flagged"
    wrong = checks.verdict_problems(arc, "Unstable", mu1 * 0.9, "crit1-interval", None)
    assert any(p.startswith("mu1 ") for p in wrong), wrong
    assert any("without witness" in p for p in wrong), wrong
    assert not checks.is_known_fault(arc, wrong), "wrong mu1 off crit2 passed as known"
    assert checks.verdict_problems(arc, "Stable", mu1, "crit1-interval", None)

    assert not checks.exit_code_problems("Unstable", 20)
    assert checks.exit_code_problems("Unstable", 0), "wrong exit code not flagged"
    assert checks.exit_code_problems("Stable", 20), "wrong exit code not flagged"

    # flat walls: f = cos(pi s / L) is the exact first mode, (lam, C, D) = (0, 0, 1)
    flat = make_arc(0.5, 2.0, 0.0, 0.0)
    k = math.pi / flat.length
    assert not checks.verdict_problems(flat, "Stable", k * k - 0.25, "spectrum-positive",
                                       None)
    good = ("I", k, (0.0, 0.0, 1.0))
    assert max(checks.witness_residuals(*good, *flat.args)) < 1e-12
    assert max(checks.witness_residuals("I", k, (0.0, 0.1, 1.0), *flat.args)) > 1e-3
    assert checks.scaling_problems(mu1, mu1 / 4 * 1.001, 2.0), "scaling not checked"


if __name__ == "__main__":
    run()
    print("selftest: wrong mu1, wrong exit code and wrong witness are all flagged")
    sys.exit(0)
