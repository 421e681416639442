"""Checks of partstab's answers against the benchmark's own references.

Each function returns a list of problems; an empty list means the answer
passed.  They are pure functions of the answer and the reference, so the
self-test can feed them deliberately wrong answers.
"""

from __future__ import annotations

import math

from reference import (classification, disconnected_delta2a, eigenvalue_scale,
                       flat_wall_eigenvalues, oracle_error_bound, witness_residuals)

EXIT_CODES = {"Stable": 0, "Neutral": 10, "Unstable": 20}
RANK = {"Stable": 0, "Neutral": 1, "Unstable": 2}
# analytic roots are refined to 1e-13 in x = kL; 1e-7 of the eigenvalue
# scale leaves room for the 12-digit rounding of the CLI as well
MU_RTOL = 1e-7
WITNESS_TOL = 1e-7


def mu_tolerance(arc) -> float:
    return MU_RTOL * eigenvalue_scale(*arc.args) + arc.mu_bound


def mu_problems(arc, mu1) -> list[str]:
    if mu1 is None or not math.isfinite(mu1):
        return [f"mu1 = {mu1} for {arc.args}, reference {arc.mu[0]:.12g}"]
    if abs(mu1 - arc.mu[0]) > mu_tolerance(arc):
        return [f"mu1 = {mu1:.12g} for {arc.args}, reference {arc.mu[0]:.12g}"]
    return []


def verdict_problems(arc, cls: str, mu1, evidence: str, witness,
                     reports_witness: bool = True) -> list[str]:
    """One arc verdict: branch, class, mu1 and, if Unstable, the witness.

    witness is None or a (case, k, (lam, C, D)) triple; outputs without a
    witness field (the sweep CSV) pass reports_witness=False.
    """
    problems = []
    if evidence != arc.branch:
        problems.append(f"evidence {evidence} for {arc.args}, expected {arc.branch}")
    if cls != classification(arc.mu[0]):
        problems.append(f"class {cls} for {arc.args}, reference mu1 {arc.mu[0]:.12g}")
    problems += mu_problems(arc, mu1)
    if cls == "Unstable" and reports_witness:
        if witness is None:
            problems.append(f"Unstable verdict without witness for {arc.args}")
        else:
            res = witness_residuals(*witness, *arc.args)
            if max(res) > WITNESS_TOL:
                problems.append(f"witness residuals {res} for {arc.args}")
    return problems


def is_known_fault(arc, problems: list[str]) -> bool:
    """The crit2-threshold branch takes mu1 (and its witness) from the
    threshold root; only those two answers may be wrong there."""
    return (arc.branch == "crit2-threshold"
            and all(p.startswith(("mu1 ", "witness ")) for p in problems))


def exit_code_problems(cls: str, code: int) -> list[str]:
    if code != EXIT_CODES.get(cls):
        return [f"exit code {code} for verdict {cls}"]
    return []


def scaling_problems(mu1: float, mu1_scaled: float, t: float) -> list[str]:
    """(kappa/t, t*L, sigma/t) must give mu1/t^2."""
    if abs(mu1_scaled * t * t - mu1) > 1e-9 * max(1.0, abs(mu1)):
        return [f"scaling by t={t}: mu1 {mu1:.15g} became {mu1_scaled * t * t:.15g}"]
    return []


def case3_problems(arc, mu1) -> list[str]:
    """The Case III arcs have mu1 = -kappa^2 exactly."""
    if mu1 is None or abs(mu1 + arc.kappa ** 2) > 1e-12 * max(1.0, arc.kappa ** 2):
        return [f"Case III arc {arc.args}: mu1 = {mu1}, expected -kappa^2"]
    return []


def meet(classes) -> str:
    return max(classes, key=RANK.__getitem__)


def disconnected_problems(interfaces, report: dict) -> list[str]:
    """interfaces are (gamma, kappa, L, sigma1, sigma2) tuples."""
    expected = disconnected_delta2a(interfaces)
    got = report.get("witness", {}).get("delta2A")
    problems = []
    if got is None or abs(got - expected) > 1e-10 * abs(expected):
        problems.append(f"delta2A {got}, expected {expected:.12g}")
    if report["verdict"]["classification"] != "Unstable" or report["verdict"]["mu1"] is not None:
        problems.append(f"disconnected verdict {report['verdict']}")
    return problems


def flat_wall_problems(arc, analytic) -> list[str]:
    exact = flat_wall_eigenvalues(arc.kappa, arc.length, len(analytic))
    bad = [i for i, (a, e) in enumerate(zip(analytic, exact))
           if abs(a - e) > 1e-9 * max(1.0, abs(e))]
    return [f"flat-wall mode {i + 1}: {analytic[i]:.15g} != {exact[i]:.15g}"
            for i in bad]


def oracle_problems(arc, table: dict, n: int) -> list[str]:
    """spectrum_compare: analytic rows tight, oracle rows within the P1 bound."""
    k = table["k_eigs"]
    problems = []
    if table["count_mismatch"] or len(table["rows"]) != k:
        problems.append(f"{len(table['rows'])} rows of {k} for {arc.args}")
    for i, row in enumerate(table["rows"]):
        ref = arc.mu[i]
        tol = MU_RTOL * eigenvalue_scale(*arc.args) * (1 + i * i) + arc.mu_bound
        if abs(row["analytic"] - ref) > tol:
            problems.append(f"analytic mu{i + 1} {row['analytic']:.12g}, reference {ref:.12g}")
        if abs(row["oracle"] - ref) > oracle_error_bound(ref, *arc.args, n):
            problems.append(f"oracle mu{i + 1} {row['oracle']:.12g}, reference {ref:.12g}")
    return problems


def variational_problems(arc, j_value: float, n: int) -> list[str]:
    """J(f) = mu for the normalised lowest mode, up to the P1 error."""
    ref = arc.mu[0]
    if abs(j_value - ref) > oracle_error_bound(ref, *arc.args, n):
        return [f"J(f) = {j_value:.12g}, reference mu1 {ref:.12g}"]
    return []
