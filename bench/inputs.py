"""Seeded arcs with their reference answers.

Every arc is drawn in the dimensionless coordinates (a, b, kL) =
(sigma1*L, sigma2*L, kappa*L), on which mu1*L^2 depends alone, and then
given a random length.  The reference answer is attached when the arc is
drawn, so arcs too close to a decision boundary (where the verdict would
hinge on a rounding error) are never used.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from reference import expected_branch, reference_eigenvalues

BRANCHES = ("crit1-interval", "crit2-threshold", "case3-exact", "case2-root",
            "case1-negative-root", "spectrum-positive")

# crit2-threshold arcs: mu1 is taken from the threshold root, not from the
# Case II root that gives the smallest eigenvalue, so partstab reports a
# wrong mu1 on every one of them.  They are fixed rather than seeded, so every run fails exactly
# the same share of its operations.
CRIT2_ARCS = (
    (1.0, 7.0, 1.0, 1.0),
    (1.0 / 12.0, 12.0, 0.5, 3.0),
    (0.2, 9.0, 1.5, 0.8),
    (0.05, 20.0, 0.5, 0.5),
    (0.5, 5.0, 4.0, 2.0),
    (0.0, 10.0, 2.0, 2.0),
)

# margin, in units of 1/L^2, kept between mu1 and the values 0 and -kappa^2
# at which the branch or the verdict changes
MARGIN = 0.05


@dataclass(frozen=True)
class Arc:
    kappa: float
    length: float
    sigma1: float
    sigma2: float
    branch: str
    mu: tuple          # reference eigenvalues, ascending
    mu_bound: float    # error bound of the reference

    @property
    def args(self) -> tuple[float, float, float, float]:
        return (self.kappa, self.length, self.sigma1, self.sigma2)


def make_arc(kappa: float, L: float, s1: float, s2: float, k: int = 1) -> Arc:
    mu, bound = reference_eigenvalues(kappa, L, s1, s2, k)
    return Arc(kappa, L, s1, s2, expected_branch(kappa, L, s1, s2, float(mu[0])),
               tuple(float(m) for m in mu), bound)


def _clear_of_boundaries(arc: Arc) -> bool:
    L2 = arc.length ** 2
    mu_l2 = arc.mu[0] * L2
    return (abs(mu_l2) > MARGIN and abs(mu_l2 + (arc.kappa * arc.length) ** 2) > MARGIN)


def _draw(rng: np.random.Generator, branch: str) -> tuple[float, float, float]:
    """A candidate (a, b, kL) aimed at one branch; acceptance is decided
    from the reference answer."""
    kl = rng.uniform(0.0, 0.97 * math.pi)
    one_wall = rng.uniform(0.0, 1.0) < 0.5
    if branch == "crit1-interval":
        while True:
            a, b = rng.uniform(0.8, 20.0, size=2)
            if a * b - 4.0 * (a + b) + 12.0 < -0.5:
                return a, b, kl
    if branch == "case3-exact":
        # mu1 = -kappa^2: keep kL away from 0, where that is 0 too
        kl = rng.uniform(0.3, 0.97 * math.pi)
        return (3.0, 0.0, kl) if one_wall else (0.0, 3.0, kl)
    if branch == "case2-root":
        a = rng.uniform(3.3, 20.0)
        return (a, 0.0, kl) if one_wall else (0.0, a, kl)
    if branch == "case1-negative-root":
        kl = rng.uniform(0.5, 0.97 * math.pi)
        a = rng.uniform(0.0, 2.9)
        if rng.uniform(0.0, 1.0) < 0.5:
            return (a, 0.0, kl) if one_wall else (0.0, a, kl)
        return a, rng.uniform(0.0, 1.0), kl
    if branch == "spectrum-positive":
        kl = rng.uniform(0.0, 2.0)
        a = rng.uniform(0.0, 1.5)
        if one_wall:
            return (a, 0.0, kl) if rng.uniform(0.0, 1.0) < 0.5 else (0.0, a, kl)
        return a, rng.uniform(0.0, 1.5), kl
    raise ValueError(branch)


def branch_arc(rng: np.random.Generator, branch: str) -> Arc:
    """A seeded arc that partstab must decide on the given branch."""
    while True:
        a, b, kl = _draw(rng, branch)
        L = math.exp(rng.uniform(math.log(0.5), math.log(4.0)))
        arc = make_arc(kl / L, L, a / L, b / L)
        if branch == "case3-exact":
            # sigma*L = 3 exactly up to rounding; mu1 = -kappa^2 sits on the
            # Case II boundary by construction
            if arc.branch == branch:
                return arc
        elif arc.branch == branch and _clear_of_boundaries(arc):
            return arc
