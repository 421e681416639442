"""The three workloads: each builds a round of operations from a seeded
generator, and checks every answer of the round afterwards.

A round is a fixed mix of operations, so every run attempts whole rounds
and fails exactly the same share of them.  Only the calls into partstab
are timed; drawing inputs, computing references and checking are not.
"""

from __future__ import annotations

import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from inputs import BRANCHES, CRIT2_ARCS, Arc, branch_arc, make_arc


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    unexpected: list = field(default_factory=list)

    def add(self, problems: list, known_fault: bool = False, attempted: int = 1):
        self.attempted += attempted
        if problems:
            self.failed += attempted
            if not known_fault:
                self.unexpected += problems


@dataclass
class Op:
    kind: str                       # timing population
    arcs: int                       # arcs the call decides
    call: Callable[[], object]
    check: Callable[[object, Outcome], None]
    # collect garbage before the call, not only before the round
    collect_before: bool = False


def run_cli(cli, argv: list) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _witness(mode):
    return None if mode is None else (mode.case_tag, mode.k, mode.coeffs)


def _witness_from_json(w):
    return None if w is None else (w["case"], w["k"], tuple(w["coeffs"]))


# ---------------------------------------------------------------------------
# classify-mix


ARCS_PER_BRANCH = 6


class ClassifyMix:
    """Library classify on distinct seeded arcs, six per decision branch."""

    def __init__(self, ps, workdir: Path):
        self.ps = ps

    def round(self, rng: np.random.Generator) -> list[Op]:
        spectrum, ArcInterface = self.ps.spectrum, self.ps.geometry.ArcInterface
        arcs = []
        for branch in BRANCHES:
            if branch == "crit2-threshold":
                arcs += [make_arc(*args) for args in CRIT2_ARCS]
            else:
                arcs += [branch_arc(rng, branch) for _ in range(ARCS_PER_BRANCH)]
        ops = []
        for i, arc in enumerate(arcs):
            iface = ArcInterface(*arc.args)
            # the first arc (crit1) also gets the metamorphic scaling check
            t = float(rng.uniform(0.5, 3.0)) if i == 0 else None

            def check(v, out, arc=arc, t=t):
                problems = checks.verdict_problems(
                    arc, v.classification, v.mu1, v.evidence, _witness(v.witness))
                if arc.branch == "case3-exact":
                    problems += checks.case3_problems(arc, v.mu1)
                if t is not None:
                    k, L, s1, s2 = arc.args
                    scaled = spectrum.classify(ArcInterface(k / t, L * t, s1 / t, s2 / t))
                    problems += checks.scaling_problems(v.mu1, scaled.mu1, t)
                out.add(problems, checks.is_known_fault(arc, problems))

            ops.append(Op("verdict", 1, lambda iface=iface: spectrum.classify(iface), check))
        return ops


# ---------------------------------------------------------------------------
# batch-cli

SWEEP_SIGMA = (1.0, 1.0)
SWEEP_L = (0.7, 7.9, 13)           # l-min, l-max, steps
SWEEPS_PER_ROUND = 4
CONNECTED_PER_ROUND = 5
DISCONNECTED_PER_ROUND = 1
INTERFACES = 3


class BatchCli:
    """In-process cli.main: kappa sweeps over one fixed (sigma, L) grid and
    multiphase config files whose interfaces come from the same diagram."""

    def __init__(self, ps, workdir: Path):
        self.ps = ps
        self.workdir = workdir
        self.lengths = [float(x) for x in np.linspace(*SWEEP_L)]
        self.l_minus, self.l_plus = 2.0, 6.0     # crit1 interval of unit sigma

    def _arc(self, cache, kappa, L):
        if (kappa, L) not in cache:
            cache[kappa, L] = make_arc(kappa, L, *SWEEP_SIGMA)
        return cache[kappa, L]

    def round(self, rng: np.random.Generator) -> list[Op]:
        cli = self.ps.cli
        kmax = 0.95 * math.pi / self.lengths[-1]
        kappas = [float(k) for k in rng.uniform(0.0, kmax, size=SWEEPS_PER_ROUND)]
        cache: dict = {}
        ops = []
        for kappa in kappas:
            argv = ["sweep", "--kappa", repr(kappa),
                    "--sigma1", repr(SWEEP_SIGMA[0]), "--sigma2", repr(SWEEP_SIGMA[1]),
                    "--l-min", repr(SWEEP_L[0]), "--l-max", repr(SWEEP_L[1]),
                    "--steps", str(SWEEP_L[2])]
            arcs = [self._arc(cache, kappa, L) for L in self.lengths]
            ops.append(Op("sweep", len(arcs), lambda argv=argv: run_cli(cli, argv),
                          lambda res, out, arcs=arcs, argv=argv:
                          self._check_sweep(arcs, argv, res, out)))
        # a connected config takes one row below L- (full scan) and two in
        # [L-, L+] (crit1), so every one costs about the same; crit2 rows
        # stay out, their wrong mu1 could hide behind a smaller one
        short = [L for L in self.lengths if L < self.l_minus]
        middle = [L for L in self.lengths if self.l_minus < L < self.l_plus]
        for i in range(CONNECTED_PER_ROUND + DISCONNECTED_PER_ROUND):
            connected = i < CONNECTED_PER_ROUND
            ks = [kappas[j] for j in rng.integers(0, len(kappas), size=INTERFACES)]
            if connected:
                ls = [short[rng.integers(len(short))]] + [
                    middle[j] for j in rng.integers(0, len(middle), size=INTERFACES - 1)]
            else:
                ls = [self.lengths[j] for j in rng.integers(0, len(self.lengths),
                                                            size=INTERFACES)]
            gammas = list(rng.uniform(0.5, 2.0, size=INTERFACES - 1))
            # orientation: two arcs bulge one way, the last closes the
            # identity sum(gamma * kappa_signed) = 0
            signs = [1.0, 1.0, -1.0]
            gammas.append((gammas[0] * ks[0] + gammas[1] * ks[1]) / ks[2])
            items = [{"gamma": float(g), "kappa": k, "kappa_signed": s * k, "length": L,
                      "sigma": list(SWEEP_SIGMA)}
                     for g, k, s, L in zip(gammas, ks, signs, ls)]
            path = self.workdir / f"config-{i}.json"
            path.write_text(json.dumps({"connected": connected, "interfaces": items}))
            argv = ["multiphase", "--config", str(path)]
            arcs = [self._arc(cache, k, L) for k, L in zip(ks, ls)]
            ops.append(Op("multiphase", INTERFACES, lambda argv=argv: run_cli(cli, argv),
                          lambda res, out, arcs=arcs, items=items, argv=argv:
                          self._check_multiphase(arcs, items, argv, res, out)))
        return ops

    def _repeat_problems(self, argv, stdout) -> list[str]:
        _, again = run_cli(self.ps.cli, argv)
        return [] if again == stdout else [f"stdout of {argv} differs on repeat"]

    def _check_sweep(self, arcs, argv, res, out: Outcome):
        code, stdout = res
        lines = stdout.splitlines()
        common = checks.exit_code_problems("Stable", code)   # sweep exits 0
        common += self._repeat_problems(argv, stdout)
        if lines[0] != "L,mu1,class,evidence" or len(lines) != len(arcs) + 1:
            common.append(f"sweep output has {len(lines)} lines")
        if common:
            out.add(common, attempted=len(arcs))
            return
        for arc, line in zip(arcs, lines[1:]):
            L, mu1, cls, evidence = line.split(",")
            problems = [] if abs(float(L) - arc.length) <= 1e-11 * arc.length else [
                f"row L {L}, expected {arc.length}"]
            problems += checks.verdict_problems(
                arc, cls, float(mu1) if mu1 else None, evidence, None,
                reports_witness=False)
            out.add(problems, checks.is_known_fault(arc, problems))

    def _check_multiphase(self, arcs, items, argv, res, out: Outcome):
        code, stdout = res
        report = json.loads(stdout)
        verdict = report["verdict"]
        common = checks.exit_code_problems(verdict["classification"], code)
        common += self._repeat_problems(argv, stdout)
        if report["connected"]:
            refs = [checks.classification(a.mu[0]) for a in arcs]
            if verdict["classification"] != checks.meet(refs):
                common.append(f"multiphase class {verdict['classification']}, parts {refs}")
            if verdict["mu1"] is None or abs(verdict["mu1"] - min(a.mu[0] for a in arcs)) > \
                    max(checks.mu_tolerance(a) for a in arcs):
                common.append(f"multiphase mu1 {verdict['mu1']}")
            parts = verdict.get("parts", [])
            if len(parts) != len(arcs):
                common.append(f"{len(parts)} parts for {len(arcs)} interfaces")
            if common:
                out.add(common, attempted=len(arcs))
                return
            for arc, part in zip(arcs, parts):
                problems = checks.verdict_problems(
                    arc, part["classification"], part["mu1"], part["evidence"],
                    _witness_from_json(part["witness"]))
                out.add(problems, checks.is_known_fault(arc, problems))
        else:
            interfaces = [(it["gamma"], it["kappa"], it["length"], *it["sigma"])
                          for it in items]
            common += checks.disconnected_problems(interfaces, report)
            out.add(common, attempted=len(arcs))


# ---------------------------------------------------------------------------
# oracle-crosscheck

ORACLE_GRID = 2001
J_GRID = 20001
# walls per operation, for k = 1..5 eigenvalues: flat walls (exact
# spectrum), one flat wall, two curved walls
ORACLE_WALLS = ("flat", "one", "curved", "flat", "curved")


def _oracle_arc(rng: np.random.Generator, walls: str, k: int) -> Arc:
    L = math.exp(rng.uniform(math.log(0.5), math.log(4.0)))
    kl = rng.uniform(0.0, 0.97 * math.pi)
    if walls == "flat":
        a, b = 0.0, 0.0
    elif walls == "one":
        a = rng.uniform(0.0, 10.0)
        a, b = (a, 0.0) if rng.uniform() < 0.5 else (0.0, a)
    else:
        a, b = rng.uniform(0.2, 10.0, size=2)
    return make_arc(kl / L, L, a / L, b / L, k)


class OracleCrosscheck:
    """spectrum_compare at the CLI default grid plus the variational
    identity J(f) = mu on the lowest analytic mode."""

    def __init__(self, ps, workdir: Path):
        self.ps = ps

    def round(self, rng: np.random.Generator) -> list[Op]:
        oracle, spectrum = self.ps.oracle, self.ps.spectrum
        ops = []
        for k, walls in enumerate(ORACLE_WALLS, start=1):
            arc = _oracle_arc(rng, walls, k)
            iface = self.ps.geometry.ArcInterface(*arc.args)

            def call(iface=iface, k=k):
                table = oracle.spectrum_compare(iface, ORACLE_GRID, k)
                modes = [m for tag in ("I", "II", "III")
                         for m in spectrum.case_modes(iface, tag)]
                lowest = min(modes, key=lambda m: m.mu)
                f = spectrum.reconstruct_eigenfunction(lowest, iface, J_GRID)
                return table, oracle.J_evaluate(iface, f)

            def check(res, out, arc=arc, walls=walls):
                table, j_value = res
                problems = checks.oracle_problems(arc, table, ORACLE_GRID)
                problems += checks.variational_problems(arc, j_value, J_GRID)
                if walls == "flat":
                    problems += checks.flat_wall_problems(
                        arc, [row["analytic"] for row in table["rows"]])
                out.add(problems)

            # each call allocates a 20001-row LIL matrix, whose
            # collections would otherwise cost what the heap holds
            ops.append(Op("crosscheck", 1, call, check, collect_before=True))
        return ops


WORKLOADS = {"classify-mix": ClassifyMix, "batch-cli": BatchCli,
             "oracle-crosscheck": OracleCrosscheck}
