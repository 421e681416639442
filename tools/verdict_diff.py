"""Compare classify verdicts and witnesses of two partstab source trees.

    python tools/verdict_diff.py OLD_SRC NEW_SRC [--seed 0] [--n 1200]

Each tree classifies the same seeded arcs in its own interpreter.  The arcs
are drawn in (a, b, kL) = (sigma1*L, sigma2*L, kappa*L) with a random length
and cover all six decision branches.  Reported per branch of the old tree:
class and evidence mismatches, the largest relative mu1 change, Case I
witnesses that are not byte-identical, and Case II witnesses that differ by
more than 1e-9 (relative) up to an overall sign.  New-tree witnesses that
fail reconstruct_eigenfunction's Robin check are counted too.  On one arc
in every 20, cycling through the four arc kinds, the three smallest oracle
eigenvalues at n = 401 are compared as well: eigenvalues that moved by more
than 1e-10 relative to max(1, |mu|) are counted, and the worst change is
reported.  Exits 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import Counter, defaultdict

CLASSIFY = r"""
import json, sys
import numpy as np
from partstab import (ArcInterface, classify, constrained_eigenpairs, discretize,
                      reconstruct_eigenfunction)
rng = np.random.default_rng(int(sys.argv[1]))
for i in range(int(sys.argv[2])):
    kind = i % 4
    kl = rng.uniform(0.0, 1.2 * np.pi)
    L = float(np.exp(rng.uniform(np.log(0.3), np.log(20.0))))
    if kind == 0:                      # both walls curved
        a, b = rng.uniform(0.05, 30.0, size=2)
    elif kind == 1:                    # one flat wall
        a, b = rng.uniform(0.0, 20.0), 0.0
    elif kind == 2:                    # one flat wall on the Case III length
        a, b = 3.0, 0.0
    else:                              # both walls flat
        a, b = 0.0, 0.0
    if rng.uniform() < 0.5:
        a, b = b, a
    arc = ArcInterface(kl / L, L, a / L, b / L)
    v = classify(arc)
    w = v.witness
    robin = None
    if w is not None:
        try:
            reconstruct_eigenfunction(w, arc, 201)
            robin = True
        except (AssertionError, ArithmeticError):
            robin = False
    print(json.dumps({
        "arc": [arc.kappa, arc.length, arc.sigma1, arc.sigma2],
        "class": v.classification, "evidence": v.evidence, "mu1": v.mu1,
        "witness": None if w is None else [w.case_tag, w.k, w.mu, list(w.coeffs)],
        "coeffs_repr": None if w is None else [repr(c) for c in w.coeffs],
        "robin": robin,
        # one arc in every 20, cycling through the four kinds
        "oracle": (constrained_eigenpairs(discretize(arc, 401), 3)[0].tolist()
                   if i % 20 == i // 20 % 4 else None)}))
"""


def run_tree(src: str, seed: int, n: int) -> list[dict]:
    out = subprocess.run([sys.executable, "-c", CLASSIFY, str(seed), str(n)],
                         env={"PYTHONPATH": src, "OMP_NUM_THREADS": "1"}, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return [json.loads(line) for line in out.splitlines()]


def signed_gap(old: list[float], new: list[float]) -> float:
    scale = max(max(abs(c) for c in old), 1e-300)
    return min(max(abs(n - s * o) for o, n in zip(old, new)) for s in (1.0, -1.0)) / scale


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old_src")
    p.add_argument("new_src")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=1200)
    args = p.parse_args(argv)
    old, new = run_tree(args.old_src, args.seed, args.n), run_tree(args.new_src, args.seed, args.n)
    counts: dict[str, Counter] = defaultdict(Counter)
    worst_mu = defaultdict(float)
    worst_oracle = defaultdict(float)
    for o, m in zip(old, new):
        c = counts[o["evidence"]]
        c["arcs"] += 1
        c["class/evidence differ"] += (o["class"], o["evidence"]) != (m["class"], m["evidence"])
        if (o["mu1"] is None) != (m["mu1"] is None):
            c["mu1 None differs"] += 1
        elif o["mu1"] is not None:
            rel = abs(m["mu1"] - o["mu1"]) / max(abs(o["mu1"]), 1e-300)
            worst_mu[o["evidence"]] = max(worst_mu[o["evidence"]], rel)
            c["mu1 rel > 1e-10"] += rel > 1e-10
        c["new Robin check fails"] += m["robin"] is False
        if o["oracle"] is not None:
            for mu_o, mu_n in zip(o["oracle"], m["oracle"]):
                rel = abs(mu_n - mu_o) / max(1.0, abs(mu_o))
                worst_oracle[o["evidence"]] = max(worst_oracle[o["evidence"]], rel)
                c["oracle mu rel > 1e-10"] += rel > 1e-10
        ow, nw = o["witness"], m["witness"]
        if (ow is None) != (nw is None) or (ow is not None and ow[0] != nw[0]):
            c["witness kind differs"] += 1
        elif ow is None:
            continue
        elif ow[0] == "I":
            c["Case I witness not byte-identical"] += o["coeffs_repr"] != m["coeffs_repr"]
        elif ow[0] == "II":
            c["Case II witness gap > 1e-9"] += signed_gap(ow[3], nw[3]) > 1e-9
    failed = False
    for evidence in sorted(counts):
        c = counts[evidence]
        print(f"{evidence}: " + ", ".join(f"{k} {v}" for k, v in sorted(c.items()))
              + f", worst mu1 rel change {worst_mu[evidence]:.3g}"
              + f", worst oracle mu change {worst_oracle[evidence]:.3g}")
        failed |= any(v for k, v in c.items() if k != "arcs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
