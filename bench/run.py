"""Benchmark of partstab: one workload per run, from the root of a checkout.

    python3 bench/run.py --workload classify-mix --seed 1 --seconds 10 --trace 0

--trace 0 measures the end-to-end metrics: median set-up time over fresh
interpreters, then closed-loop calls from one caller until the timed calls
have taken --seconds, in whole rounds.  --trace 1 runs a fixed number of
rounds (set by --seconds) twice, without and with spans around partstab's
public functions, and reports the per-layer metrics and the overhead.
Every answer is checked against the benchmark's own references.  The last
line of stdout is the JSON result.
"""

from __future__ import annotations

import os

# one BLAS thread: partstab's matrices are small, and threads only add noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 7
# median baseline probe time on the reference machine (see calibrate.py)
BASELINE_S = 0.45
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60
# timed seconds of one round on the reference machine; a traced run does
# --seconds / (2 * ROUND_S) rounds, so its counts depend on the seed and
# --seconds only
ROUND_S = {"classify-mix": 0.115, "batch-cli": 0.27, "oracle-crosscheck": 0.6}
# timed work between two measurements of the machine's speed
SEGMENT_S = 0.1
# a run stops drawing new rounds after this much wall time
WALL_LIMIT_S = 150

PER_LAYER = {
    "spectrum.find_sign_change_roots.calls": "count",
    "spectrum.find_sign_change_roots.ms": "ms",
    "spectrum.find_sign_change_roots.self_ms": "ms",
    "spectrum.find_sign_change_roots.det_evals": "count",
    "spectrum.find_sign_change_roots.scalar_evals": "count",
    "spectrum.find_sign_change_roots.roots": "count",
    "spectrum.case_modes.calls": "count",
    "spectrum.case_modes.ms": "ms",
    "spectrum.case_modes.self_ms": "ms",
    "spectrum.case_modes.modes": "count",
    "spectrum.case_modes.modes_per_verdict": "ratio",
    "spectrum.case_modes.repeat_ab_share": "ratio",
    "spectrum.classify.calls": "count",
    "spectrum.classify.self_ms": "ms",
    "spectrum.crit2_root.calls": "count",
    "spectrum.crit2_root.ms": "ms",
    "oracle.discretize.calls": "count",
    "oracle.discretize.ms": "ms",
    "oracle.form_matrix.calls": "count",
    "oracle.form_matrix.ms": "ms",
    "oracle.constrained_eigenpairs.calls": "count",
    "oracle.constrained_eigenpairs.ms": "ms",
    "oracle.constrained_eigenpairs.self_ms": "ms",
    "oracle.constrained_eigenpairs.eigs": "count",
    "oracle.spectrum_compare.calls": "count",
    "oracle.spectrum_compare.self_ms": "ms",
    "oracle.J_evaluate.calls": "count",
    "oracle.J_evaluate.ms": "ms",
    "oracle.J_evaluate.self_ms": "ms",
    "oracle.J_evaluate.ns_per_point": "ns",
    "multiphase.load_config.calls": "count",
    "multiphase.load_config.ms": "ms",
    "multiphase.classify_config.calls": "count",
    "multiphase.classify_config.self_ms": "ms",
    "cli.main.calls": "count",
    "cli.main.self_ms": "ms",
    "cli.main.stdout_bytes": "bytes",
    "cli.build_parser.calls": "count",
    "cli.build_parser.ms": "ms",
    "geometry.import_ms": "ms",
    "spectrum.import_ms": "ms",
    "oracle.import_ms": "ms",
    "multiphase.import_ms": "ms",
    "cli.import_ms": "ms",
    "scipy_optimize.import_ms": "ms",
    "trace.overhead_pct": "%",
}


def probe(args: list, workdir: Path) -> dict:
    env = dict(os.environ, BENCH_WORKDIR=str(workdir),
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                        os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(BENCH / "probe.py"), *args], env=env,
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


def median_probe(args: list, workdir: Path, n: int) -> dict:
    runs = [probe(args, workdir) for _ in range(n)]
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


class Speed:
    """The machine's speed while calls ran: the calibration kernel's time
    over its reference time (see calibrate.py), measured before a stretch
    of at most SEGMENT_S of timed calls and after it."""

    def __init__(self):
        self.before = 0.0
        self.segment: list = []
        self.busy = 0.0

    @staticmethod
    def measure() -> float:
        import calibrate

        return statistics.median(calibrate.kernel() for _ in range(3)) / calibrate.REFERENCE_S

    def start(self) -> None:
        self.before = self.measure()

    def add(self, timing: list) -> None:
        self.segment.append(timing)
        self.busy += timing[1]
        if self.busy >= SEGMENT_S:
            self.flush()

    def flush(self) -> None:
        if not self.segment:
            return
        after = self.measure()
        for timing in self.segment:
            timing[2] = 0.5 * (self.before + after)
        self.before, self.segment, self.busy = after, [], 0.0


def run_round(ops, outcome, timings, tracer=None, speed=None):
    """Call every op once (timed), then check every answer (not timed).

    Appends [op, seconds, speed] to timings; speed stays 1.0 without a
    Speed to measure it.
    """
    from workloads import Outcome

    results = []
    # garbage from drawing inputs and checking answers is collected here,
    # so its collection does not land inside partstab's time
    gc.collect()
    if speed is not None:
        speed.start()
    for i, op in enumerate(ops):
        if i and op.collect_before:
            gc.collect()
        if tracer is not None:
            tracer.enabled = True
        t = time.perf_counter()
        try:
            res = op.call()
        except Exception as exc:  # a raising call is a failed operation
            res = exc
        dt = time.perf_counter() - t
        if tracer is not None:
            tracer.enabled = False
        results.append(res)
        timings.append([op, dt, 1.0])
        if speed is not None:
            speed.add(timings[-1])
    if speed is not None:
        speed.flush()
    for op, res in zip(ops, results):
        if isinstance(res, Exception):
            outcome.add([f"{op.kind} raised {res!r}"], attempted=op.arcs)
            continue
        part = Outcome()
        try:
            op.check(res, part)
        except Exception as exc:
            part = Outcome()
            part.add([f"{op.kind} output could not be checked: {exc!r}"], attempted=op.arcs)
        outcome.attempted += part.attempted
        outcome.failed += part.failed
        outcome.unexpected += part.unexpected


def setup_seconds(workload: str, workdir: Path) -> float:
    """Median set-up time of fresh interpreters at the reference speed.

    Each set-up probe is paired with a baseline probe that imports the same
    libraries without partstab; the machine's speed for set-up is the
    baseline over BASELINE_S.  The kernel of calibrate.py, which tracks
    compute, tracked import time less well.
    """
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        seconds = probe(["setup", workload], workdir)["setup_s"]
        base = probe(["baseline"], workdir)["baseline_s"]
        raw.append(seconds)
        scaled.append(seconds * BASELINE_S / base)
    print(f"raw: setup_s {statistics.median(raw):.6g}", file=sys.stderr)
    return statistics.median(scaled)


def end_to_end(wl, seed: int, seconds: float, outcome) -> dict:
    """Whole rounds until the timed calls add up to `seconds`.

    Each call's time is divided by the machine's speed around it, so the
    figures are at the reference speed; the raw ones go to stderr.
    """
    import numpy as np

    speed = Speed()
    raw: list[float] = []
    scaled: list[float] = []
    busy = scaled_busy = arcs = 0.0
    r = 0
    start = time.perf_counter()
    while True:
        timings: list = []
        run_round(wl.round(np.random.default_rng([seed, r])), outcome, timings, speed=speed)
        if r > 0:   # round 0 is checked but not timed: lazy set-up happens there
            for op, dt, factor in timings:
                raw.append(dt * 1e3)
                scaled.append(dt * 1e3 / factor)
                busy += dt
                scaled_busy += dt / factor
                arcs += op.arcs
        r += 1
        if r > 1 and (busy >= seconds or time.perf_counter() - start > WALL_LIMIT_S):
            break

    # the mix of each round puts p50 and p90 well inside one population
    # of calls each (see README)
    print(f"raw: arcs_per_s {arcs / busy:.6g}, call_p50_ms {np.percentile(raw, 50):.6g}, "
          f"call_p90_ms {np.percentile(raw, 90):.6g}", file=sys.stderr)
    return {"arcs_per_s": (arcs / scaled_busy, "1/s"),
            "call_p50_ms": (float(np.percentile(scaled, 50)), "ms"),
            "call_p90_ms": (float(np.percentile(scaled, 90)), "ms")}


def per_layer(name: str, wl, ps, seed: int, seconds: float, outcome, workdir: Path) -> dict:
    import numpy as np

    from spans import Tracer

    tracer = Tracer()
    tracer.install(ps)
    rounds = max(1, round(seconds / (2 * ROUND_S[name])))
    speed = Speed()
    busy = {False: 0.0, True: 0.0}     # at the reference speed
    try:
        # round 0 warms up untraced; then each round runs untraced and
        # traced, alternating which goes first
        run_round(wl.round(np.random.default_rng([seed, 0])), outcome, [])
        for r in range(1, rounds + 1):
            for traced in ((False, True) if r % 2 else (True, False)):
                timings: list = []
                run_round(wl.round(np.random.default_rng([seed, r])), outcome, timings,
                          tracer if traced else None, speed)
                busy[traced] += sum(dt / factor for _, dt, factor in timings)
    finally:
        tracer.restore()
    tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl")

    totals = tracer.totals()
    counts = tracer.counts
    values: dict[str, float] = {}
    for metric in PER_LAYER:
        head, _, measure = metric.rpartition(".")
        if head in totals and measure in totals[head]:
            values[metric] = totals[head][measure]
        elif metric in counts:
            values[metric] = counts[metric]
    verdicts = totals.get("spectrum.classify", {}).get("calls", 0)
    scans = counts.get("spectrum.case_modes.scans", 0)
    points = counts.get("oracle.J_evaluate.points", 0)
    values["spectrum.case_modes.modes_per_verdict"] = (
        counts.get("spectrum.case_modes.modes", 0) / verdicts if verdicts else 0.0)
    values["spectrum.case_modes.repeat_ab_share"] = (
        counts.get("spectrum.case_modes.repeat_ab", 0) / scans if scans else 0.0)
    values["oracle.J_evaluate.ns_per_point"] = (
        totals["oracle.J_evaluate"]["ms"] * 1e6 / points if points else 0.0)
    values["trace.overhead_pct"] = 100.0 * (busy[True] - busy[False]) / busy[False]
    values.update(median_probe(["imports"], workdir, IMPORT_PROBES))
    values.update(median_probe(["scipy-optimize"], workdir, IMPORT_PROBES))
    return {m: (values.get(m, 0.0), unit) for m, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=lambda s: int(s) % (1 << 63), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "partstab" / "__init__.py").is_file():
        print(f"error: no partstab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import selftest
    from workloads import WORKLOADS, Outcome

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    selftest.run()

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        metrics = {}
        if not args.trace:
            metrics["setup_s"] = (setup_seconds(args.workload, workdir), "s")

        from partstab import cli, geometry, multiphase, oracle, spectrum

        ps = types.SimpleNamespace(cli=cli, geometry=geometry, multiphase=multiphase,
                                   oracle=oracle, spectrum=spectrum)
        wl = WORKLOADS[args.workload](ps, workdir)
        outcome = Outcome()
        if args.trace:
            metrics.update(per_layer(args.workload, wl, ps, args.seed, args.seconds,
                                     outcome, workdir))
        else:
            metrics.update(end_to_end(wl, args.seed, args.seconds, outcome))
            rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in outcome.unexpected[:20]:
        print(f"wrong answer: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not outcome.unexpected,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
