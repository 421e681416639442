"""Fresh-interpreter probes, one JSON line on stdout.

    python3 bench/probe.py setup <workload>   # import partstab + first call per layer
    python3 bench/probe.py baseline           # import numpy and scipy without partstab
    python3 bench/probe.py imports            # incremental import time per module

run.py starts these with src/ on PYTHONPATH and takes the median over
several probes.  The inputs are tiny and fixed; nothing here is checked.
"""

from __future__ import annotations

import importlib
import importlib.util
import io
import json
import os
import sys
import time
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

MODULES = ("geometry", "spectrum", "oracle", "multiphase", "cli")


def setup(workload: str, workdir: Path) -> dict:
    config = workdir / "probe-config.json"
    if workload == "batch-cli":
        config.write_text(json.dumps({"connected": True, "interfaces": [
            {"gamma": 1.0, "kappa": 0.0, "kappa_signed": 0.0, "length": 1.0,
             "sigma": [1.0, 1.0]}]}))
    t0 = time.perf_counter()
    import partstab
    from partstab import cli, oracle, spectrum

    arc = partstab.ArcInterface(1.0, 4.0, 1.0, 1.0)
    if workload == "classify-mix":
        spectrum.classify(arc)
    elif workload == "batch-cli":
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            cli.main(["sweep", "--kappa", "0.1", "--sigma1", "1", "--sigma2", "1",
                      "--l-min", "1", "--l-max", "1", "--steps", "1"])
            cli.main(["multiphase", "--config", str(config)])
    elif workload == "oracle-crosscheck":
        oracle.spectrum_compare(arc, 2001, 1)
        oracle.J_evaluate(arc, oracle.discretize(arc, 2001).grid)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    return {"setup_s": time.perf_counter() - t0}


def baseline() -> dict:
    """The same kind of work as set-up without partstab: importing the
    libraries it builds on.  run.py divides each set-up time by the
    baseline timed next to it."""
    t0 = time.perf_counter()
    import argparse  # noqa: F401

    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401
    return {"baseline_s": time.perf_counter() - t0}


def imports() -> dict:
    """Import partstab's modules one by one, in dependency order, without
    running the package __init__ (which imports all of them at once)."""
    src = Path(importlib.util.find_spec("partstab").origin).parent
    package = types.ModuleType("partstab")
    package.__path__ = [str(src)]
    sys.modules["partstab"] = package
    out = {}
    for name in MODULES:
        t = time.perf_counter()
        importlib.import_module(f"partstab.{name}")
        out[f"{name}.import_ms"] = (time.perf_counter() - t) * 1e3
    return out


def scipy_optimize() -> dict:
    """What importing brentq's module costs once numpy is loaded."""
    import numpy  # noqa: F401

    t = time.perf_counter()
    import scipy.optimize  # noqa: F401
    return {"scipy_optimize.import_ms": (time.perf_counter() - t) * 1e3}


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        result = setup(sys.argv[2], Path(os.environ.get("BENCH_WORKDIR", ".")))
    elif mode == "baseline":
        result = baseline()
    elif mode == "imports":
        result = imports()
    elif mode == "scipy-optimize":
        result = scipy_optimize()
    else:
        raise SystemExit(f"unknown probe {mode!r}")
    print(json.dumps(result))
