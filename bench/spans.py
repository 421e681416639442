"""Spans and counts around partstab's public functions.

The functions are wrapped by substituting module (or class) attributes
from the outside; partstab's source is not touched.  Internal calls that
go through a module global (spectrum.classify -> case_modes, for example)
see the wrapper too.  Spans are kept in memory as (name, start, end,
parent) and written out when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.enabled = False
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._seen_ab: set = set()

    # -- recording ----------------------------------------------------------

    def count(self, name: str, value: float = 1.0) -> None:
        if self.enabled:
            self.counts[name] += value

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Replace owner.attr by a recording wrapper.

        before(args, kwargs) may return new (args, kwargs); after(args,
        kwargs, result) records counts.  Both run inside the span.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((name, time.perf_counter(), 0.0, parent))
            tracer._stack.append(index)
            try:
                if before is not None:
                    args, kwargs = before(args, kwargs)
                result = original(*args, **kwargs)
                if after is not None:
                    after(args, kwargs, result)
                return result
            finally:
                tracer._stack.pop()
                start = tracer.spans[index][1]
                tracer.spans[index] = (name, start, time.perf_counter(), parent)

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- partstab's layers -------------------------------------------------

    def install(self, ps) -> None:
        spectrum, oracle, multiphase, cli = ps.spectrum, ps.oracle, ps.multiphase, ps.cli

        def counting_f(args, kwargs):
            f = args[0]

            def counted(x):
                size = getattr(x, "size", 1)
                self.count("spectrum.find_sign_change_roots.det_evals", size)
                if getattr(x, "ndim", 0) == 0:
                    self.count("spectrum.find_sign_change_roots.scalar_evals")
                return f(x)

            return (counted,) + tuple(args[1:]), kwargs

        self.wrap(spectrum, "find_sign_change_roots", "spectrum.find_sign_change_roots",
                  before=counting_f,
                  after=lambda a, k, r: self.count("spectrum.find_sign_change_roots.roots",
                                                   len(r)))

        def after_modes(args, kwargs, modes):
            arc, tag = args[0], args[1]
            self.count("spectrum.case_modes.modes", len(modes))
            if tag in ("I", "II"):
                # the key a root cache on (sigma1*L, sigma2*L) would use
                key = (arc.sigma1 * arc.length, arc.sigma2 * arc.length, tag)
                self.count("spectrum.case_modes.scans")
                if key in self._seen_ab:
                    self.count("spectrum.case_modes.repeat_ab")
                self._seen_ab.add(key)

        self.wrap(spectrum, "case_modes", "spectrum.case_modes", after=after_modes)
        self.wrap(spectrum, "classify", "spectrum.classify")
        self.wrap(multiphase, "classify", "spectrum.classify")
        self.wrap(spectrum, "crit2_root", "spectrum.crit2_root")
        self.wrap(oracle, "discretize", "oracle.discretize")
        self.wrap(oracle.DiscreteOperator, "form_matrix", "oracle.form_matrix")
        self.wrap(oracle, "constrained_eigenpairs", "oracle.constrained_eigenpairs",
                  after=lambda a, k, r: self.count("oracle.constrained_eigenpairs.eigs",
                                                   len(r[0])))
        self.wrap(oracle, "spectrum_compare", "oracle.spectrum_compare")
        self.wrap(oracle, "J_evaluate", "oracle.J_evaluate",
                  after=lambda a, k, r: self.count("oracle.J_evaluate.points", len(a[1])))
        self.wrap(multiphase, "load_config", "multiphase.load_config")
        self.wrap(multiphase, "classify_config", "multiphase.classify_config")
        # cli.main runs with stdout redirected to a fresh StringIO
        self.wrap(cli, "main", "cli.main",
                  after=lambda a, k, r: self.count(
                      "cli.main.stdout_bytes", len(sys.stdout.getvalue().encode())))
        self.wrap(cli, "build_parser", "cli.build_parser")

    # -- reporting ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy ms and self ms."""
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "ms": 0.0,
                                                                 "self_ms": 0.0})
        for i, (name, start, end, parent) in enumerate(self.spans):
            ms = (end - start) * 1e3
            entry = out[name]
            entry["calls"] += 1
            entry["ms"] += ms
            entry["self_ms"] += ms - child_ms[i]
        return out

    def write(self, path: Path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_us": round((start - t0) * 1e6, 1),
                                     "end_us": round((end - t0) * 1e6, 1),
                                     "parent": parent}) + "\n")
