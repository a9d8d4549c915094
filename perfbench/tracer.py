"""Run one rangebound CLI command with spans recorded around its layer calls.

    python3 perfbench/tracer.py SPANS_JSON <rangebound cli arguments...>

The library is not edited. Each traced function is replaced, in the namespace
its callers look it up in, by a wrapper that records a span: name, start, end
and the index of the enclosing span. Most callers bind names by ``from``
imports, so a function is patched once per calling module. Spans stay in
memory and are written to SPANS_JSON when the command ends.

Hot layers also count work. ``engine.simulate_path`` and
``transforms.recurrence`` count steps and hash their inputs, so the caller can
tell steps computed on inputs this command has already seen. Hashing runs in a
``trace.count`` span of its own, so it is excluded from every other span's
self time.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import os
import sys
import time
from functools import wraps

import numpy as np

# span name -> "module.attribute" sites to patch, module relative to rangebound
LAYERS = {
    "config.parse_config": ("cli.parse_config",),
    "experiment.run_experiment": ("cli.run_experiment",),
    "experiment.emit_figures": ("cli.emit_figures",),
    "experiment.verify_suite": ("cli.verify_suite",),
    "experiment.prepare_path": ("experiment.prepare_path",),
    # the one private name: it is the I/O boundary of run and figures
    "experiment.write_csv": ("experiment._write_csv",),
    "engine.sample_wiener": ("experiment.sample_wiener",),
    "engine.simulate_path": ("experiment.simulate_path", "verification.simulate_path"),
    "engine.coarsen_increments": (
        "experiment.coarsen_increments",
        "verification.coarsen_increments",
    ),
    "quadrature.cumsum": (
        "experiment.ito_cumsum",
        "experiment.riemann_cumsum",
        "transforms.ito_cumsum",
        "transforms.riemann_cumsum",
    ),
    "transforms.recurrence": (
        "experiment.bounded_transform_recursive",
        "experiment.weighted_transform_recursive",
        "verification.bounded_transform_recursive",
        "verification.weighted_transform_recursive",
    ),
    "transforms.identity_sides": (
        "experiment.bounded_identity_sides",
        "experiment.weighted_identity_sides",
        "verification.bounded_identity_sides",
        "verification.weighted_identity_sides",
    ),
    "transforms.rotation": (
        "experiment.unit_rotation_identity",
        "experiment.scaled_rotation_identity",
        "verification.unit_rotation_running_sides",
        "verification.scaled_rotation_running_sides",
    ),
    "transforms.variance_discounted_u": ("experiment.variance_discounted_u",),
    "verification.check_envelope": ("experiment.check_envelope",),
    "verification.compare_oracle": ("experiment.compare_oracle",),
    "verification.estimate_order": ("experiment.estimate_order",),
}

# verification.TRANSFORM_PAIRS holds the function objects captured at import,
# so the oracle's calls are patched in that table. Its recurrence gets a span
# name of its own: transforms.recurrence counts the recurrences the commands
# compute for their outputs, and the oracle's reference recurrence stays
# inside verification.compare_oracle.
ORACLE_PAIR_SPANS = ("transforms.direct", "transforms.oracle_recurrence")


def _digest(*arrays) -> bytes:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=np.float64))
    return h.digest()


def _count_simulate(recorder, fn, args, result):
    increments = args["increments"]
    steps = len(increments)
    return recorder.unique("engine.simulate_path", _digest(increments), steps)


def _count_recurrence(recorder, fn, args, result):
    path = args["path"]
    key = fn.__name__.encode() + _digest(path.x, path.u, path.sigma)
    return recorder.unique("transforms.recurrence", key, path.grid.n_steps)


def _count_direct(recorder, fn, args, result):
    n = args["path"].grid.n_steps
    return {"terms": n * (n + 1) // 2}


def _count_csv(recorder, fn, args, result):
    return {"files": 1, "bytes": os.path.getsize(result)}


COUNTERS = {
    "engine.simulate_path": _count_simulate,
    "transforms.recurrence": _count_recurrence,
    "transforms.direct": _count_direct,
    "experiment.write_csv": _count_csv,
}


class Recorder:
    """Spans of one process, kept in memory until dump()."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._seen: dict[str, set] = {}

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "parent": parent})
        self._stack.append(index)
        self.spans[index]["start"] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        self._stack.pop()

    def unique(self, layer: str, key: bytes, steps: int) -> dict:
        seen = self._seen.setdefault(layer, set())
        fresh = key not in seen
        seen.add(key)
        return {"steps": steps, "unique_steps": steps if fresh else 0}

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                count_index = self._open("trace.count")
                try:
                    bound = signature.bind(*args, **kwargs).arguments
                    self.spans[index]["counts"] = counter(self, fn, bound, result)
                finally:
                    self._close(count_index)
            return result

        return traced

    def dump(self, target: str, missing: list[str]) -> None:
        with open(target, "w") as handle:
            json.dump({"spans": self.spans, "missing": missing}, handle)


def install(recorder: Recorder) -> list[str]:
    """Patch every site in LAYERS and the oracle table; return sites not found."""
    missing = []
    for name, sites in LAYERS.items():
        for site in sites:
            module_name, _, attr = site.partition(".")
            module = importlib.import_module(f"rangebound.{module_name}")
            if not hasattr(module, attr):
                missing.append(site)
                continue
            setattr(module, attr, recorder.wrap(name, getattr(module, attr)))
    verification = importlib.import_module("rangebound.verification")
    pairs = getattr(verification, "TRANSFORM_PAIRS", None)
    if pairs is None:
        missing.append("verification.TRANSFORM_PAIRS")
    else:
        for which, fns in list(pairs.items()):
            pairs[which] = tuple(
                recorder.wrap(span, fn) for span, fn in zip(ORACLE_PAIR_SPANS, fns)
            )
    return missing


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    # imported here: run.py imports this module for LAYERS without src/ on its path
    from rangebound import cli

    recorder = Recorder()
    missing = install(recorder)
    try:
        return recorder.wrap("cli.main", cli.main)(cli_args)
    finally:
        recorder.dump(spans_path, missing)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
