"""The benchmark's call surface: the callables perfbench traces exist under
the names it patches, and every workload runs one checked sample."""

import dataclasses
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_trace_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    for module, path, name in tracing.TARGETS:
        owner = importlib.import_module(module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        # a class method is patched in its owner's own __dict__, never inherited
        target = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert callable(target), f"{name}: {module}.{path} does not resolve"


def test_every_workload_runs_one_checked_sample(monkeypatch, tmp_path):
    # the workloads' own calls into hedgerow, at paper scale: a changed upload
    # shape or signature fails here, not only in the benchmark.  The batch
    # workload runs 2 samples on one thread, whatever the core count.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setenv("HEDGEROW_THREADS", "1")
    workloads = importlib.import_module("workloads")
    for name, w in workloads.WORKLOADS.items():
        w = dataclasses.replace(w, batch=min(w.batch, 2))
        inputs = workloads.make_inputs(w, seed=1)
        st = workloads.setup(w, inputs, 1, tmp_path / name / "setup")
        loop = workloads.run_loop(w, st, inputs, 1, seconds=0.0, first=0,
                                  workdir=tmp_path / name, min_samples=1)
        workloads.check(w, st, inputs, loop.samples)
        assert loop.samples and all(s.ok for s in loop.samples), \
            (name, [s.error for s in loop.samples])
