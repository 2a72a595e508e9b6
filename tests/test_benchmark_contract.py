"""The benchmark's own checks pass on the package as it stands.

One clean pass of each workload in ``perfbench/workloads.py``, unprobed,
once untraced and once under the tracer, which swaps package functions
for timing wrappers by name.  A package change that breaks what the
benchmark reads, checks or patches fails here, not only when the
benchmark itself runs.
"""
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

import zenoauger.propagator as prop
from zenoauger import PropagationConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
with mock.patch.dict(os.environ):  # run.py pins the BLAS thread count
    import run  # noqa: E402
    import tracing  # noqa: E402
    import workloads  # noqa: E402


@pytest.mark.parametrize("name, traced", [
    pytest.param(name, traced, id=f"{name}-traced" if traced else name)
    for name in sorted(workloads.WORKLOADS) for traced in (False, True)])
def test_clean_pass_fails_no_operation(name, traced, monkeypatch):
    run.WORK.mkdir(exist_ok=True)
    calls = {"s6": 0, "expv": 0}
    s6, expv = prop._s6_step, prop._lanczos_expv

    def counting_s6(*args):
        calls["s6"] += 1
        return s6(*args)

    def counting_expv(*args):
        calls["expv"] += 1
        return expv(*args)

    monkeypatch.setattr(prop, "_s6_step", counting_s6)
    monkeypatch.setattr(prop, "_lanczos_expv", counting_expv)
    tracer = tracing.Tracer() if traced else None
    result = run.Pass(workloads.WORKLOADS[name](0), tracer).run()
    assert result.attempted > 0
    assert result.failed == 0, name
    # every workload holds a full-field run, which takes S6 steps
    assert calls["s6"] > 0
    if not traced:
        return
    metrics = tracer.metrics()
    # the tracer counts coupling reads: six per S6 step, one per Lanczos
    # exponential
    assert metrics["drive.coupling_calls"] == 6 * calls["s6"] + calls["expv"]
    if name == "preset_mix":
        # its li_rwa run (square rotating-frame windows) is a Krylov run;
        # li_off takes the exact phase flows.  The tracer counts
        # products at static_csr.dot and intervals at evolve_interval; a
        # product path that skips them would read 0 here.  The tracer's
        # own krylov_dim_mean divides by every coupling read, S6 stage
        # reads included, so the mean Krylov dimension is taken over the
        # exponentials counted here
        assert metrics["propagator.intervals"] > 0
        assert metrics["model.matvecs"] > 0
        assert (1 <= metrics["model.matvecs"] / calls["expv"]
                <= PropagationConfig.krylov_dim)
