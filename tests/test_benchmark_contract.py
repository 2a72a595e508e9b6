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

from zenoauger import PropagationConfig

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
with mock.patch.dict(os.environ):  # run.py pins the BLAS thread count
    import run  # noqa: E402
    import tracing  # noqa: E402
    import workloads  # noqa: E402


@pytest.mark.parametrize("name, traced", [
    pytest.param(name, traced, id=f"{name}-traced" if traced else name)
    for name in sorted(workloads.WORKLOADS) for traced in (False, True)])
def test_clean_pass_fails_no_operation(name, traced):
    run.WORK.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if traced else None
    result = run.Pass(workloads.WORKLOADS[name](0), tracer).run()
    assert result.attempted > 0
    assert result.failed == 0, name
    if traced:
        metrics = tracer.metrics()
        assert metrics["drive.coupling_calls"] > 0
        assert metrics["propagator.intervals"] > 0
        # the tracer counts products at static_csr.dot; a product path
        # that skips it would read 0 matvecs here
        assert metrics["model.matvecs"] > 0
        assert (1 <= metrics["propagator.krylov_dim_mean"]
                <= PropagationConfig.krylov_dim)
