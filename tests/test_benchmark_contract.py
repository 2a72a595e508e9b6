"""The benchmark's own checks pass on the package as it stands.

One clean pass of each workload in ``perfbench/workloads.py``, untraced
and unprobed.  A package change that breaks what the benchmark reads or
checks fails here, not only when the benchmark itself runs.
"""
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
with mock.patch.dict(os.environ):  # run.py pins the BLAS thread count
    import run  # noqa: E402
    import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_clean_pass_fails_no_operation(name):
    run.WORK.mkdir(exist_ok=True)
    result = run.Pass(workloads.WORKLOADS[name](0)).run()
    assert result.attempted > 0
    assert result.failed == 0, name
