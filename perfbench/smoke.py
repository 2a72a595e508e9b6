"""Quick self-test of the benchmark harness (about half a minute).

Run from the root of a checkout:

    python3 perfbench/smoke.py

It checks that

* one clean pass of preset_mix passes every check;
* an operation that raises counts as failed while the run goes on: with
  ``propagation.residual_tol=-1`` every propagation raises
  ``ConvergenceError``, so every operation of every workload fails, the
  result reads ``correct: false`` and the exit code is 1;
* a traced run reports exactly the per-layer metrics BENCHMARK.json lists;
* without the package sources the benchmark exits non-zero and prints
  no result.
"""
from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
from argparse import Namespace
from pathlib import Path

import run

sys.path.insert(0, str(run.SRC))
import workloads  # noqa: E402

BROKEN = ("propagation.residual_tol=-1",)


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def report(workload, trace: int) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.report(workload, Namespace(seed=0, seconds=1.0,
                                              trace=trace))
    return code, last_json(out.getvalue())


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())

    clean = run.Pass(workloads.PresetMix(0)).run()
    assert (clean.attempted, clean.failed) == (4, 0), vars(clean)

    for cls in workloads.WORKLOADS.values():
        failing = run.Pass(cls(0, overrides=BROKEN)).run()
        assert failing.attempted > 0, cls.name
        assert failing.failed == failing.attempted, (cls.name, vars(failing))

    code, result = report(workloads.PresetMix(0, overrides=BROKEN), trace=0)
    assert code == 1 and result["correct"] is False, result
    assert result["failed"] == result["attempted"] > 0, result
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}

    code, result = report(workloads.PresetMix(0), trace=1)
    assert code == 0 and result["correct"] is True, result
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["cli.emit_bytes"]["value"] > 0, result

    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*spec["command"], "--workload", "preset_mix", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
        assert proc.returncode != 0 and not proc.stdout.strip(), proc
    finally:
        shutil.rmtree(bare)

    print("perfbench smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
