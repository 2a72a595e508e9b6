"""zenoauger benchmark: one workload per invocation, closed loop.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload preset_mix --seed 1 --seconds 50 --trace 0

Passes of the workload run back to back while another pass is expected
to end within ``--seconds``; at least one pass always runs.  Outputs of
every operation are checked outside the timed region and written to a
temporary directory under ``.perfbench/``, deleted after each pass.

``--trace 0`` reports the end-to-end metrics: the median pass wall time,
the set-up time (median of fresh interpreters importing the package and
expanding the workload's configs) and the peak resident memory of this
process and its children.  Both times are scaled to a reference host
speed by the probes of ``hostspeed.py``, timed around every operation
and every set-up interpreter; the raw times are printed as well.  The
whole run, set-up and one uncounted warm-up pass included, fits in
``--seconds``.  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics of the traced ones (median per
pass), the matvec micro-timings and the tracing overhead; the spans go
to ``.perfbench/spans-<workload>-seed<n>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every operation passed its check, 1 when one failed, and 2 when
the package sources are missing.
"""
from __future__ import annotations

import os

# One BLAS/OpenMP thread per process: the workloads run in one process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from collections import defaultdict
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

SETUP_REPEATS = 7
# Probe time on each side of an operation, as a share of the longer of
# the operations it sits between (their last wall time), at least
# PROBE_MIN_S.
PROBE_SHARE = 0.4
PROBE_MIN_S = 0.1
# A probe sample that ended this recently (the previous pass's last one,
# with only its checks in between) stands for the next pass's first.
PROBE_REUSE_S = 1.0
SETUP_PROGRAM = """
import json, sys
sys.path.insert(0, sys.argv[1])
import zenoauger
for preset, overrides in json.loads(sys.argv[2]):
    zenoauger.expand(zenoauger.preset_config(preset, overrides))
"""

UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count()}


def _elapsed(argv) -> float:
    start = time.perf_counter()
    subprocess.run(argv, check=True)
    return time.perf_counter() - start


def measure_setup(configs) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters reaching the first timed call.

    Returns the raw times and the same times at the reference host speed,
    each scaled by the start-up probes run right before and after it.
    """
    argv = [sys.executable, "-c", SETUP_PROGRAM, str(SRC), json.dumps(configs)]
    probe = [sys.executable, "-c", hostspeed.STARTUP_PROGRAM]
    _elapsed(argv)  # fills file caches; not counted
    raw, scaled = [], []
    before = _elapsed(probe)
    for _ in range(SETUP_REPEATS):
        raw.append(_elapsed(argv))
        after = _elapsed(probe)
        scaled.append(raw[-1] * hostspeed.REFERENCE_STARTUP_S
                      / ((before + after) / 2))
        before = after
    return raw, scaled


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Pass:
    """One closed-loop pass: timed operations, then their checks."""

    def __init__(self, workload, tracer=None, probe=None):
        self.workload = workload
        self.tracer = tracer
        self.probe = probe
        self.stats = defaultdict(float)
        self.attempted = self.failed = 0
        self.wall = 0.0
        self.reference_wall = 0.0  # at the probe's reference speed

    def run(self) -> "Pass":
        tmp = Path(tempfile.mkdtemp(prefix="pass-", dir=WORK))
        try:
            ops = self.workload.operations(tmp)
            if self.probe is not None:
                outputs = self._probed(ops)
            else:
                start = time.perf_counter()
                outputs = [self._timed(op) for op in ops]
                self.wall = time.perf_counter() - start
            self.attempted = len(ops)
            for op, (ok, output) in zip(ops, outputs):
                if not ok or not self._checked(op, output):
                    self.failed += 1
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        if self.tracer is not None:
            for key, value in self.stats.items():
                self.tracer.counters[key] += value
        return self

    def _probed(self, ops):
        """Operations timed one by one, each between two probe samples."""
        last = self.probe.last_wall
        lengths = [last.get(op.label, 0.0) for op in ops] + [0.0]
        outputs = []
        before = self.probe.sample(
            max(PROBE_MIN_S, PROBE_SHARE * lengths[0]), PROBE_REUSE_S)
        for i, op in enumerate(ops):
            start = time.perf_counter()
            outputs.append(self._timed(op))
            wall = time.perf_counter() - start
            last[op.label] = wall
            after = self.probe.sample(max(
                PROBE_MIN_S, PROBE_SHARE * max(wall, lengths[i + 1])))
            self.wall += wall
            self.reference_wall += (wall * hostspeed.REFERENCE_UNIT_S
                                    / ((before + after) / 2))
            before = after
        return outputs

    def _timed(self, op):
        try:
            if self.tracer is None:
                return True, op.run()
            self.tracer.operation = op.label
            with self.tracer:
                return True, op.run()
        except Exception:  # a failing operation is counted; the run goes on
            print(f"operation {op.label} raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return False, None

    def _checked(self, op, output) -> bool:
        try:
            op.check(output, self.stats)
            return True
        except Exception:
            print(f"operation {op.label} failed its check:\n"
                  f"{traceback.format_exc()}", file=sys.stderr)
            return False


def closed_loop(make_pass, seconds: float) -> list[Pass]:
    """Passes while the next one is expected to end within ``seconds``."""
    passes, spans = [], []
    start = time.perf_counter()
    while True:
        passes.append(make_pass(len(passes)).run())
        elapsed = time.perf_counter() - start
        spans.append(elapsed - sum(spans))
        if elapsed + statistics.median(spans) > seconds:
            return passes


def _times(values) -> str:
    return " ".join(f"{v:.4f}" for v in values)


def untraced_run(workload, seconds: float):
    start = time.perf_counter()
    raw_setup, setup = measure_setup(workload.configs())
    probe = hostspeed.Probe()
    warmup = Pass(workload, probe=probe).run()
    remaining = seconds - (time.perf_counter() - start)
    passes = closed_loop(lambda i: Pass(workload, probe=probe),
                         max(remaining, 0.0))
    walls = [p.reference_wall for p in passes]
    metrics = {"wall_s": statistics.median(walls),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": peak_rss_mb()}
    print(f"wall_s: median {metrics['wall_s']:.4f} s at reference speed "
          f"over {len(walls)} passes: {_times(walls)}")
    print(f"  raw wall per pass: {_times(p.wall for p in passes)}")
    print(f"  probe unit: {_times(probe.history)} s "
          f"(reference {hostspeed.REFERENCE_UNIT_S} s)")
    print(f"setup_s: median {metrics['setup_s']:.4f} s at reference speed "
          f"over {len(setup)} fresh interpreters: {_times(setup)}")
    print(f"  raw: {_times(raw_setup)}")
    print(f"peak_rss_mb: {metrics['peak_rss_mb']:.1f} MB")
    return metrics, [warmup, *passes]


def traced_run(workload, seconds: float, seed: int, header: dict):
    import tracing

    start = time.perf_counter()
    micro = tracing.micro_timings(seed)
    remaining = seconds - (time.perf_counter() - start)
    passes = closed_loop(
        lambda i: Pass(workload, tracing.Tracer() if i % 2 else None),
        max(remaining, 0.0))
    if len(passes) % 2:  # always end on a traced pass
        passes.append(Pass(workload, tracing.Tracer()).run())
    traced = [p for p in passes if p.tracer is not None]
    untraced = [p for p in passes if p.tracer is None]

    per_pass = [p.tracer.metrics() for p in traced]
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    metrics.update(micro)
    traced_wall = statistics.median(p.wall for p in traced)
    untraced_wall = statistics.median(p.wall for p in untraced)
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    print(f"tracing overhead: {traced_wall:.4f} s traced - "
          f"{untraced_wall:.4f} s untraced wall per pass "
          f"({len(traced)} and {len(untraced)} passes)")
    for layer in tracing.LAYERS:
        print(f"  {layer:12s} self {metrics[layer + '.self_s']:.4f} s")

    path = WORK / f"spans-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({**header, "metrics": metrics, "passes": [
        {"wall": p.wall, "counters": dict(p.tracer.counters),
         "spans": p.tracer.span_records(p.tracer.spans[0][1])}
        for p in traced]}))
    print(f"spans: {path}")
    units = {name: tracing.unit(name) for name in metrics}
    return metrics, units, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "zenoauger" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {SRC / 'zenoauger'}; run "
              "from the root of a zenoauger checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    return report(workloads.WORKLOADS[args.workload](args.seed), args)


def report(workload, args) -> int:
    """Run one workload as the arguments ask and print its result."""
    env = environment()
    print(f"workload {workload.name}, seed {args.seed}: {workload.describe()}")
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))
    WORK.mkdir(exist_ok=True)
    if args.trace:
        header = {"workload": workload.name, "seed": args.seed,
                  "inputs": workload.describe(), "environment": env}
        metrics, units, passes = traced_run(workload, args.seconds,
                                            args.seed, header)
    else:
        metrics, passes = untraced_run(workload, args.seconds)
        units = UNITS
    print("checked outputs, last pass: " + ", ".join(
        f"{k} {v:g}" for k, v in sorted(passes[-1].stats.items())))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.4g} "
          "(ratio)")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
