"""Alternating parent/change pairs of the benchmark, recorded in one file.

    python3 tools/bench_pairs.py PARENT --pr 17 --what "..."

Run from anywhere inside a checkout.  The parent is a fresh copy of the
commit PARENT, made by ``git archive``; the change is a fresh copy of the
working tree (every file git tracks or would track).  For each workload
of ``BENCHMARK.json``, each of 10 pairs runs ``perfbench/run.py --trace
0`` for the benchmark's ``run_seconds`` once in each copy on one seed,
the side that goes first alternating from pair to pair.  Then 3 pairs
of traced passes (``--trace 1``) of ``preset_mix`` run the same way, so
that host drift between the sides does not read as a layer's cost.
Before the pairs, the parent's ``tools/emit_cases.py`` writes its cases
once with each copy's package, and the files that ``diff -r`` finds
different between the two trees are recorded: an empty list when they
are byte-identical.  Then the Tier-1 suite (``python -m pytest -q
--continue-on-collection-errors``) runs once in each copy, and its wall
time and its passed and failed counts are recorded per side.

Everything goes to ``BENCH_<pr>.json`` at the root of the checkout,
rewritten after every pair: per-pair values of each side and, per
metric, the quartiles of each side and the number of pairs in which the
change reads lower.  Nothing under ``perfbench/`` is changed.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10
TRACED = "preset_mix"
TRACED_PAIRS = 3


def metrics(benchmark: dict) -> dict:
    """Unit of each metric a pair records: the benchmark's end-to-end
    metrics, and the raw medians of the times that perfbench scales to a
    reference host speed."""
    units = {m["name"]: m["unit"] for m in benchmark["end_to_end"]}
    units.update({f"{name}_raw": f"{units[name]}, not scaled"
                  for name in ("wall_s", "setup_s")})
    return units


def parent_copy(rev: str, dest: Path) -> Path:
    """The commit ``rev`` of this checkout, extracted into ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    dest.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def tree_copy(dest: Path) -> Path:
    """The working tree's tracked and untracked, not ignored, files."""
    listing = subprocess.run(
        ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        cwd=ROOT, check=True, capture_output=True, text=True).stdout
    for name in filter(None, listing.split("\0")):
        source = ROOT / name
        if source.is_file():  # a deleted, not yet staged file is listed
            target = dest / name
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, target)
    return dest


def emit_cases(script: Path, copy: Path, out: Path) -> None:
    """The cases of the emit script, written into out with the copy's
    package."""
    subprocess.run([sys.executable, str(script), str(out)], cwd=copy,
                   env={**os.environ, "PYTHONPATH": str(copy / "src")},
                   check=True, capture_output=True)


def differing_files(a: Path, b: Path) -> list[str]:
    """Paths, relative to the two roots, that ``diff -r`` reports: a file
    on both sides whose bytes differ, or an entry on one side only, with
    that side's root name appended."""
    done = subprocess.run(["diff", "-rq", str(a), str(b)],
                          capture_output=True, text=True)
    if done.returncode > 1:
        raise RuntimeError(f"diff -r failed:\n{done.stderr}")
    found = []
    for line in done.stdout.splitlines():
        if line.startswith("Only in "):
            folder, name = line[len("Only in "):].split(": ", 1)
            root = a if Path(folder).is_relative_to(a) else b
            path = Path(folder).relative_to(root) / name
            found.append(f"{path.as_posix()} (only in {root.name})")
        else:  # "Files <a>/<path> and <b>/<path> differ"
            first = line[len("Files "):].split(" and ", 1)[0]
            found.append(Path(first).relative_to(a).as_posix())
    return sorted(found)


def emit_diff(copies: dict, scratch: Path) -> list[str]:
    """The files in which the two copies' emitted cases differ, both
    written by the parent's emit script."""
    script = copies["parent"] / "tools" / "emit_cases.py"
    outs = {side: scratch / f"emit_{side}" for side in copies}
    for side, copy in copies.items():
        emit_cases(script, copy, outs[side])
    return differing_files(outs["parent"], outs["change"])


TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


def tier1_counts(stdout: str) -> dict:
    """The outcome counts of pytest's last summary line ("3 failed, 344
    passed, 1 error in 58.2s"); passed and failed are always present."""
    summary = [line for line in stdout.splitlines()
               if re.search(r"\d+ \w+.* in [\d.]+s", line)]
    if not summary:
        raise ValueError("no pytest summary line in the output")
    head = summary[-1].rsplit(" in ", 1)[0]
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", head)}
    return {"passed": 0, "failed": 0, **counts}


def tier1(copy: Path) -> dict:
    """Wall time and outcome counts of one Tier-1 run in the copy."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *TIER1], cwd=copy,
                          env={**os.environ, "PYTHONPATH": str(copy / "src")},
                          capture_output=True, text=True)
    wall = time.perf_counter() - start
    return {"wall_s": round(wall, 2), **tier1_counts(done.stdout)}


def _median_of_line(stdout: str, prefix: str) -> tuple[float, int]:
    """(median, count) of the numbers on the line that starts with prefix."""
    for line in stdout.splitlines():
        if line.strip().startswith(prefix):
            values = [float(v) for v in line.split(":", 1)[1].split()]
            return statistics.median(values), len(values)
    raise ValueError(f"no line starting with {prefix!r} in the output")


def parse_run(stdout: str, traced: bool) -> dict:
    """The values one run of perfbench/run.py printed."""
    last = json.loads(stdout.strip().splitlines()[-1])
    values = {name: metric["value"]
              for name, metric in last["metrics"].items()}
    if not traced:
        values["wall_s_raw"], values["passes"] = _median_of_line(
            stdout, "raw wall per pass:")
        values["setup_s_raw"], _ = _median_of_line(stdout, "raw:")
    values = {name: round(value, 4) for name, value in values.items()}
    values.update(attempted=last["attempted"], failed=last["failed"])
    return values


def run_bench(copy: Path, workload: str, seed: int, seconds: float,
              traced: bool = False) -> dict:
    """One run of perfbench/run.py in the copy, parsed."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(traced))],
        cwd=copy, capture_output=True, text=True)
    if done.returncode not in (0, 1):  # 1: an operation failed its check
        raise RuntimeError(f"perfbench/run.py exited {done.returncode} in "
                           f"{copy}:\n{done.stderr}")
    return parse_run(done.stdout, traced)


def run_pairs(copies: dict, workload: str, seeds, seconds: float,
              traced: bool = False):
    """Yield one pair of runs per seed, the side that goes first
    alternating from pair to pair."""
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed}
        for side in order:
            pair[side] = run_bench(copies[side], workload, seed, seconds,
                                   traced)
        pair["first"] = order[0]
        yield pair


def quartiles(values) -> list[float]:
    """[q1, median, q3], inclusive method, rounded to 4 decimals."""
    if len(values) == 1:
        return [round(values[0], 4)] * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [round(q1, 4), round(median, 4), round(q3, 4)]


def summarize(pairs: list[dict], names) -> dict:
    """Per metric of ``names``: each side's quartiles and the pairs the
    change wins."""
    summary = {}
    for name in names:
        parent = [pair["parent"][name] for pair in pairs]
        change = [pair["change"][name] for pair in pairs]
        summary[name] = {
            "parent_q1_median_q3": quartiles(parent),
            "change_q1_median_q3": quartiles(change),
            "change_lower_in_pairs": sum(c < p for p, c in zip(parent, change)),
        }
    summary["pairs"] = len(pairs)
    summary["failed"] = {side: sum(pair[side]["failed"] for pair in pairs)
                         for side in ("parent", "change")}
    return summary


def host() -> str:
    import numpy
    import scipy
    return (f"{os.cpu_count()}-CPU host, Python {platform.python_version()}, "
            f"numpy {numpy.__version__}, scipy {scipy.__version__}; "
            "perfbench pins BLAS/OpenMP to one thread")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="the commit to compare against")
    parser.add_argument("--pr", type=int, required=True,
                        help="names the output BENCH_<pr>.json and seeds "
                             "the runs from 100 * pr")
    parser.add_argument("--what", required=True,
                        help="one sentence on what the change does")
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    units = metrics(benchmark)
    rev = subprocess.run(["git", "rev-parse", args.parent], cwd=ROOT,
                         check=True, capture_output=True,
                         text=True).stdout.strip()
    out = ROOT / f"BENCH_{args.pr}.json"
    record = {
        "what": args.what, "parent": rev, "host": host(),
        "command": (f"python3 perfbench/run.py --workload <name> --seed "
                    f"<seed> --seconds {seconds:g} --trace 0, from "
                    "fresh copies of both trees (parent by git archive, "
                    "change from the working tree), alternating which side "
                    "runs first"),
        "units": units, "workloads": {}}

    def save():
        out.write_text(json.dumps(record, indent=2) + "\n")

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as scratch:
        copies = {"parent": parent_copy(rev, Path(scratch) / "parent"),
                  "change": tree_copy(Path(scratch) / "change")}
        record["emit_cases"] = {
            "command": ("PYTHONPATH=<copy>/src python3 <parent>/tools/"
                        "emit_cases.py <out>, in each copy, then diff -r "
                        "of the two outputs"),
            "differing_files": emit_diff(copies, Path(scratch))}
        save()
        print(f"emit_cases: {len(record['emit_cases']['differing_files'])} "
              "files differ", flush=True)
        record["tier1"] = {
            "command": (f"PYTHONPATH=<copy>/src python3 {' '.join(TIER1)}, "
                        "once in each copy, parent first")}
        for side, copy in copies.items():
            record["tier1"][side] = tier1(copy)
            save()
            print(f"tier1 {side}: {record['tier1'][side]}", flush=True)
        seed = 100 * args.pr
        for workload in (w["name"] for w in benchmark["workloads"]):
            pairs = []
            entry = record["workloads"][workload] = {"pairs": pairs}
            for pair in run_pairs(copies, workload,
                                  range(seed + 1, seed + PAIRS + 1), seconds):
                pairs.append(pair)
                entry["summary"] = summarize(pairs, units)
                save()
                print(f"{workload} pair {len(pairs)}: wall_s parent "
                      f"{pair['parent']['wall_s']} change "
                      f"{pair['change']['wall_s']}", flush=True)
            seed += PAIRS
        pairs = []
        entry = record[f"traced_{TRACED}"] = {
            "command": (f"python3 perfbench/run.py --workload {TRACED} "
                        f"--seed <seed> --seconds {seconds:g} --trace 1"),
            "note": ("per-pass medians of the traced passes, in alternating "
                     "pairs; *_us.d<n> are untraced micro-timings at "
                     "dimension n"),
            "pairs": pairs}
        seeds = range(seed + 1, seed + TRACED_PAIRS + 1)
        for pair in run_pairs(copies, TRACED, seeds, seconds, traced=True):
            pairs.append(pair)
            entry["summary"] = summarize(pairs, [
                name for name in pair["parent"] if name in pair["change"]
                and name not in ("attempted", "failed")])
            save()
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
