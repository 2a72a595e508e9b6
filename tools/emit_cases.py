"""Write the outputs of a fixed list of runs, validations and sweeps.

    PYTHONPATH=src python3 tools/emit_cases.py OUT

Each command case goes through ``zenoauger.cli.main``: a run or sweep
writes into ``OUT/<case>/``, and every such case writes ``OUT/<case>.log``
with its exit code, stdout and stderr (the output root spelled ``OUT``).
No command writes a concurrence matrix, so the concurrence cases call
``concurrence_matrix`` and ``write_concurrence``, each into
``OUT/<case>/``: two on the final state of one fig4 run at model.N = 301,
and one at floor 0 on a fixed synthetic state whose C spans 1e-120 to 1
and holds exact zeros, so that its file has values that the writer's
numpy formatting leaves to Python.  Running this
once per checkout and comparing the two directories with ``diff -r``
shows which output files, exit codes and refusals a change moves.  The
package is whichever ``zenoauger`` is first on ``PYTHONPATH``.  BLAS and
OpenMP run on one thread, as in ``perfbench/run.py``: the last digits of
every run's output depend on the thread count.
"""
import os

# One BLAS/OpenMP thread, set before numpy loads its BLAS.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

from zenoauger.cli import main
from zenoauger.config import execute, preset_config
from zenoauger.entanglement import concurrence_matrix, write_concurrence
from zenoauger.model import StateVector

RAMP = ["drive.envelope=cosine_ramp", "drive.ramp=0.5 fs"]
T30 = "propagation.T_total=30 fs"
SNAPSHOTS = "propagation.spectrum_snapshot_times=0 fs, 10 fs, 15 fs"
N41 = "model.N=41"  # recurrence time within the 100 fs span: refused
RUNS = {
    "li": ("li", []),
    "li_dt_max": ("li", ["propagation.dt_max=3 au"]),  # below carrier/10
    "li_dt_max_coarse": ("li", ["propagation.dt_max=10 au"]),  # above it
    "li_rwa_dt_max": ("li", ["drive.mode=rwa_pulsed", "propagation.dt_max=3 au"]),
    "li_off": ("li", ["drive.mode=off"]),
    "li_rwa_pulsed": ("li", ["drive.mode=rwa_pulsed"]),
    "li_continuous": ("li", [T30, "drive.mode=continuous"]),
    "li_rwa_continuous": ("li", [T30, "drive.mode=rwa_continuous"]),
    "li_ramp_reset_snapshots": ("li", [
        T30, *RAMP, "drive.phase_reset=true", SNAPSHOTS]),
    "li_off_snapshots": ("li", [T30, "drive.mode=off", SNAPSHOTS]),
    "li_rwa_snapshots": ("li", [T30, "drive.mode=rwa_pulsed", SNAPSHOTS]),
    "li_ramp_clipped": ("li", ["propagation.T_total=20 fs", *RAMP]),
    "li_square_ramp": ("li", [T30, "drive.ramp=0.5 fs"]),
    "li_rwa_ramp": ("li", [T30, *RAMP, "drive.mode=rwa_pulsed"]),
    "li_rwa_continuous_ramp": ("li", [T30, *RAMP, "drive.mode=rwa_continuous"]),
    "li_plus": ("li_plus", []),
    # the Krylov run with the most samples per Lanczos space
    "li_plus_rwa": ("li_plus", ["drive.mode=rwa_pulsed"]),
    "fig4": ("fig4", []),
    "fig3_circles": ("fig3_circles", ["propagation.T_total=20 fs"]),
    "fig3_squares": ("fig3_squares", ["propagation.T_total=20 fs"]),
    "fig3_circles_rwa": ("fig3_circles", [
        "drive.mode=rwa_pulsed", "propagation.T_total=20 fs"]),
    # 1 fs samples, longer than a 16-vector space reaches: dyadic pieces
    # (the default 32-vector space reaches them)
    "fig3_circles_rwa_k16": ("fig3_circles", [
        "drive.mode=rwa_pulsed", "propagation.T_total=20 fs",
        "propagation.krylov_dim=16"]),
    "li_N41": ("li", [N41]),
}
VALIDATIONS = {"validate_li": [], "validate_li_N41": [N41]}
SWEEPS = {  # case -> (axis, values), each an li sweep at T_total = 30 fs
    "sweep_Omega2": ("Omega2", "0,0.09,-1"),
    "sweep_Omega2_ok": ("Omega2", "0,0.09,1"),
    "sweep_intensity": ("intensity", "0,5.1,10"),
    "sweep_t_m": ("t_m", "0.16,0.32"),
    "sweep_t_m_negative": ("t_m", "0.2,-0.1"),
    "sweep_dt_delay": ("dt_delay", "0,0.5"),
    "sweep_omega": ("omega", "2.4,2.5"),
}

CONCURRENCE = {  # case -> write_concurrence keywords (none: default floor)
    "fig4_N301_concurrence": {},
    "fig4_N301_concurrence_floor0": {"floor": 0.0},
}


def synthetic_concurrence():
    """200 modes with magnitudes log-uniform over [1e-60, 1] and every
    tenth mode exactly zero: C from about 1e-120 to 1, and zeros."""
    rng = np.random.default_rng(29)
    b = 10.0 ** rng.uniform(-60.0, 0.0, size=200)
    b[::10] = 0.0
    state = StateVector(data=np.concatenate(([0.0, 0.0], b)).astype(complex),
                        n_s=100)
    return concurrence_matrix(state, np.linspace(1.5, 2.5, 200))


def cases(out: Path):
    for name, (preset, overrides) in RUNS.items():
        yield name, ["run", "--preset", preset, "--out", str(out / name),
                     *(f"--override={o}" for o in overrides)]
    for name, overrides in VALIDATIONS.items():
        yield name, ["validate", "--preset", "li",
                     *(f"--override={o}" for o in overrides)]
    for name, (axis, values) in SWEEPS.items():
        yield name, ["sweep", "--preset", "li", "--out", str(out / name),
                     "--axis", axis, f"--values={values}", f"--override={T30}"]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: emit_cases.py OUT")
    root = Path(sys.argv[1]).resolve()
    root.mkdir(parents=True, exist_ok=True)
    for name, argv in cases(root):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = main(argv)
        log = f"exit {code}\n--- stdout\n{stdout.getvalue()}--- stderr\n"
        (root / f"{name}.log").write_text(
            (log + stderr.getvalue()).replace(str(root), "OUT"))
        print(f"{name}: exit {code}")
    trace = execute(preset_config("fig4", ["model.N=301"])).trace
    cmat = concurrence_matrix(
        trace.final_state, np.concatenate((trace.energies_s, trace.energies_p)))
    for name, keywords in CONCURRENCE.items():
        write_concurrence(cmat, root / name, **keywords)
        print(f"{name}: written")
    name = "synthetic_concurrence_floor0"
    write_concurrence(synthetic_concurrence(), root / name, floor=0.0)
    print(f"{name}: written")
