"""Write the outputs of a fixed list of runs and sweeps, for diffing.

    PYTHONPATH=src python3 tools/emit_cases.py OUT

Each case goes through ``zenoauger.cli.main`` into ``OUT/<case>/`` and its
exit code is printed.  Running this once per checkout and comparing the
two directories with ``diff -r`` shows which output files a change moves.
The package is whichever ``zenoauger`` is first on ``PYTHONPATH``.
"""
import contextlib
import io
import sys
from pathlib import Path

from zenoauger.cli import main

RAMP = ["drive.envelope=cosine_ramp", "drive.ramp=0.5 fs"]
T30 = "propagation.T_total=30 fs"
RUNS = {
    "li": ("li", []),
    "li_off": ("li", ["drive.mode=off"]),
    "li_rwa_pulsed": ("li", ["drive.mode=rwa_pulsed"]),
    "li_continuous": ("li", [T30, "drive.mode=continuous"]),
    "li_rwa_continuous": ("li", [T30, "drive.mode=rwa_continuous"]),
    "li_ramp_reset_snapshots": ("li", [
        T30, *RAMP, "drive.phase_reset=true",
        "propagation.spectrum_snapshot_times=0 fs, 10 fs, 15 fs"]),
    "li_ramp_clipped": ("li", ["propagation.T_total=20 fs", *RAMP]),
    "li_square_ramp": ("li", [T30, "drive.ramp=0.5 fs"]),
    "li_rwa_ramp": ("li", [T30, *RAMP, "drive.mode=rwa_pulsed"]),
    "li_rwa_continuous_ramp": ("li", [T30, *RAMP, "drive.mode=rwa_continuous"]),
    "li_plus": ("li_plus", []),
    "fig4": ("fig4", []),
    "fig3_circles": ("fig3_circles", ["propagation.T_total=20 fs"]),
    "fig3_squares": ("fig3_squares", ["propagation.T_total=20 fs"]),
}
SWEEPS = {"Omega2": "0,0.09,-1", "intensity": "0,5.1,10", "t_m": "0.16,0.32",
          "dt_delay": "0,0.5", "omega": "2.4,2.5"}


def cases(out: Path):
    for name, (preset, overrides) in RUNS.items():
        yield name, ["run", "--preset", preset, "--out", str(out / name),
                     *(f"--override={o}" for o in overrides)]
    for axis, values in SWEEPS.items():
        name = f"sweep_{axis}"
        yield name, ["sweep", "--preset", "li", "--out", str(out / name),
                     "--axis", axis, f"--values={values}", f"--override={T30}"]


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: emit_cases.py OUT")
    for name, argv in cases(Path(sys.argv[1])):
        with contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        print(f"{name}: exit {code}")
