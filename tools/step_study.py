"""Step-size convergence of tau_eff for the drive-window step.

    PYTHONPATH=src python3 tools/step_study.py [--long]

In full-field and ramped windows (where the coupling varies) a run takes
S6 steps of ``propagation.dt_max``, or of the built-in bound when it is
not given: the shortest of carrier/10, ramp/2 and t_pi/12.5.  The first
table holds runs whose step is set by the carrier bound.  For each it
prints tau_eff at the built-in step bound ("default"), then with
``propagation.dt_max`` set to 1/40, 1/20, 1/10 and 1/6 of the carrier
period.  The second table holds strong-drive runs (Omega > 0.4 omega),
whose step is set by the pulse bound, with ``dt_max`` at 1/50, 1/25,
1/12.5 and 1/8 of the pi-pulse time t_pi = pi/Omega.  The third holds
runs with 0.1 fs cosine ramps, shorter than carrier/10 steps in full
field, with ``dt_max`` at 1/8, 1/4, 1/2 and 1/1 of the ramp time.
"order" is log2 of the ratio of successive differences over the first
three fractions; "limit" extrapolates the first two values at that
order, and "default - limit" is the step error the built-in bound leaves.
Where two of those values agree, the sample stride, not dt_max, sets the
step; the order then reads nan and the limit is the finest value.
The last column is the worst norm error over the run's fractions.
``--long`` adds the 450 fs fig3_circles point, which takes about ten
seconds on one core.  The package is whichever ``zenoauger`` is first on
``PYTHONPATH``, so the same study runs against any checkout.
"""
import math
import sys

from zenoauger import HARTREE_EV, au_to_fs
from zenoauger.config import apply_axis_value, execute, expand, preset_config

T30 = "propagation.T_total=30 fs"
RUNS = {  # name -> (preset, overrides, squared Rabi energy in eV^2 or None)
    "li": ("li", [], None),
    "li_plus": ("li_plus", [], None),
    "fig4 N=601": ("fig4", ["model.N=601"], None),
    "li continuous 30 fs": ("li", [T30, "drive.mode=continuous"], None),
    "li ramp 0.5 fs 30 fs": ("li", [T30, "drive.envelope=cosine_ramp",
                                    "drive.ramp=0.5 fs"], None),
    "fig3_circles 3 eV^2 45 fs": ("fig3_circles",
                                  ["propagation.T_total=45 fs"], 3.0),
}
LONG = {"fig3_circles 3 eV^2 450 fs": ("fig3_circles", [], 3.0)}
STRONG_RUNS = {
    "li Omega=1.5 eV 30 fs": ("li", [T30, "drive.Omega=1.5 eV"], None),
    "li Omega=2.5 eV 30 fs": ("li", [T30, "drive.Omega=2.5 eV"], None),
    "fig4 N=601 Omega=6 eV": ("fig4", ["model.N=601", "drive.Omega=6 eV"],
                              None),
}
RAMP = ["drive.envelope=cosine_ramp", "drive.ramp=0.1 fs"]
RAMP_RUNS = {
    "li rwa ramp 0.1 fs 30 fs": ("li", [T30, "drive.mode=rwa_pulsed", *RAMP],
                                 None),
    "li ramp 0.1 fs 30 fs": ("li", [T30, *RAMP], None),
}
CARRIER_FRACTIONS = (40, 20, 10, 6)
PULSE_FRACTIONS = (50, 25, 12.5, 8)
RAMP_FRACTIONS = (8, 4, 2, 1)


def config(preset, overrides, omega2_ev2, extra=()):
    cfg = preset_config(preset, [*overrides, *extra])
    if omega2_ev2 is not None:
        cfg = apply_axis_value(cfg, "Omega2", omega2_ev2 / HARTREE_EV**2)
    return cfg


def run(cfg):
    result = execute(cfg)
    return au_to_fs(result.fit.tau_eff), result.trace.norm_error()


def carrier_period(cfg):
    return 2.0 * math.pi / abs(cfg.omega)


def pi_time(cfg):
    return math.pi / cfg.Omega


def ramp_time(cfg):
    return cfg.ramp


def study(preset, overrides, omega2_ev2, period, fractions):
    """tau_eff at the default bound and at each fraction of the period."""
    default, worst = run(config(preset, overrides, omega2_ev2))
    span = period(expand(config(preset, overrides, omega2_ev2)))
    taus = []
    for fraction in fractions:
        tau, norm = run(config(preset, overrides, omega2_ev2, [
            f"propagation.dt_max={span / fraction:.17g} au"]))
        taus.append(tau)
        worst = max(worst, norm)
    return default, taus, worst


def table(title, runs, period, fractions):
    head = ["default", *(f"1/{f:g}" for f in fractions), "order", "limit",
            "default - limit", "norm error"]
    print(f"{title:<28}" + "".join(f"{h:>16}" for h in head))
    for name, spec in runs.items():
        default, taus, worst = study(*spec, period, fractions)
        fine, mid, coarse = taus[:3]
        try:
            order = math.log2(abs(coarse - mid) / abs(mid - fine))
            limit = fine + (fine - mid) / (2.0**order - 1.0)
        except (ValueError, ZeroDivisionError):  # the sample grid sets the step
            order, limit = math.nan, fine
        row = [f"{v:.5f}" for v in (default, *taus)]
        row += [f"{order:.1f}", f"{limit:.5f}", f"{default - limit:.1e}",
                f"{worst:.1e}"]
        print(f"{name:<28}" + "".join(f"{c:>16}" for c in row), flush=True)


def main(argv):
    runs = {**RUNS, **(LONG if "--long" in argv else {})}
    table("carrier (tau_eff in fs)", runs, carrier_period, CARRIER_FRACTIONS)
    print()
    table("t_pi (tau_eff in fs)", STRONG_RUNS, pi_time, PULSE_FRACTIONS)
    print()
    table("ramp (tau_eff in fs)", RAMP_RUNS, ramp_time, RAMP_FRACTIONS)


if __name__ == "__main__":
    main(sys.argv[1:])
