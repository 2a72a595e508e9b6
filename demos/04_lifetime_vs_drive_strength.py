#!/usr/bin/env python3
"""Effective lifetime against squared Rabi energy (drive intensity).

A slow model system (100 fs bare lifetime, stable partner level) driven
at a 10 eV carrier: the harder the drive, the longer the effective
lifetime.  Uses a coarsened grid and span so the scan stays quick; the
fig3_circles preset carries the converged settings.
"""
import zenoauger as za

cfg = za.preset_config("fig3_circles", overrides=[
    "model.N=801",
    "propagation.T_total=300 fs",
    "propagation.sample_stride=1 fs",
])

values_ev2 = [0.0, 1.0, 3.0, 7.0, 10.0]
fits = [za.execute(point).fit
        for point in za.sweep_points(cfg, "Omega2", values_ev2)]

print(f"{'(Rabi energy)^2 (eV^2)':>23} {'tau_eff (fs)':>13} {'r^2':>9}")
for value, fit in zip(values_ev2, fits):
    print(f"{value:>23.1f} {za.au_to_fs(fit.tau_eff):>13.1f} "
          f"{fit.r_squared:>9.5f}")
print("(the zero-field row is the unperturbed lifetime)")
