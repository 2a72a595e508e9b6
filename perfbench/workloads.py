"""The benchmark workloads and the checks on their outputs.

Every input a workload hands to the program is generated here from the
workload seed; the program sees only those inputs.  A workload is a list
of operations run back to back (a closed loop); each operation has a
``run`` step, which is timed, and a ``check`` step on its outputs, which
is not.  An operation that raises in either step counts as failed.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from zenoauger import cli, config, entanglement
from zenoauger.units import au_to_fs

REFERENCE = json.loads(
    (Path(__file__).resolve().parent / "reference.json").read_text())

TAU_RTOL = 2e-3        # step-halving li moves tau_eff by 3e-4
NORM_TOL = 1e-9
CONCURRENCE_TOL = 1e-10
# two_mode_concurrence zeroes eigenvalues of rho @ rho_tilde below 1e-13
# as numerical noise; the largest eigenvalue is C**2, so the eigenvalue
# route reads exactly 0 for pairs with C below sqrt(1e-13) ~ 3.2e-7.
WOOTTERS_EIGENVALUE_FLOOR = 1e-13

# fig4 at its own N = 1201 writes 2.88M triplets (169 MB, about 16 s and
# 890 MB peak RSS) per pass, so a run held one pass and the run-to-run
# spread of its wall time reached 19-24% of the median on a host whose
# speed drifts.  Half the grid keeps the preset's window and physics at a
# quarter of the pairs, so a run holds several passes.
FIG4_N = 601

PRESET_MIX = (
    ("li", "li", ()),
    ("li_off", "li", ("drive.mode=off",)),
    ("li_rwa", "li", ("drive.mode=rwa_pulsed",)),
    ("li_plus", "li_plus", ()),
)

CONCURRENCE_PAIRS = 32
EMITTED = ("trace.csv", "spectrum.csv", "summary.json", "config.expanded",
           "provenance.json")


class CheckFailed(AssertionError):
    """An operation returned output that does not match its reference."""


@dataclass
class Operation:
    label: str
    run: Callable[[], object]
    check: Callable[[object, dict], None]


def _require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def _check_tau(label: str, tau_fs: float):
    ref = REFERENCE["tau_eff_fs"][label]
    rel = abs(tau_fs - ref) / ref
    _require(rel <= TAU_RTOL,
             f"{label}: tau_eff {tau_fs!r} fs is {rel:.2e} from {ref!r} fs")


def _check_summary(label: str, directory: Path, stats: dict):
    for name in EMITTED:
        _require((directory / name).is_file(), f"{label}: no {name}")
    summary = json.loads((directory / "summary.json").read_text())
    _check_tau(label, float(summary["fit"]["tau_eff_fs"]))
    norm_error = float(summary["norm_error"])
    _require(norm_error < NORM_TOL, f"{label}: norm_error {norm_error!r}")
    stats["cli.emit_bytes"] += sum(
        (directory / name).stat().st_size for name in EMITTED)


def _count_lines(path: Path) -> int:
    lines = 0
    with open(path, "rb") as handle:
        while chunk := handle.read(1 << 24):
            lines += chunk.count(b"\n")
    return lines


class PresetMix:
    """Four lithium runs in seeded order, each executed then emitted."""

    name = "preset_mix"

    def __init__(self, seed: int, overrides=()):
        self.order = list(PRESET_MIX)
        random.Random(seed).shuffle(self.order)
        self.overrides = tuple(overrides)

    def describe(self) -> str:
        return "order " + ", ".join(label for label, _, _ in self.order)

    def configs(self):
        return [(preset, [*extra, *self.overrides])
                for _, preset, extra in self.order]

    def operations(self, tmp: Path) -> list[Operation]:
        ops = []
        for (label, _, _), (preset, overrides) in zip(self.order,
                                                      self.configs()):
            cfg = config.expand(config.preset_config(preset, overrides))
            directory = tmp / label

            def run(cfg=cfg, directory=directory):
                cli.emit(config.execute(cfg), directory)
                return directory

            def check(directory, stats, label=label):
                _check_summary(label, directory, stats)

            ops.append(Operation(label, run, check))
        return ops


class EntanglementSnapshot:
    """fig4 run, then its concurrence matrix and the triplet file.

    The two steps are separate operations so that each is timed between
    its own host speed probes; the second takes the first one's result.
    """

    name = "entanglement_snapshot"

    def __init__(self, seed: int, overrides=()):
        self.overrides = (f"model.N={FIG4_N}", *overrides)
        n_modes = 2 * FIG4_N
        rng = random.Random(seed)
        self.pairs = [tuple(rng.sample(range(n_modes), 2))
                      for _ in range(CONCURRENCE_PAIRS)]

    def describe(self) -> str:
        return (f"model.N = {FIG4_N}, {len(self.pairs)} seeded mode pairs, "
                f"first {self.pairs[0]}")

    def configs(self):
        return [("fig4", list(self.overrides))]

    def operations(self, tmp: Path) -> list[Operation]:
        cfg = config.expand(config.preset_config("fig4", self.overrides))
        directory = tmp / "concurrence"
        state = {}

        def run_fig4():
            state["result"] = config.execute(cfg)
            return state["result"]

        def check_fig4(result, stats):
            _check_tau("fig4", au_to_fs(result.fit.tau_eff))
            norm_error = result.trace.norm_error()
            _require(norm_error < NORM_TOL, f"fig4: norm_error {norm_error!r}")

        def run_concurrence():
            trace = state.pop("result").trace  # KeyError if fig4 failed
            energies = np.concatenate((trace.energies_s, trace.energies_p))
            cmat = entanglement.concurrence_matrix(trace.final_state, energies)
            entanglement.write_concurrence(cmat, directory)
            return trace.final_state, cmat

        def check_concurrence(output, stats):
            psi, cmat = output
            for k, kp in self.pairs:
                closed = float(cmat.C[k, kp])
                wootters = entanglement.two_mode_concurrence(psi, k, kp)
                if wootters == 0.0 and closed**2 < WOOTTERS_EIGENVALUE_FLOOR:
                    stats["concurrence_pairs_below_floor"] += 1
                    continue
                _require(abs(closed - wootters) <= CONCURRENCE_TOL,
                         f"modes {k}, {kp}: closed form {closed!r}, "
                         f"Wootters {wootters!r}")
            header = json.loads((directory / "concurrence.json").read_text())
            floor = float(header["floor"])
            _require(math.isclose(floor, entanglement.EMISSION_FLOOR),
                     f"floor {floor!r}")
            expected = int(np.count_nonzero(np.triu(cmat.C, k=1) >= floor))
            csv = directory / "concurrence.csv"
            written = _count_lines(csv) - 1
            _require(written == expected,
                     f"{written} triplets written, {expected} expected")
            stats["entanglement.triplets"] += written
            stats["entanglement.bytes"] += sum(
                p.stat().st_size for p in directory.iterdir())

        return [Operation("fig4", run_fig4, check_fig4),
                Operation("concurrence", run_concurrence, check_concurrence)]


WORKLOADS = {cls.name: cls for cls in (PresetMix, EntanglementSnapshot)}
