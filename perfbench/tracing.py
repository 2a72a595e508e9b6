"""Spans and counters around calls into zenoauger, recorded from outside.

Nothing inside the package is instrumented.  A :class:`Tracer` swaps
public functions of the package for timing wrappers in the namespace
they are called from (``config.execute`` calls ``build_grid`` through
``zenoauger.config.build_grid``, so that is the name wrapped) and puts
the originals back when it closes.

Two kinds of boundary are recorded:

* spans, for calls made at most once per output sample: name, start,
  end, parent span and the operation they belong to, kept in memory and
  written out when the benchmark ends;
* hot calls, made once per Lanczos exponential or per matvec (tens of
  thousands per run): counted and timed in aggregate, with their time
  charged to the enclosing span as child time, so self times stay exact
  without storing a span per call.

A layer's self time is the time of its spans minus the part their child
spans and hot calls cover, plus the time of its own hot calls.
"""
from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict

import numpy as np

import zenoauger.cli
import zenoauger.config
import zenoauger.entanglement
import zenoauger.model
import zenoauger.propagator
from zenoauger.config import expand, preset_config

LAYERS = ("config", "model", "drive", "propagator", "observables",
          "entanglement", "cli")

# (module, attribute, span name); the span name's prefix is its layer
SPANS = (
    (zenoauger.cli, "main", "cli.main"),
    (zenoauger.cli, "emit", "cli.emit"),
    (zenoauger.cli, "execute", "config.execute"),
    (zenoauger.cli, "apply_axis_value", "config.apply_axis_value"),
    (zenoauger.config, "execute", "config.execute"),
    (zenoauger.config, "expand", "config.expand"),
    (zenoauger.config, "build_grid", "model.build_grid"),
    (zenoauger.config, "validate_resolution", "model.validate_resolution"),
    (zenoauger.config, "assemble", "model.assemble"),
    (zenoauger.config, "rotating_frame", "model.rotating_frame"),
    (zenoauger.config, "build_schedule", "drive.build_schedule"),
    (zenoauger.config, "initial_state", "propagator.initial_state"),
    (zenoauger.config, "propagate", "propagator.propagate"),
    (zenoauger.config, "fit_lifetime", "observables.fit_lifetime"),
    (zenoauger.config, "lineshape", "observables.lineshape"),
    (zenoauger.config, "find_peaks", "observables.find_peaks"),
    (zenoauger.config, "stark_splittings", "observables.stark_splittings"),
    (zenoauger.propagator, "evolve_interval", "propagator.evolve_interval"),
    (zenoauger.propagator, "orbital_populations",
     "observables.orbital_populations"),
    (zenoauger.entanglement, "concurrence_matrix",
     "entanglement.concurrence_matrix"),
    (zenoauger.entanglement, "write_concurrence",
     "entanglement.write_concurrence"),
)

# One call per Lanczos exponential attempt (halvings included) and one per
# sample interval.
HOT = (
    (zenoauger.propagator, "coupling_at", "drive.coupling_at"),
    (zenoauger.propagator, "envelope_at", "drive.envelope_at"),
)
MATVEC = "model.matvec"  # Hamiltonian.static_csr.dot, once per Krylov vector

MODEL_BUILD = ("model.build_grid", "model.validate_resolution",
               "model.assemble", "model.rotating_frame")
OBSERVABLES_POST = ("observables.fit_lifetime", "observables.lineshape",
                    "observables.find_peaks", "observables.stark_splittings")

# Presets whose Hamiltonians set the micro-timing dimensions 2 + 2 N.
MICRO_PRESETS = ("li_plus", "li", "fig3_circles", "fig4")

# Unit of every per-layer metric; micro-timings carry a ".d<dimension>"
# suffix on these names.
UNITS = {
    "config.execute_self_s": "s",
    "model.build_s": "s",
    "model.matvecs": "count",
    "model.matvec_s": "s",
    "model.apply_us": "us",
    "model.csr_dot_us": "us",
    "model.matvec_bytes_computed": "B",
    "drive.coupling_calls": "count",
    "drive.coupling_s": "s",
    "propagator.propagate_s": "s",
    "propagator.us_per_expv": "us",
    "propagator.krylov_dim_mean": "count",
    "propagator.intervals": "count",
    "observables.record_s": "s",
    "observables.samples": "count",
    "observables.post_s": "s",
    "entanglement.matrix_s": "s",
    "entanglement.write_s": "s",
    "entanglement.triplets": "count",
    "entanglement.bytes": "B",
    "cli.emit_s": "s",
    "cli.emit_bytes": "B",
    "trace.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
}


def unit(name: str) -> str:
    base, _, suffix = name.rpartition(".d")
    return UNITS[base] if suffix.isdigit() else UNITS[name]


class _CountingMatrix:
    """Stands in for the cached sparse matrix; times each ``dot``."""

    def __init__(self, matrix, tracer: "Tracer"):
        self._matrix = matrix
        self.dot = tracer.hot(matrix.dot, MATVEC)

    def __getattr__(self, name):
        return getattr(self._matrix, name)


class Tracer:
    """In-memory spans and hot-call counters for one traced pass."""

    def __init__(self):
        # [name, start, end, parent index, hot child time, operation]
        self.spans: list[list] = []
        self.hot_calls: dict[str, int] = defaultdict(int)
        self.hot_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.operation = ""
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def span(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0,
                      self.operation]
            stack.append(len(spans))
            spans.append(record)
            record[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
        return traced

    def hot(self, fn, name: str):
        spans, stack = self.spans, self._stack
        calls, total = self.hot_calls, self.hot_time

        def traced(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                calls[name] += 1
                total[name] += elapsed
                if stack:
                    spans[stack[-1]][4] += elapsed
        return traced

    def __enter__(self):
        for module, attr, name in SPANS:
            self._swap(module, attr, self.span(getattr(module, attr), name))
        for module, attr, name in HOT:
            self._swap(module, attr, self.hot(getattr(module, attr), name))
        cls = zenoauger.model.Hamiltonian
        build = cls.__dict__["static_csr"].func
        counted = functools.cached_property(
            lambda ham: _CountingMatrix(build(ham), self))
        counted.__set_name__(cls, "static_csr")
        self._swap(cls, "static_csr", counted)
        return self

    def __exit__(self, *exc):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)
        return False

    def _swap(self, owner, attr, replacement):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def self_times(self) -> list[float]:
        """Per span: duration minus child spans and hot calls inside it."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i] - hot
                for i, (_, start, end, _, hot, _) in enumerate(self.spans)]

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass (counters as recorded)."""
        duration = defaultdict(float)
        count = defaultdict(int)
        span_self = defaultdict(float)
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, *_), own in zip(self.spans, self.self_times()):
            duration[name] += end - start
            count[name] += 1
            span_self[name] += own
            layer_self[name.split(".")[0]] += own
        for name, seconds in self.hot_time.items():
            layer_self[name.split(".")[0]] += seconds

        expv = self.hot_calls["drive.coupling_at"]
        matvecs = self.hot_calls[MATVEC]
        out = {
            "config.execute_self_s": span_self["config.execute"],
            "model.build_s": sum(duration[n] for n in MODEL_BUILD),
            "model.matvecs": matvecs,
            "model.matvec_s": self.hot_time[MATVEC],
            "drive.coupling_calls": expv,
            "drive.coupling_s": self.hot_time["drive.coupling_at"],
            "propagator.propagate_s": duration["propagator.propagate"],
            "propagator.us_per_expv":
                1e6 * duration["propagator.evolve_interval"] / expv
                if expv else 0.0,
            "propagator.krylov_dim_mean": matvecs / expv if expv else 0.0,
            "propagator.intervals": count["propagator.evolve_interval"],
            "observables.record_s": duration["observables.orbital_populations"],
            "observables.samples": count["observables.orbital_populations"],
            "observables.post_s": sum(duration[n] for n in OBSERVABLES_POST),
            "entanglement.matrix_s":
                duration["entanglement.concurrence_matrix"],
            "entanglement.write_s": duration["entanglement.write_concurrence"],
            "entanglement.triplets": int(self.counters["entanglement.triplets"]),
            "entanglement.bytes": int(self.counters["entanglement.bytes"]),
            "cli.emit_s": duration["cli.emit"],
            "cli.emit_bytes": int(self.counters["cli.emit_bytes"]),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = layer_self[layer]
        return out

    def span_records(self, origin: float) -> list[list]:
        """Spans as [name, start, end, parent, operation], times from origin."""
        return [[name, round(start - origin, 9), round(end - origin, 9),
                 parent, operation]
                for name, start, end, parent, _, operation in self.spans]


def _per_call_us(fn, reps: int, blocks: int) -> float:
    """Median over blocks of the mean call time; the first block warms up."""
    samples = []
    for _ in range(blocks + 1):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - start) / reps)
    return 1e6 * statistics.median(samples[1:])


def micro_timings(seed: int, reps: int = 200, blocks: int = 15) -> dict:
    """Matvec micro-timings at the preset dimensions, untraced.

    ``Hamiltonian.apply`` against ``static_csr.dot`` on one seeded state
    per dimension, plus the bytes one CSR product reads and writes,
    computed from the array sizes (cache misses not included).
    """
    rng = np.random.default_rng(seed)
    out = {}
    for preset in MICRO_PRESETS:
        cfg = expand(preset_config(preset))
        levels = zenoauger.model.LevelScheme(
            E1=cfg.E1, E2=cfg.E2, eps_c=cfg.eps_c, tau1=cfg.tau1,
            tau2=cfg.tau2)
        grids = [zenoauger.model.build_grid(region, eps, cfg.W, cfg.N,
                                            cfg.n_exponent, tau)
                 for region, eps, tau in (("S", levels.epsA1, cfg.tau1),
                                          ("P", levels.epsA2, cfg.tau2))]
        ham = zenoauger.model.assemble(levels, *grids)
        dim = ham.dimension
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        g = 0.01 + 0.0j
        mat = ham.static_csr
        out[f"model.apply_us.d{dim}"] = _per_call_us(
            lambda: ham.apply(psi, g), reps, blocks)
        out[f"model.csr_dot_us.d{dim}"] = _per_call_us(
            lambda: mat.dot(psi), reps, blocks)
        out[f"model.matvec_bytes_computed.d{dim}"] = int(
            mat.data.nbytes + mat.indices.nbytes + mat.indptr.nbytes
            + 2 * psi.nbytes)
    return out
