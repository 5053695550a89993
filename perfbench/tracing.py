"""Span tracing of the rabi2q layers, installed from outside the package.

Each layer's public functions are wrapped at the attribute the calling
module holds (``spectra.eigh``, ``dynamics.propagate_spectral``, ...), so
the package itself is not edited.  A wrapped call records a span (name,
start, end, parent); spans stay in memory and are written out when the run
ends.  The basis bookkeeping functions run millions of times per dynamics
run, so they are only counted, not spanned.

The sweep evaluates points in a thread pool, so every span keeps its own
thread's parent stack, span times of pool work add up across threads, and
counters are updated under a lock.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time

MB = float(1 << 20)

# span name -> attributes that hold the function, as (module, attribute);
# spans without a metric of their own (spectra.sweep, cli.main, ...) give
# the written trace its parent structure
SPANS = {
    "hamiltonian.build": [
        ("spectra", "build_parity_matrix"), ("spectra", "build_full"),
        ("spectra", "build_rwa_full"),
        ("dynamics", "build_parity_matrix"), ("dynamics", "build_rwa_full"),
        ("dynamics", "build_rwa_excitation_block"),
        ("eigenstates", "build_parity_matrix"), ("cli", "build_parity_matrix"),
    ],
    "numerics.eigh": [("spectra", "eigh"), ("dynamics", "eigh"),
                      ("eigenstates", "eigh"), ("cli", "eigh")],
    "numerics.propagate": [("dynamics", "propagate_spectral")],
    "spectra.sweep": [("spectra", "sweep_spectrum")],
    "spectra.parity_eigensystem": [("spectra",
                                    "converged_parity_eigensystem")],
    "spectra.guard": [("spectra", "converged_mask")],
    "spectra.crossings": [("spectra", "detect_crossings")],
    "spectra.perturb": [("spectra", "dsc_perturbative_spectrum")],
    "spectra.rwa_compare": [("spectra", "rwa_relative_error")],
    "dynamics.initial_state": [("dynamics", "decompose_initial_state")],
    "dynamics.evolve": [("dynamics", "evolve_parity"),
                        ("dynamics", "evolve_rwa_closed_form")],
    "dynamics.observable": [
        ("dynamics", "mean_photon_number"),
        ("dynamics", "population_inversion"),
        ("dynamics", "reduced_density_matrix"),
        ("dynamics", "von_neumann_entropy"), ("dynamics", "concurrence"),
    ],
    "eigenstates.pipeline": [("eigenstates", "eigenstate_recurrence")],
    "eigenstates.refine": [("eigenstates", "refine_eigenpair")],
    "eigenstates.recurrence": [("eigenstates", "recurrence_eigenstate_la")],
    "eigenstates.residual": [("eigenstates", "residual")],
    "eigenstates.bargmann": [("eigenstates",
                              "bargmann_reconstruction_residual")],
    "cli.main": [("cli", "main")],
    "cli.csv_write": [("cli", "_write_csv")],
    "cli.svg": [("cli", "render")],
}

# counter name -> attributes whose calls are counted without a span
COUNTS = {
    "model.basis_calls": [
        ("model", "chain_state"), ("model", "chain_index_of"),
        ("model", "full_basis_index"), ("model", "full_basis_state"),
        ("hamiltonian", "chain_state"), ("hamiltonian", "full_basis_index"),
        ("dynamics", "chain_state"), ("dynamics", "chain_index_of"),
        ("dynamics", "full_basis_index"), ("dynamics", "full_basis_state"),
        ("eigenstates", "chain_state"), ("eigenstates", "chain_index_of"),
    ],
    "numerics.displacement_calls": [("spectra", "displacement_element")],
    "dynamics.state_from_full_calls": [("dynamics", "state_from_full")],
}


def _vector_bytes(vectors) -> tuple[int, int]:
    """(bytes the array needs, bytes of the array that owns its memory)."""
    root = vectors
    while getattr(root, "base", None) is not None:
        root = root.base
    return vectors.nbytes, root.nbytes


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent id)
        self.counts = {}
        self.missing = []        # attributes absent from this version
        self._tickers = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._restore = []

    def _add(self, name, amount=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _span_wrapper(self, name, fn):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append((span_id, name, start, end, parent))
            self._observe(name, args, result)
            return result
        return wrapper

    def _count_wrapper(self, name, fn):
        # count.__next__ runs in C without releasing the GIL, so pool
        # threads can share one counter without a lock
        tick = self._tickers.setdefault(name, itertools.count()).__next__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tick()
            return fn(*args, **kwargs)
        return wrapper

    def _observe(self, name, args, result):
        """Counts that need the arguments or the result of a call."""
        if name == "hamiltonian.build":
            matrix = getattr(result, "matrix", result)   # RWA sector blocks
            with self._lock:
                self.counts["hamiltonian.max_matrix_bytes"] = max(
                    self.counts.get("hamiltonian.max_matrix_bytes", 0),
                    matrix.nbytes)
        elif name == "numerics.eigh":
            self._add("numerics.eigh_dim3", int(args[0].shape[0]) ** 3)
        elif name == "spectra.parity_eigensystem":
            values, vectors = result
            kept, owned = _vector_bytes(vectors)
            self._add("spectra.levels_computed", args[2].chain_dim)
            self._add("spectra.levels_kept", len(values))
            self._add("spectra.kept_vector_bytes", kept)
            self._add("spectra.retained_vector_bytes", owned)
        elif name == "dynamics.evolve":
            self._add("dynamics.time_steps", len(result.times))
        elif name == "cli.csv_write" and args[0] is not None:
            self._add("cli.csv_bytes", os.path.getsize(args[0]))

    def install(self, modules: dict) -> None:
        """Wrap every listed attribute of the given package modules."""
        for table, make in ((SPANS, self._span_wrapper),
                            (COUNTS, self._count_wrapper)):
            for name, targets in table.items():
                for mod_name, attr in targets:
                    mod = modules[mod_name]
                    fn = getattr(mod, attr, None)
                    if fn is None:
                        self.missing.append(f"{mod_name}.{attr}")
                        continue
                    self._restore.append((mod, attr, fn))
                    setattr(mod, attr, make(name, fn))

    def uninstall(self) -> None:
        """Restore the original functions and fold in the call counts."""
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()
        for name, counter in self._tickers.items():
            self.counts[name] = next(counter)
        self._tickers.clear()


def span_table(spans):
    """Total and self seconds and call count per span name.

    Self time is a span's duration minus that of its direct children.
    """
    child_time = {}
    for _, _, start, end, parent in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    table = {}
    for span_id, name, start, end, _ in spans:
        total, own, calls = table.get(name, (0.0, 0.0, 0))
        dur = end - start
        table[name] = (total + dur, own + dur - child_time.get(span_id, 0.0),
                       calls + 1)
    return table


def layer_metrics(spans, counts) -> dict:
    """The per-layer metrics of one traced round, as {name: (value, unit)}."""
    table = span_table(spans)

    def total(name):
        return table.get(name, (0.0, 0.0, 0))[0]

    def calls(name):
        return table.get(name, (0.0, 0.0, 0))[2]

    computed = counts.get("spectra.levels_computed", 0)
    kept = counts.get("spectra.levels_kept", 0)
    return {
        "hamiltonian.build_s": (total("hamiltonian.build"), "s"),
        "hamiltonian.build_calls": (calls("hamiltonian.build"), "count"),
        "hamiltonian.matrix_mb": (
            counts.get("hamiltonian.max_matrix_bytes", 0) / MB, "MB"),
        "model.basis_calls": (counts.get("model.basis_calls", 0), "count"),
        "numerics.eigh_s": (total("numerics.eigh"), "s"),
        "numerics.eigh_calls": (calls("numerics.eigh"), "count"),
        "numerics.eigh_dim3": (counts.get("numerics.eigh_dim3", 0), "count"),
        "numerics.propagate_s": (total("numerics.propagate"), "s"),
        "numerics.displacement_calls": (
            counts.get("numerics.displacement_calls", 0), "count"),
        "spectra.levels_computed": (computed, "count"),
        "spectra.levels_kept": (kept, "count"),
        "spectra.kept_ratio": (kept / computed if computed else 0.0,
                               "ratio"),
        "spectra.retained_vector_mb": (
            counts.get("spectra.retained_vector_bytes", 0) / MB, "MB"),
        "spectra.kept_vector_mb": (
            counts.get("spectra.kept_vector_bytes", 0) / MB, "MB"),
        "spectra.guard_s": (total("spectra.guard"), "s"),
        "spectra.crossings_s": (total("spectra.crossings"), "s"),
        "spectra.perturb_s": (total("spectra.perturb"), "s"),
        "dynamics.step_loop_s": (table.get("dynamics.evolve",
                                           (0.0, 0.0, 0))[1], "s"),
        "dynamics.time_steps": (counts.get("dynamics.time_steps", 0),
                                "count"),
        "dynamics.observables_s": (total("dynamics.observable"), "s"),
        "dynamics.observable_calls": (calls("dynamics.observable"), "count"),
        "dynamics.state_from_full_calls": (
            counts.get("dynamics.state_from_full_calls", 0), "count"),
        "eigenstates.refine_s": (total("eigenstates.refine"), "s"),
        "eigenstates.recurrence_s": (total("eigenstates.recurrence"), "s"),
        "eigenstates.residual_s": (total("eigenstates.residual"), "s"),
        "eigenstates.bargmann_s": (total("eigenstates.bargmann"), "s"),
        "cli.csv_write_s": (total("cli.csv_write"), "s"),
        "cli.csv_bytes": (counts.get("cli.csv_bytes", 0), "bytes"),
        "cli.svg_s": (total("cli.svg"), "s"),
    }
