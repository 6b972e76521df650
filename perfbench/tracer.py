"""Span tracer that wraps specrg's public functions from outside the package.

A span is [name, parent index, start, end] with perf_counter times; spans are
kept in memory and written out once, when the run ends.  A function is
wrapped at every module attribute its callers look it up through, because
``from .x import f`` binds a copy: wrapping ``rgflow.rg_step`` alone would
miss the calls that ``calibration`` makes through its own ``rg_step`` name.
Sites that a later version of the package no longer has are skipped, so the
layer simply reports zero calls.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# Span name -> "module.attribute" sites it is looked up through.
LAYER_SITES = {
    "cli.main": ["cli.main"],
    "calibration.calibrate_constants": ["calibration.calibrate_constants"],
    "rgflow.flow": ["rgflow.flow"],
    "rgflow.rg_step": ["rgflow.rg_step", "calibration.rg_step"],
    "rgflow.normal_order_product": ["rgflow.normal_order_product"],
    "rgflow.scale_coupling": ["rgflow.scale_coupling"],
    "rgflow.measured_q": ["rgflow.measured_q"],
    "normalform.interaction_norm": ["rgflow.interaction_norm",
                                    "calibration.interaction_norm",
                                    "normalform.interaction_norm"],
    "normalform.from_profile": ["models.from_profile", "normalform.from_profile"],
    "normalform.assemble_term": ["normalform.assemble_term"],
    "normalform.assemble_operator": ["normalform.assemble_operator"],
    "models.ground_sector_hamiltonian": ["models.ground_sector_hamiltonian",
                                         "calibration.ground_sector_hamiltonian"],
    "models.build_model": ["models.build_model", "oracle.build_model"],
    "models.complex_dilate": ["models.complex_dilate", "oracle.complex_dilate"],
    "models.mass_renormalization": ["models.mass_renormalization"],
    "fock.build_fock_basis": ["fock.build_fock_basis"],
    "fock.ladder_matrix": ["fock.ladder_matrix", "models.ladder_matrix"],
    "oracle.exact_spectrum": ["oracle.exact_spectrum"],
    "oracle.resonance_eigenvalue": ["oracle.resonance_eigenvalue"],
    "feshbach.feshbach_map": ["feshbach.feshbach_map"],
    "feshbach.identity_defect": ["feshbach.identity_defect"],
    "feshbach.isospectral_check": ["feshbach.isospectral_check"],
}

# Entry points: their self time is argument parsing, I/O and bookkeeping, not
# a computing layer, so trace.coverage leaves it out.
ENTRY_SPANS = ("solve", "cli.main", "calibration.calibrate_constants")


def _neumann_label(A_terms, *_args, **_kwargs):
    """normal_order_product's first factor holds W (orders <= 2) for the s=1
    Neumann term and W G W (orders up to 4) for the s=2 term."""
    order = max(m + n for (m, n) in A_terms)
    return "rgflow.normal_order_product.s1" if order <= 2 else "rgflow.normal_order_product.s2"


class Tracer:
    """In-memory span recorder; install() wraps, uninstall() restores."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._saved = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter(), None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name):
        label = _neumann_label if name == "rgflow.normal_order_product" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(label(*args, **kwargs) if label else name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)

        return wrapper

    def install(self, modules: dict) -> None:
        """Wrap every site in LAYER_SITES; modules maps short names to modules."""
        for name, sites in LAYER_SITES.items():
            for site in sites:
                mod_name, attr = site.split(".")
                mod = modules[mod_name]
                fn = getattr(mod, attr, None)
                if fn is None:
                    continue
                self._saved.append((mod, attr, fn))
                setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, parent, t0, t1 in self.spans:
                fh.write(json.dumps({"name": name, "parent": parent,
                                     "start": t0, "end": t1}) + "\n")


def summarize(spans) -> dict:
    """Per-name calls, total and self seconds of the recorded spans.

    Self time is a span's duration minus the durations of its direct
    children; spans nest properly because the benchmark is single-threaded.
    Also counts builder calls made inside rgflow.flow (map evaluations).
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    child = defaultdict(float)
    for name, parent, t0, t1 in spans:
        calls[name] += 1
        total[name] += t1 - t0
        if parent >= 0:
            child[parent] += t1 - t0
    self_s = defaultdict(float)
    for i, (name, _, t0, t1) in enumerate(spans):
        self_s[name] += (t1 - t0) - child[i]

    map_evals = 0
    for name, parent, _, _ in spans:
        if name != "models.ground_sector_hamiltonian":
            continue
        while parent >= 0 and spans[parent][0] != "rgflow.flow":
            parent = spans[parent][1]
        map_evals += parent >= 0
    return {"calls": dict(calls), "s": dict(total), "self_s": dict(self_s),
            "map_evals": map_evals}
