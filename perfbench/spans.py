"""Span recording for the benchmark's traced runs.

A span is one call of a wrapped function (or one phase of a workload run):
its name, start, end and the span that was open when it began.  Spans stay
in memory and are reduced to per-layer metrics when the run ends:

* a span's self time is its duration minus the durations of its child
  spans (calls are sequential, so children never overlap);
* a span belongs to the phase named by its top-level ancestor, and its
  self time is reported as ``<phase>.<module>.<function>_s`` next to a
  ``_calls`` count.

Functions are wrapped where their caller looks them up, which is not
always the module that defines them: ``latinpgd.latin`` imports
``local_stage`` by name, so `run_latin` only sees a wrapper installed
on ``latinpgd.latin.local_stage``.  `LAYERS` lists every wrapped lookup
site; `Tracer.installed` puts the wrappers in place and restores the
original attributes when the block exits, also on error.

Clocks use ``time.monotonic`` so that a phase may start at a timestamp
taken in the parent process (CLOCK_MONOTONIC is system-wide on Linux).
"""

import contextlib
import functools
import time

from latinpgd import assembly, latin, material, mesh, newmark, pgd


def _points(eps_v, *args, **kwargs):
    """Number of strain tensors in a Voigt field (..., 6)."""
    return eps_v.size // 6


# (owner, attribute, span name, optional counter of work items per call).
# The span name is the defining module and function, so one function
# wrapped at two lookup sites reports under one name, split by phase.
LAYERS = (
    (mesh, "generate_box_mesh", "mesh.generate_box_mesh", None),
    (assembly, "assemble_mass", "assembly.assemble_mass", None),
    (assembly, "assemble_stiffness", "assembly.assemble_stiffness", None),
    (assembly.SpatialSystem, "__init__", "assembly.SpatialSystem", None),
    (assembly.SpatialSystem, "solve_free", "assembly.solve_free", None),
    (latin, "elastic_solution", "latin.elastic_solution", None),
    (latin, "local_stage", "material.local_stage", None),
    (latin, "latin_error", "latin.latin_error", None),
    (latin, "enrich", "pgd.enrich", None),
    (latin, "cre_functional", "pgd.cre_functional", None),
    (pgd.PgdSolution, "add_mode", "pgd.add_mode", None),
    (pgd, "space_problem", "pgd.space_problem", None),
    (pgd, "stress_spatial", "pgd.stress_spatial", None),
    (pgd, "time_lambda", "pgd.time_lambda", None),
    (pgd, "time_mu", "pgd.time_mu", None),
    (pgd, "tdgm_march", "timegrid.tdgm_march", None),
    (pgd, "internal_force", "assembly.internal_force", None),
    (pgd, "strain_at_gauss", "assembly.strain_at_gauss", None),
    (material, "released_energy", "material.released_energy", _points),
    (material, "integrate_delay", "material.integrate_delay", None),
    (material, "total_stress", "material.total_stress", None),
    (material, "tension_peak_history", "material.tension_peak_history", None),
    (newmark, "released_energy", "material.released_energy", _points),
    (newmark, "integrate_delay", "material.integrate_delay", None),
    (newmark, "total_stress", "material.total_stress", None),
    (newmark, "strain_at_gauss", "assembly.strain_at_gauss", None),
    (newmark, "internal_force", "assembly.internal_force", None),
    (newmark, "resample_fields_to_gauss", "newmark.resample_fields_to_gauss", None),
    (newmark, "compare_error", "newmark.compare_error", None),
)


class Tracer:
    """In-memory span recorder with per-phase counters."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans = []          # [name, parent index or None, start, end]
        self.counts = {}         # (phase, key) -> number
        self._open = []
        self._wrapped = set()    # (span name, has a work counter)

    @contextlib.contextmanager
    def span(self, name, start=None):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, parent, self.clock() if start is None else start, None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][3] = self.clock()

    def count(self, key, n):
        """Add n to counter `key` of the phase that is open now."""
        slot = (self.spans[self._open[0]][0], key)
        self.counts[slot] = self.counts.get(slot, 0) + n

    def wrap(self, fn, name, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                self.count(name + "_points", counter(*args, **kwargs))
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every lookup site in `LAYERS`; restore them all on exit."""
        saved = []
        try:
            for owner, attr, name, counter in LAYERS:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name, counter))
                self._wrapped.add((name, counter is not None))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def phase_walls(self):
        """Duration of every top-level span, by name."""
        return {name: end - start for name, parent, start, end in self.spans
                if parent is None}

    def layer_metrics(self):
        """Self seconds and call counts per (phase, span), plus counters.

        Top-level spans give ``<phase>.wall_s`` and ``<phase>.self_s``, the
        time of the phase not covered by any wrapped call.  A wrapped layer
        that never ran in a phase reads 0 there.
        """
        child_time = [0.0] * len(self.spans)
        phase_of = [None] * len(self.spans)
        for i, (name, parent, start, end) in enumerate(self.spans):
            phase_of[i] = name if parent is None else phase_of[parent]
            if parent is not None:
                child_time[parent] += end - start
        out = {}
        for phase in self.phase_walls():
            for name, counted in self._wrapped:
                key = "%s.%s" % (phase, name)
                out[key + "_s"] = 0.0
                out[key + "_calls"] = 0
                if counted:
                    out[key + "_points"] = 0
        for i, (name, parent, start, end) in enumerate(self.spans):
            self_s = end - start - child_time[i]
            if parent is None:
                out[name + ".wall_s"] = end - start
                out[name + ".self_s"] = self_s
                continue
            key = "%s.%s" % (phase_of[i], name)
            out[key + "_s"] = out.get(key + "_s", 0.0) + self_s
            out[key + "_calls"] = out.get(key + "_calls", 0) + 1
        for (phase, key), n in self.counts.items():
            out["%s.%s" % (phase, key)] = n
        return out
