"""Spans around calls into compcorr's modules, recorded from outside the
package by rebinding names.

A span is (name, start, end, parent index); the layer is the part of the
name before the first dot. Spans stay in memory until the run ends.
"""

import sys
import time
from collections import Counter

import numpy as np

import compcorr
import compcorr.states

# (module, function) pairs to wrap. Every binding of the function object in
# any compcorr module is rewrapped, so calls through re-exports are seen.
# A name a later version no longer has is skipped and its counters read 0.
FUNCTIONS = (
    ("matcore", "partial_transpose"),
    ("states", "bell_diagonal"),
    ("states", "bloch_decompose"),
    ("states", "normal_form"),
    ("correlations", "joint_distribution"),
    ("correlations", "complementary_correlations"),
    ("correlations", "holevo_quantity"),
    ("correlations", "classical_correlation"),
    ("correlations", "discord_bd"),
    ("correlations", "total_mutual_information"),
    ("entanglement", "pt_spectrum"),
    ("entanglement", "negativity"),
    ("entanglement", "ppt_verdict"),
    ("entanglement", "rel_entropy_entanglement_bd"),
    ("edss", "edss_useful"),
    ("edss", "ancilla_state"),
    ("edss", "run_protocol"),
    ("oracle", "maximize_holevo"),
    ("oracle", "spectrum_crosscheck"),
    ("oracle", "mub_check"),
    ("oracle", "run_verification"),
    ("report", "report_for_state"),
    ("report", "report_for_bd"),
)

# Partial transposes on factor 2 of a three-qubit state, called inside an
# edss span, are the C|AB cut checks of the ancilla search.
C_CUT = "edss.c_cut_solve"


def _compcorr_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "compcorr" or name.startswith("compcorr.")]


class Tracer:
    """Context manager that records spans while active and restores every
    name it rebound on exit."""

    def __init__(self):
        self.spans = []
        self.tags = Counter()
        self._open = [(-1, "")]  # (span index, name) of each open span
        self._patched = []  # (owner, attribute, original)

    def span(self, name, fn, /, *args, **kwargs):
        """Run fn inside a span; used for the benchmark's own root spans."""
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append((idx, name))
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._open.pop()
            self.spans[idx] = (name, t0, t1, self._open[-1][0])

    def _wrap(self, fn, name, from_compcorr_only=False):
        span = self.span
        open_spans = self._open
        tags = self.tags
        counts_c_cut = name == "matcore.partial_transpose"

        def wrapper(*args, **kwargs):
            if from_compcorr_only and not sys._getframe(1).f_globals.get("__name__", "").startswith("compcorr"):
                return fn(*args, **kwargs)
            if counts_c_cut and open_spans[-1][1].startswith("edss."):
                factor = args[2] if len(args) > 2 else kwargs.get("factor")
                if factor == 2:
                    tags[C_CUT] += 1
            return span(name, fn, *args, **kwargs)

        return wrapper

    def _rebind(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def __enter__(self):
        try:
            self._patch_all()
        except BaseException:
            self.restore()
            raise
        return self

    def _patch_all(self):
        modules = _compcorr_modules()
        for mod_name, fn_name in FUNCTIONS:
            home = sys.modules.get(f"compcorr.{mod_name}")
            fn = getattr(home, fn_name, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, f"{mod_name}.{fn_name}")
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._rebind(m, attr, wrapper)
        dm = compcorr.states.DensityMatrix
        self._rebind(dm, "__post_init__", self._wrap(dm.__post_init__, "states.density_matrix"))
        self._rebind(
            np.linalg, "eigvalsh", self._wrap(np.linalg.eigvalsh, "matcore.eigvalsh", from_compcorr_only=True)
        )

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def counts(self) -> Counter:
        """Spans per name plus the tagged counts."""
        out = Counter(s[0] for s in self.spans)
        out.update(self.tags)
        return out

    def totals(self) -> tuple[Counter, Counter]:
        """Summed duration per span name and summed self time per layer."""
        child = [0.0] * len(self.spans)
        dur = Counter()
        self_time = Counter()
        for name, t0, t1, parent in self.spans:
            dur[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        for (name, t0, t1, _), c in zip(self.spans, child):
            self_time[name.split(".", 1)[0]] += (t1 - t0) - c
        return dur, self_time

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write("index,name,start,end,parent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                f.write(f"{i},{name},{t0:.9f},{t1:.9f},{parent}\n")
