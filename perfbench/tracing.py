"""Outside-in tracing of the public mfshift layers.

The tracer wraps named public functions from outside the package: every
``mfshift.*`` module namespace that binds the function gets the wrapper,
because several modules import their collaborators by name (``mfzeta``,
``pressure`` and ``birkhoff`` all call ``composition_arrays`` through their
own globals).  A hook whose target no longer exists raises, so a rename
cannot turn a layer into a silent zero.

Spans (name, start, end, parent, request) are kept in flat arrays in memory
and written once, when the worker ends.  Only the standard library is
imported here; numpy is used only when the spans are written.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array

# Layer boundaries: "<module>.<function>" relative to the mfshift package.
HOOKS = (
    "cli.parse_model",
    "symbolic.composition_arrays",
    "symbolic.word_blocks",
    "symbolic.tail_sum_matrix",
    "logsum.logsumexp",
    "pressure.bowen_root",
    "pressure.zeta_coefficients",
    "mfzeta.constrained_coefficient",
    "mfzeta.mf_bowen_fixed",
    "mfzeta.mf_bowen_shrinking",
    "spectrum.beta",
    "spectrum.legendre",
    "spectrum.sup_spectrum",
    "spectrum.linprog",
    "spectrum.variational_solve",
    "model.integrate",
    "model.entropy",
    "birkhoff.erg_bowen",
    "birkhoff.erg_spectrum_variational",
    "oracle.brute_constrained_sum",
    "oracle.brute_variational",
)


class MissingHook(RuntimeError):
    """A traced layer boundary is gone from the package."""


class Tracer:
    """Span recorder plus the per-layer counters that spans cannot give."""

    def __init__(self, hooks=HOOKS):
        self.hooks = tuple(hooks)
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("i")
        self.requests = array("i")
        self.stack = []
        self.request = -1
        self.counts = {
            "symbolic.composition_arrays.classes": 0,
            "symbolic.composition_arrays.reused": 0,
            "symbolic.word_blocks.words": 0,
            "pressure.bowen_root.evals": 0,
        }
        self.bindings = {}
        self._seen_levels = set()

    # -- span recording -----------------------------------------------------

    def _span(self, name_id, fn):
        perf = time.perf_counter
        starts, ends = self.starts, self.ends
        stack = self.stack

        def call(*args, **kwargs):
            idx = len(starts)
            starts.append(0.0)
            ends.append(0.0)
            self.name_ids.append(name_id)
            self.parents.append(stack[-1] if stack else -1)
            self.requests.append(self.request)
            stack.append(idx)
            starts[idx] = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf()
                stack.pop()

        return call

    def _wrap(self, hook, name_id, fn):
        if hook == "symbolic.word_blocks":
            # a generator: count the words it yields; its time stays with
            # the caller that drives it
            def word_blocks(*args, **kwargs):
                for block in fn(*args, **kwargs):
                    self.counts["symbolic.word_blocks.words"] += len(block)
                    yield block

            return word_blocks
        if hook == "symbolic.composition_arrays":
            timed = self._span(name_id, fn)

            def composition_arrays(n, N):
                counts, log_mult = timed(n, N)
                key = (int(n), int(N))
                if key in self._seen_levels:
                    self.counts["symbolic.composition_arrays.reused"] += 1
                else:
                    self._seen_levels.add(key)
                    self.counts["symbolic.composition_arrays.classes"] += len(log_mult)
                return counts, log_mult

            return composition_arrays
        if hook == "pressure.bowen_root":
            timed = self._span(name_id, fn)

            def bowen_root(P, *args, **kwargs):
                def counted(t):
                    self.counts["pressure.bowen_root.evals"] += 1
                    return P(t)

                return timed(counted, *args, **kwargs)

            return bowen_root
        return self._span(name_id, fn)

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every hook in every mfshift module namespace that binds it."""
        importlib.import_module("mfshift.cli")
        modules = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "mfshift" or name.startswith("mfshift."))
        ]
        originals = []
        for hook in self.hooks:
            mod_name, attr = hook.rsplit(".", 1)
            home = sys.modules.get(f"mfshift.{mod_name}")
            if home is None or not hasattr(home, attr):
                raise MissingHook(f"trace hook {hook} no longer exists")
            originals.append(getattr(home, attr))
        for name_id, (hook, original) in enumerate(zip(self.hooks, originals)):
            wrapper = self._wrap(hook, name_id, original)
            bound = []
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        bound.append(f"{mod.__name__}.{key}")
            self.bindings[hook] = bound

    # -- output -------------------------------------------------------------

    def save(self, path):
        """Write the spans as one .npz file (numpy is loaded by then)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.hooks),
            start=np.frombuffer(self.starts, dtype=np.float64),
            end=np.frombuffer(self.ends, dtype=np.float64),
            name=np.frombuffer(self.name_ids, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int32),
            request=np.frombuffer(self.requests, dtype=np.int32),
        )


def layer_times(spans) -> dict:
    """Per hook: calls and self time (span time minus its child spans).

    Spans nest on one thread, so the part of a span its children cover is
    the sum of its direct children's durations.
    """
    import numpy as np

    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    child = np.bincount(
        parent[has_parent], weights=dur[has_parent], minlength=dur.size
    )
    self_time = dur - child
    names = [str(n) for n in spans["names"]]
    calls = np.bincount(spans["name"], minlength=len(names))
    busy = np.bincount(spans["name"], weights=self_time, minlength=len(names))
    return {
        name: {"calls": int(calls[i]), "self_s": float(busy[i])}
        for i, name in enumerate(names)
    }


def import_times(stderr_text: str) -> dict:
    """Cumulative import seconds of scipy and of mfshift from -X importtime.

    Each package counts its outermost import lines only: an entry nested
    inside another entry of the same package is already in that entry's
    cumulative time.  mfshift's total includes the scipy and numpy imports
    it triggers.
    """
    entries = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        raw = parts[2].rstrip()
        name = raw.strip()
        level = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        entries.append((level, name, int(parts[1]) * 1e-6))
    totals = {"scipy": 0.0, "mfshift": 0.0}
    stack = []
    # lines are printed when an import finishes (children first), so the
    # reversed list visits every parent before its children
    for level, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        root = name.split(".")[0]
        if root in totals and not any(n.split(".")[0] == root for _, n in stack):
            totals[root] += cumulative
        stack.append((level, name))
    return totals
