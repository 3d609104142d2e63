"""Outside-in tracing of greencell: spans and counters recorded by rebinding.

The tracer wraps every public function of the traced modules (plus the
private dual evaluation ``optimal._avg_throughput``) and rebinds each wrapper
at every place the program looks the name up: module globals such as
``suboptimal.max_range_x`` or ``scaling.derive_constants``, and module-level
dispatch tables such as ``cli._SCHEME_FUNCS``.  Nothing under ``src/`` is
edited; ``uninstall`` puts every original object back.

Spans (name, start, end, parent span) are kept in compact in-memory columns
and written out once at the end of a run.  A layer's self time is its span
time minus the time of its child spans.
"""

from __future__ import annotations

import dataclasses
import importlib
import time
from array import array

import numpy as np

TRACED_MODULES = ("params", "scaling", "numerics", "traffic", "optimal",
                  "suboptimal", "metrics", "mcsim", "cli")

# private names traced on top of the public ones
EXTRA_FUNCTIONS = {"optimal": ("_avg_throughput",)}

# functions that build a DensityDistribution; their results get a counted pdf
_DIST_BUILDERS = {"traffic.triangular", "traffic.from_table", "traffic.from_csv"}


def _traceable(module, obj) -> bool:
    return (callable(obj) and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == module.__name__)


class Tracer:
    """Span recorder and counter set for one traced run."""

    def __init__(self, package):
        self.package = package
        self.names: list = []
        self._name_ids: dict = {}
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.counters: dict = {"traffic.pdf_evals": 0, "mcsim.user_draws": 0}
        self._stack: list = []
        self._patches: list = []  # (container, key, original, is_dict)

    # --- span recording -------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        return self._wrap(name, fn)(*args, **kwargs)

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    # --- counters at layer boundaries ------------------------------------

    def counted(self, dist):
        """A copy of ``dist`` whose pdf counts the density values requested."""
        pdf = dist.pdf
        counters = self.counters

        def counting_pdf(lam):
            counters["traffic.pdf_evals"] += int(np.size(lam))
            return pdf(lam)

        return dataclasses.replace(dist, pdf=counting_pdf)

    def _with_counter(self, name: str, fn):
        if name in _DIST_BUILDERS:
            def build(*args, **kwargs):
                return self.counted(fn(*args, **kwargs))
            return build
        if name == "scaling.stpc_power":
            counters = self.counters

            def stpc(distance, n_users, p):
                counters["mcsim.user_draws"] += int(np.size(distance))
                return fn(distance, n_users, p)
            return stpc
        return fn

    # --- install / uninstall ---------------------------------------------

    def install(self) -> None:
        """Rebind a traced wrapper at every lookup site of every traced function."""
        modules = [importlib.import_module(f"{self.package}.{m}")
                   for m in TRACED_MODULES]
        wrappers = {}  # id(original) -> (original, wrapper)
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            extra = EXTRA_FUNCTIONS.get(short, ())
            for name, obj in vars(mod).items():
                if (name.startswith("_") and name not in extra) \
                        or not _traceable(mod, obj):
                    continue
                qual = f"{short}.{name}"
                wrappers[id(obj)] = (obj, self._wrap(qual,
                                                     self._with_counter(qual, obj)))
        sites = modules + [importlib.import_module(self.package)]
        for mod in sites:
            for key, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patches.append((mod, key, val, False))
                    setattr(mod, key, hit[1])
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        hit = wrappers.get(id(dval))
                        if hit is not None and hit[0] is dval:
                            self._patches.append((val, dkey, dval, True))
                            val[dkey] = hit[1]

    def uninstall(self) -> None:
        for container, key, original, is_dict in reversed(self._patches):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # --- results ----------------------------------------------------------

    def layer_stats(self) -> dict:
        """Per span name: call count, inclusive seconds and self seconds."""
        nid = np.frombuffer(self.span_name, dtype=np.uint16).astype(np.intp)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(nid, minlength=n)
        total = np.bincount(nid, weights=dur, minlength=n)
        self_s = np.bincount(nid, weights=dur - child, minlength=n)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(self_s[i])}
                for i, name in enumerate(self.names)}

    def write(self, path) -> None:
        """Write every span to an ``.npz`` file (name table plus columns)."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.uint16),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
