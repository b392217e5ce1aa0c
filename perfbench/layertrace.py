"""Per-layer tracing from outside the program.

``Tracer`` wraps every public function and method of the ``roomtf`` layer
modules, at every place a function is bound by name (``pipeline`` and
``recording`` both hold their own ``rtf_oracle_many``, for example), and
records per function: calls, total time, and self time (total minus the time
spent in wrapped calls made inside it).  Nothing inside ``src/`` is touched;
``uninstall`` puts every original binding back, so a run can alternate traced
and untraced passes and read the tracing overhead from the difference.

Aggregates are kept in memory and written out when the run ends.  Individual
spans are not stored: one broadband pass makes tens of thousands of calls.
"""
from __future__ import annotations

import os
import sys
import time
import types

LAYERS = ("pipeline", "room", "recording", "synthesis", "translation",
          "specfun", "rtf", "fileio")


def _size(obj) -> int:
    return int(getattr(obj, "size", 0))


def _path_size(args, kwargs) -> int:
    path = kwargs.get("path", args[0] if args else None)
    return os.path.getsize(path)


def _counters(n_images: int):
    """Work counts computed at a layer boundary: name -> {function: f(args, kwargs, result)}."""
    basis = {f: (lambda a, kw, r: _size(r)) for f in
             ("specfun.bessel_j_matrix", "specfun.harmonic_matrix",
              "specfun.hankel_h1_matrix")}
    return {
        # every returned response is a sum over all images of the room
        "room.image_terms": {"room.rtf_oracle_many": lambda a, kw, r: _size(r) * n_images},
        "specfun.basis_entries": basis,
        "rtf.pairs": {"rtf.reconstruct_rtf_many": lambda a, kw, r: _size(r)},
        "fileio.bytes_written": {
            "fileio.save_measurement_tensor": lambda a, kw, r: _path_size(a, kw),
            "fileio.save_coefficient_set": lambda a, kw, r: _path_size(a, kw),
        },
    }


class _Stat:
    __slots__ = ("calls", "total", "self_time")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0


class Tracer:
    def __init__(self, n_images: int):
        self.stats: dict[str, _Stat] = {}
        self.counts: dict[str, float] = {}
        self._hooks: dict[str, list] = {}
        for counter, per_fn in _counters(n_images).items():
            self.counts[counter] = 0
            for fn, hook in per_fn.items():
                self._hooks.setdefault(fn, []).append((counter, hook))
        self._child = [0.0]  # time of wrapped callees, one slot per open call
        self._bindings = []  # (owner, attribute, original)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        stat = self.stats.setdefault(name, _Stat())
        hooks = self._hooks.get(name, ())
        child = self._child
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                inner = child.pop()
                child[-1] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - inner
            for counter, hook in hooks:
                counts[counter] += hook(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _targets(self):
        """(report name, original) for each public function and method."""
        out = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"roomtf.{layer}")
            if mod is None:
                continue
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    for meth, fn in vars(obj).items():
                        if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                            key = f"{layer}.{meth}"
                            if key in out:  # same method name on two classes
                                key = f"{layer}.{attr}.{meth}"
                            out[key] = (obj, meth, fn)
                elif callable(obj):
                    out[f"{layer}.{attr}"] = (None, attr, obj)
        return out

    def install(self):
        targets = self._targets()
        wrappers = {}
        for name, (cls, attr, fn) in targets.items():
            w = self._wrap(name, fn)
            if cls is not None:
                self._bindings.append((cls, attr, fn))
                setattr(cls, attr, w)
            else:
                wrappers[id(fn)] = (fn, w)
        # rebind module-level functions wherever a roomtf module holds them
        for modname, mod in list(sys.modules.items()):
            if not (modname == "roomtf" or modname.startswith("roomtf.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._bindings.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings.clear()

    # -- reporting ----------------------------------------------------------

    def value(self, metric: str):
        """A per_layer metric by name; None when the function no longer exists."""
        if metric in self.counts:
            return self.counts[metric]
        fn, _, field = metric.rpartition(".")
        if metric == "fileio.save_s":
            return self._sum_total("fileio.save_")
        if metric == "fileio.load_s":
            return self._sum_total("fileio.load_")
        stat = self.stats.get(fn)
        if stat is None:
            return None
        return {"calls": stat.calls, "self_s": stat.self_time, "s": stat.total}[field]

    def _sum_total(self, prefix):
        hits = [s.total for n, s in self.stats.items() if n.startswith(prefix)]
        return sum(hits) if hits else None

    def table(self):
        return {
            name: {"calls": s.calls, "total_s": s.total, "self_s": s.self_time}
            for name, s in sorted(self.stats.items()) if s.calls
        }
