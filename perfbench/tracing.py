"""Outside-in layer tracing: spans around every public function of each layer.

`install` replaces each public function of the layer modules with a wrapper,
in every elastica module (and the package namespace) that bound it, so calls
between layers (`expmap.jacobi`, `maxwell.f1`, the deferred `find_k0` import
in `classify`) are seen too.  Nothing inside the library changes.

Spans nest: a span's self time is its duration minus the time of the spans
it caused.  Only per-function aggregates are kept in memory (calls, self
time, inclusive time), because a single `bvp` op makes ~150k spans.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

LAYERS = ("elliptic", "phase", "expmap", "symmetry", "maxwell", "oracle", "cli")

# maxwell functions whose calls are root-finder (Brent) evaluations
ROOT_FUNCS = ("f1", "f2", "h1", "g1_n1", "g1_n2")


class Tracer:
    """Aggregated spans of the traced ops.

    An op's span times accumulate raw in `_pending_self`/`_pending_incl`
    and move into `self_s`/`incl_s`, scaled by the op's normalization
    factor, when the op is committed.
    """

    def __init__(self, sampler):
        self.sampler = sampler  # its kernel chunks are not part of any span
        self.calls: dict[tuple, int] = defaultdict(int)
        self.self_s: dict[tuple, float] = defaultdict(float)
        self.incl_s: dict[tuple, float] = defaultdict(float)
        self.points = 0  # points returned by sample_elastica
        self.solutions = 0  # solutions returned by bvp_shoot
        self._pending_self: dict[tuple, float] = defaultdict(float)
        self._pending_incl: dict[tuple, float] = defaultdict(float)
        self._stack = [0.0]

    def call(self, key, fn, args, kwargs):
        stack = self._stack
        stack.append(0.0)
        k0 = self.sampler.spent
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0 - (self.sampler.spent - k0)
            self._pending_self[key] += dt - stack.pop()
            self._pending_incl[key] += dt
            self.calls[key] += 1
            stack[-1] += dt
        if key == ("expmap", "sample_elastica"):
            self.points += len(out)
        elif key == ("oracle", "bvp_shoot"):
            self.solutions += len(out)
        return out

    def commit(self, factor: float):
        """Close one op: scale its span times by the op's normalization factor."""
        for key, s in self._pending_self.items():
            self.self_s[key] += s * factor
        for key, s in self._pending_incl.items():
            self.incl_s[key] += s * factor
        self._pending_self.clear()
        self._pending_incl.clear()
        self._stack = [0.0]

    def layer_calls(self, layer: str) -> int:
        return sum(n for (lay, _), n in self.calls.items() if lay == layer)

    def layer_self_s(self, layer: str) -> float:
        return sum(s for (lay, _), s in self.self_s.items() if lay == layer)


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if (
            not name.startswith("_")
            and callable(obj)
            and not isinstance(obj, type)
            and getattr(obj, "__module__", None) == mod.__name__
        ):
            yield name, obj


def install(tracer: Tracer):
    """Wrap every layer's public functions; return a callable that undoes it."""
    package = importlib.import_module("elastica")
    modules = {layer: importlib.import_module(f"elastica.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for name, fn in _public_functions(mod):
            key = (layer, name)

            def wrapper(*args, _key=key, _fn=fn, **kwargs):
                return tracer.call(_key, _fn, args, kwargs)

            wrappers[id(fn)] = (fn, wrapper)

    undo = []
    for mod in (package, *modules.values()):
        for name, obj in list(vars(mod).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, name, hit[1])
                undo.append((mod, name, obj))

    def uninstall():
        for mod, name, obj in undo:
            setattr(mod, name, obj)

    return uninstall
