"""Spans around ergosum's public functions, installed from outside the package.

``Tracer.install`` replaces every public function of the traced modules,
and every reference to it that another ergosum module imported by name,
with a wrapper that records the call's duration and self time (duration
minus the time covered by nested spans).  Two methods are wrapped too:
``ScalingSequence.__call__`` (per sequence name) and the lifetime
samplers' ``sample`` (to count draws).  ``uninstall`` restores the
originals.

Spans are aggregated per name as they close.  One span stack serves the
process, so the traced pass must run single-threaded; then the self times
of all spans plus the untraced remainder add up to the pass's wall time.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("rankone", "renewal", "birkhoff", "lattice", "regvar", "kernels", "cli")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self.scaling_by_name = defaultdict(float)
        self._stack = []
        self._patches = []

    # -- recording -----------------------------------------------------

    def wrap(self, base, fn, name_of=None, after=None):
        """Wrapper recording a span named ``base`` (or ``name_of(...)`` on success).

        ``name_of(args, kwargs, result, children)`` and ``after(args, kwargs,
        result, self_s)`` see the set of span names directly nested in the
        call; an exception is recorded under ``base`` and re-raised.
        """
        stack = self._stack

        def wrapper(*args, **kwargs):
            frame = [0.0, set()]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(base, frame, perf_counter() - start)
                raise
            elapsed = perf_counter() - start
            name = base if name_of is None else name_of(args, kwargs, result, frame[1])
            self_s = self._close(name, frame, elapsed)
            if after is not None:
                after(args, kwargs, result, self_s)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", base)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _close(self, name, frame, elapsed):
        stack = self._stack
        stack.pop()
        if stack:
            stack[-1][0] += elapsed
            stack[-1][1].add(name)
        self_s = elapsed - frame[0]
        self.calls[name] += 1
        self.total[name] += elapsed
        self.self_time[name] += self_s
        return self_s

    def layer_self(self, layer: str) -> float:
        prefix = layer + "."
        return sum(t for name, t in self.self_time.items() if name.startswith(prefix))

    def reset(self):
        self.calls.clear()
        self.total.clear()
        self.self_time.clear()
        self.counts.clear()
        self.scaling_by_name.clear()

    # -- installation --------------------------------------------------

    def install(self):
        """Wrap the public surface of every layer module of ergosum."""
        from ergosum import cli, renewal
        from ergosum.regvar import ScalingSequence

        # a layer module that does not exist (any more) is simply not traced
        modules = {name: sys.modules.get(f"ergosum.{name}") for name in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            if module is None:
                continue
            for attr, fn in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                wrappers[fn] = self._wrapper_for(layer, fn)
        # the kernels are defined in the backend module ergosum.kernels selects
        for attr in ("renewal_convolve", "translate_count"):
            fn = getattr(modules["kernels"], attr, None)
            if fn is not None:
                wrappers[fn] = self.wrap(f"kernels.{attr}", fn)

        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ergosum" and not mod_name.startswith("ergosum."):
                continue
            for attr, value in list(vars(module).items()):
                try:
                    wrapper = wrappers.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if wrapper is not None:
                    self._patch(module, attr, wrapper)
        for kind, fn in list(cli.RUNNERS.items()):
            if fn in wrappers:
                self._patch_item(cli.RUNNERS, kind, wrappers[fn])

        def count_scaling(args, kwargs, result, self_s):
            self.scaling_by_name[args[0].name] += self_s

        self._patch(ScalingSequence, "__call__",
                    self.wrap("regvar.scaling", ScalingSequence.__call__,
                              after=count_scaling))

        def count_draws(args, kwargs, result, self_s):
            self.counts["renewal.draws"] += len(result)

        for cls in _subclasses(renewal.LifetimeDistribution):
            if "sample" in vars(cls):
                self._patch(cls, "sample",
                            self.wrap("renewal.sample", vars(cls)["sample"],
                                      after=count_draws))

    def uninstall(self):
        for target, key, original, is_item in reversed(self._patches):
            if is_item:
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def _patch(self, target, attr, value):
        self._patches.append((target, attr, getattr(target, attr), False))
        setattr(target, attr, value)

    def _patch_item(self, mapping, key, value):
        self._patches.append((mapping, key, mapping[key], True))
        mapping[key] = value

    def _wrapper_for(self, layer, fn):
        base = f"{layer}.{fn.__name__}"
        name = fn.__name__
        counts = self.counts
        if layer == "renewal" and name == "renewal_sequence":
            def after(args, kwargs, result, self_s):
                counts[f"renewal.{result.method}_n"] += len(result.u)
            return self.wrap(base, fn, after=after,
                             name_of=lambda a, k, r, ch: f"renewal.{r.method}")
        if layer == "lattice" and name == "translate_counts":
            def after(args, kwargs, result, self_s):
                n_box = args[1] if len(args) > 1 else kwargs["n_box"]
                counts["lattice.translate_columns"] += 2 * int(n_box) + 1
            # the float path is the one that calls the strip-count kernel
            return self.wrap(base, fn, after=after, name_of=lambda a, k, r, ch: (
                "lattice.translate_float" if "kernels.translate_count" in ch
                else "lattice.translate_exact"))
        if layer == "lattice" and name == "walk_sample":
            def after(args, kwargs, result, self_s):
                counts["lattice.walk_steps"] += 2 * result.J
            return self.wrap(base, fn, after=after)
        if layer == "birkhoff" and name == "series_from_name":
            def after(args, kwargs, result, self_s):
                counts["rankone.levels_max"] = max(counts["rankone.levels_max"],
                                                   args[0].level)
            return self.wrap(base, fn, after=after)
        if layer == "cli" and name == "write_outputs":
            def after(args, kwargs, result, self_s):
                counts["cli.files_written"] += len(result)
                counts["cli.bytes_written"] += sum(p.stat().st_size for p in result)
            return self.wrap(base, fn, after=after)
        return self.wrap(base, fn)


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
