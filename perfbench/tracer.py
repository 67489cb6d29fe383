"""Outside-in tracer for the mambavla modules.

The tracer wraps the public functions and public class methods of the modules
it is given, from outside the package, and aggregates one span per call:
calls, inclusive time and self time (inclusive time minus the time of traced
calls made inside it), keyed by the current phase label and the span name
(``module.function`` or ``module.Class.method``).

Names that a module imported by value (``from mambavla.policy import
position_loss``) are separate references to the same function object, so
after wrapping, every module-level reference in the loaded ``mambavla``
modules that points at a wrapped original -- and every value of a
module-level dict such as ``diffcore.PRIMITIVES`` -- is rebound to its
wrapper.  `uninstall` puts every original back, in reverse order.

Spans are aggregated in memory rather than stored one by one: a traced
benchmark run makes millions of primitive calls.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
import types

_CLOCK = time.perf_counter


def _module_public_names(mod: types.ModuleType) -> list[str]:
    names = getattr(mod, "__all__", None)
    if names is None:
        names = [n for n in vars(mod) if not n.startswith("_")]
    return list(names)


def _traceable(fn, owner_module: str) -> bool:
    return (inspect.isfunction(fn) and fn.__module__ == owner_module
            and not inspect.isgeneratorfunction(fn))


def traced_targets(mod: types.ModuleType):
    """Yield (span name, owner, attribute, function) for every public
    function of `mod` and every public plain method of its public classes.

    Generator functions (parameter iterators) are skipped: their call returns
    before any work is done, so a span would time nothing.
    """
    short = mod.__name__.rsplit(".", 1)[-1]
    for name in _module_public_names(mod):
        obj = getattr(mod, name, None)
        if _traceable(obj, mod.__name__):
            yield f"{short}.{name}", mod, name, obj
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__ \
                and not issubclass(obj, BaseException):
            for mname, fn in list(vars(obj).items()):
                if not mname.startswith("_") and _traceable(fn, mod.__name__):
                    yield f"{short}.{obj.__name__}.{mname}", obj, mname, fn


class Tracer:
    """Per-phase span aggregation over wrapped module functions.

    Use as a context manager (install on enter, restore on exit), set
    `phase` (or use `in_phase`) around the work to attribute, and read
    `stats[(phase, span name)] = [calls, inclusive_s, self_s]`.  A hook
    registered under a span name in `hooks` is called as
    hook(args, kwargs, result) after each successful call of that span.
    """

    def __init__(self, modules, package: str = "mambavla"):
        self.modules = list(modules)
        self.package = package
        self.phase = "idle"
        self.stats: dict[tuple[str, str], list] = {}
        self.hooks: dict[str, object] = {}
        self._stack: list[float] = []
        self._patches: list[tuple[object, object, object]] = []

    # -- install / restore -------------------------------------------------

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, tuple[object, object]] = {}
        try:
            for mod in self.modules:
                for span, owner, attr, fn in traced_targets(mod):
                    wrapper = self._wrap(span, fn)
                    wrappers[id(fn)] = (fn, wrapper)
                    self._patch(owner, attr, wrapper)
            for mod in self._package_modules():
                for attr, value in list(vars(mod).items()):
                    hit = wrappers.get(id(value))
                    if hit is not None and hit[0] is value:
                        self._patch(mod, attr, hit[1])
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            hit = wrappers.get(id(item))
                            if hit is not None and hit[0] is item:
                                self._patch(value, key, hit[1])
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._stack.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def _package_modules(self):
        prefix = self.package + "."
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == self.package or name.startswith(prefix))]

    def _patch(self, owner, attr, value) -> None:
        if isinstance(owner, dict):
            original = owner[attr]
            owner[attr] = value
        else:
            # class attributes are read from the class __dict__ so that an
            # inherited method is never copied onto a subclass on restore
            original = vars(owner)[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            setattr(owner, attr, value)
        self._patches.append((owner, attr, original))

    # -- spans ---------------------------------------------------------------

    def _wrap(self, span: str, fn):
        stats, stack, tracer = self.stats, self._stack, self

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = _CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = _CLOCK() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                key = (tracer.phase, span)
                rec = stats.get(key)
                if rec is None:
                    rec = stats[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - child
            hook = tracer.hooks.get(span)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return functools.update_wrapper(traced, fn)

    @staticmethod
    def span_cost(calls: int = 20000, repeats: int = 5) -> float:
        """Seconds one traced call adds to the same call untraced.

        Measured on a no-op function through a throwaway tracer, as the
        fastest of `repeats` rounds.
        """
        def noop():
            return None

        wrapped = Tracer([])._wrap("noop", noop)
        best = math.inf
        for _ in range(repeats):
            start = _CLOCK()
            for _ in range(calls):
                noop()
            plain = _CLOCK() - start
            start = _CLOCK()
            for _ in range(calls):
                wrapped()
            best = min(best, (_CLOCK() - start - plain) / calls)
        return best

    @contextlib.contextmanager
    def in_phase(self, phase: str):
        previous, self.phase = self.phase, phase
        try:
            yield
        finally:
            self.phase = previous

    # -- queries -------------------------------------------------------------

    @staticmethod
    def _phase_matches(phase: str, wanted) -> bool:
        # a wanted label covers itself and its dotted sub-labels
        return any(phase == w or phase.startswith(w + ".") for w in wanted)

    def _sum(self, spans, phases, field: int) -> float:
        spans = {spans} if isinstance(spans, str) else set(spans)
        phases = (phases,) if isinstance(phases, str) else tuple(phases)
        return sum(rec[field] for (phase, span), rec in self.stats.items()
                   if span in spans and self._phase_matches(phase, phases))

    def calls(self, spans, phases) -> int:
        return int(self._sum(spans, phases, 0))

    def inclusive_s(self, spans, phases) -> float:
        return self._sum(spans, phases, 1)

    def self_s(self, spans, phases) -> float:
        return self._sum(spans, phases, 2)
