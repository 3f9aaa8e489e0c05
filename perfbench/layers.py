"""Per-layer spans and work counts, recorded from outside the program.

The benchmark replaces public functions of bfixpoint with wrappers while a
traced pass runs and puts the originals back afterwards; src/ is never
edited. A function is replaced in every bfixpoint module that holds it, so
calls through a name imported with ``from .x import f`` are seen too.

Spans and counts are taken in separate passes: counting wraps hot calls
(``BMetricSpace.dist`` runs millions of times), and that overhead must not
land in the span times. A target that no longer exists is reported as
missing rather than stopping the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from time import perf_counter


def _resolve(module: str, qualname: str):
    """(owner, attribute, function) for bfixpoint.<module>.<qualname>, or None."""
    try:
        owner = importlib.import_module(f"bfixpoint.{module}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError):
        return None


class Patches:
    """Installed wrappers; ``undo`` restores every replaced attribute."""

    def __init__(self):
        self._saved = []

    def install(self, module: str, qualname: str, make_wrapper) -> bool:
        found = _resolve(module, qualname)
        if found is None:
            return False
        owner, attr, orig = found
        wrapper = make_wrapper(orig)
        if isinstance(owner, type):
            sites = [(owner, attr)]
        else:
            sites = [
                (mod, name)
                for mod in list(sys.modules.values())
                if getattr(mod, "__name__", "").partition(".")[0] == "bfixpoint"
                for name, value in list(vars(mod).items())
                if value is orig
            ]
        for obj, name in sites:
            self._saved.append((obj, name, getattr(obj, name)))
            setattr(obj, name, wrapper)
        return True

    def undo(self) -> None:
        while self._saved:
            obj, name, value = self._saved.pop()
            setattr(obj, name, value)


class SpanRecorder:
    """Self time per span name, and the time covered by top-level spans.

    A span's self time is its duration minus the time of the spans nested
    in it. ``active`` is cleared while the benchmark checks outputs.
    """

    def __init__(self):
        self.self_ms = Counter()
        self.top_ms = 0.0
        self.active = True
        self._stack: list[list[float]] = []

    def wrapper(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def span(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                child = [0.0]
                self._stack.append(child)
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    self._stack.pop()
                    self.self_ms[name] += (dt - child[0]) * 1e3
                    if self._stack:
                        self._stack[-1][0] += dt
                    else:
                        self.top_ms += dt * 1e3

            return span

        return make

    def install(self, patches: Patches, spans: dict) -> set:
        """Wrap every span target; returns the names whose targets are all gone."""
        missing = set()
        for name, targets in spans.items():
            found = [patches.install(mod, qual, self.wrapper(name)) for mod, qual in targets]
            if not any(found):
                missing.add(name)
        return missing


def _checks(audit) -> int:
    return audit["cauchy_checks"] + audit["chaining_checks"]


_MEASURES = {
    "n_pairs": lambda cert: cert.n_pairs,
    "steps": lambda trace: len(trace.steps),
    "checks": _checks,
}


class CountRecorder:
    """Work counts: calls, or a quantity read off each call's result."""

    def __init__(self):
        self.counts = Counter()
        self.missing: set = set()
        self.active = True

    def wrapper(self, name: str, measure: str):
        def make(fn):
            if measure == "calls":

                @functools.wraps(fn)
                def counted(*args, **kwargs):
                    if self.active:
                        self.counts[name] += 1
                    return fn(*args, **kwargs)

                return counted
            read = _MEASURES[measure]

            @functools.wraps(fn)
            def measured(*args, **kwargs):
                result = fn(*args, **kwargs)
                if self.active:
                    try:
                        self.counts[name] += read(result)
                    except (AttributeError, KeyError, TypeError):
                        self.missing.add(name)  # the result no longer carries it
                return result

            return measured

        return make

    def install(self, patches: Patches, counts: dict) -> None:
        for name, (mod, qual, measure) in counts.items():
            if not patches.install(mod, qual, self.wrapper(name, measure)):
                self.missing.add(name)
