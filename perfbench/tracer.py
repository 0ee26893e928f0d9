"""In-memory spans around the package's public entry points, installed from outside.

The tracer replaces each traced function in every package namespace that
holds it: a caller that imported the function by name (``from .spectra1d
import enumerate_eigenvalues``) and a caller that looks it up as a module
attribute at call time both reach the wrapper. The source is not edited;
``restore`` puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

PACKAGE = "robin_semiclassics"

# Public entry points per module, in the order the layers nest.
ENTRY_POINTS = {
    "cli": ("main",),
    "asympt": ("run_sweep", "fit_sweep", "predict", "normalized_remainder"),
    "riesz": ("riesz_mean", "axis_spectra", "kroger_check", "weyl_term"),
    "spectra1d": ("enumerate_eigenvalues", "negative_eigenvalues"),
    "coeffs": ("l2",),
    "halfline": ("i_b_integral",),
    "quadrature": ("adaptive_quadrature",),
}
MODULES = tuple(ENTRY_POINTS)


@dataclass
class Span:
    sid: int
    parent: int | None
    module: str
    name: str
    start: float
    end: float = 0.0
    failed: bool = False
    args: tuple = ()
    result: object = None

    @property
    def seconds(self):
        return self.end - self.start


class Tracer:
    """Context manager: wraps on entry, restores on exit, keeps spans in memory."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def __enter__(self):
        try:
            for module, names in ENTRY_POINTS.items():
                for name in names:
                    self._install(module, name)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def _install(self, module, name):
        home = sys.modules[f"{PACKAGE}.{module}"]
        original = getattr(home, name)
        wrapper = self._wrapper(module, name, original)
        holders = [mod for key, mod in sorted(sys.modules.items())
                   if mod is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
                   and getattr(mod, name, None) is original]
        for mod in holders:
            self._patches.append((mod, name, original))
            setattr(mod, name, wrapper)

    def _wrapper(self, module, name, original):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = Span(len(spans), stack[-1] if stack else None, module, name, 0.0, args=args)
            spans.append(span)
            stack.append(span.sid)
            span.start = clock()
            try:
                span.result = original(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = clock()
                stack.pop()
            return span.result

        return traced

    def restore(self):
        while self._patches:
            mod, name, original = self._patches.pop()
            setattr(mod, name, original)

    @property
    def patched(self):
        """(module name, attribute) pairs currently replaced by a wrapper."""
        return sorted((mod.__name__, name) for mod, name, _ in self._patches)

    def take(self):
        """Return the spans recorded since the last call; span ids index the list."""
        if self._stack:
            raise RuntimeError("cannot take spans while a traced call is open")
        taken = list(self.spans)
        self.spans.clear()
        return taken


def self_seconds(spans):
    """Per-module self time: span durations minus the time their child spans cover."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.seconds
    busy = dict.fromkeys(MODULES, 0.0)
    for span, covered in zip(spans, child):
        busy[span.module] += span.seconds - covered
    return busy


def outermost_failures(spans, module):
    """Spans of ``module`` that raised and were not called by another span of it."""
    return sum(1 for span in spans
               if span.module == module and span.failed
               and (span.parent is None or spans[span.parent].module != module))
