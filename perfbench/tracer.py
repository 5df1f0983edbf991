"""Per-layer timers installed from outside the program.

A :class:`Tracer` replaces public functions and methods of ``repro``
with wrappers that add ``perf_counter_ns`` time and a call count to a
named stage.  Nothing under ``src/`` is edited: module-level functions
are swapped in every loaded ``repro.*`` module that binds them (call
sites import them by name), methods are swapped on their class.

Time is *self* time: a wrapped call's duration minus the duration of
the wrapped calls nested inside it.  The outermost frame the benchmark
opens around each solve (:meth:`Tracer.frame`) therefore collects the
time no wrapped layer claimed, and the stage times of a solve add up
exactly to its wall time.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    """Stage accumulators plus the wrappers that feed them."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        # one entry per open wrapped call: nanoseconds of nested wrapped time
        self._stack: list[int] = []

    def reset(self) -> None:
        self.seconds.clear()
        self.calls.clear()
        self.counts.clear()

    # -- timing --------------------------------------------------------
    def _enter(self) -> int:
        self._stack.append(0)
        return time.perf_counter_ns()

    def _exit(self, stage: str, start: int) -> None:
        elapsed = time.perf_counter_ns() - start
        nested = self._stack.pop()
        self.seconds[stage] += (elapsed - nested) / 1e9
        self.calls[stage] += 1
        if self._stack:
            self._stack[-1] += elapsed

    @contextmanager
    def frame(self, stage: str):
        """Time a block of the benchmark's own code as ``stage``."""
        start = self._enter()
        try:
            yield
        finally:
            self._exit(stage, start)

    def timed(self, fn, stage: str):
        """``fn`` wrapped so each call is charged to ``stage``."""
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # charge only the time spent inside the generator, not
                # the consumer's work between items
                it = fn(*args, **kwargs)
                while True:
                    start = self._enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(stage, start)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(stage, start)

        return wrapper

    # -- installation --------------------------------------------------
    def _wrap(self, fn, stage: str, after):
        timed = self.timed(fn, stage)
        if after is None:
            return timed

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = timed(*args, **kwargs)
            after(out, args, kwargs)
            return out

        return wrapper

    def patch_function(self, fn, stage: str, after=None) -> None:
        """Replace every ``repro.*`` module binding of ``fn``.

        ``after(result, args, kwargs)``, when given, runs after each
        call to count what the call returned.
        """
        wrapper = self._wrap(fn, stage, after)
        replaced = 0
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    replaced += 1
        if replaced == 0:
            raise RuntimeError(f"no module binds {fn.__module__}.{fn.__name__}")

    def patch_method(self, cls, name: str, stage: str, after=None) -> None:
        """Replace ``cls.name`` with a wrapper charging ``stage``."""
        setattr(cls, name, self._wrap(cls.__dict__[name], stage, after))

    def count_method(self, cls, name: str, count) -> None:
        """Call ``count(result, args, kwargs)`` after each ``cls.name``
        call, without timing it."""
        original = cls.__dict__[name]

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            out = original(*args, **kwargs)
            count(out, args, kwargs)
            return out

        setattr(cls, name, wrapper)
