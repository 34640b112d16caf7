"""Spans recorded from outside the program, around calls into its layers.

The benchmark measures layers without touching ``src/``: it replaces a
bound method *on one instance* (``trainer.train_step``,
``exchange.exchange``, a codec's ``encode_into`` ...) with a wrapper
that opens a span, calls through, and closes it.  Every thread has its
own span stack, so a span's parent is the span that was open on the
same thread when it started; a layer's *self time* is its duration
minus the time its child spans cover.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    thread: int
    start: float
    end: float = 0.0
    parent: str | None = None
    #: seconds of this span covered by its direct children
    covered: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.covered


class SpanRecorder:
    """Thread-aware span log with self-time accounting."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: wrappers installed by :meth:`wrap` call straight through while
        #: this is false, so one run can alternate traced and plain phases
        self.enabled = True
        self.spans: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            name,
            threading.get_ident(),
            self.clock(),
            parent=parent.name if parent is not None else None,
        )
        stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()
            if parent is not None:
                parent.covered += span.duration
            # list.append is atomic under the interpreter lock
            self.spans.append(span)

    def wrap(self, owner, attribute: str, name: str, observe=None) -> None:
        """Time every call of ``owner.attribute`` as a span called ``name``.

        The wrapper is set on the *instance* (or module) ``owner``, so
        other instances of the class are untouched.  ``observe(args,
        kwargs, result)`` runs inside the span, after the call, and is
        where counts such as encoded bytes are read.
        """
        inner = getattr(owner, attribute)

        def timed(*args, **kwargs):
            if not self.enabled:
                return inner(*args, **kwargs)
            with self.span(name):
                result = inner(*args, **kwargs)
                if observe is not None:
                    observe(args, kwargs, result)
                return result

        setattr(owner, attribute, timed)

    # -- aggregation ------------------------------------------------------
    def self_seconds(self, name: str, parent: str | None = None) -> float:
        """Summed self time of spans called ``name`` (under ``parent`` if given)."""
        return sum(
            s.self_time
            for s in self.spans
            if s.name == name and (parent is None or s.parent == parent)
        )

    def calls(self, name: str) -> int:
        """Outermost calls of ``name`` (a nested same-name span is one call)."""
        return sum(
            1 for s in self.spans if s.name == name and s.parent != name
        )

    def write(self, path) -> None:
        with open(path, "w") as stream:
            json.dump(
                [
                    [s.name, s.thread, s.start, s.end, s.parent]
                    for s in self.spans
                ],
                stream,
            )
