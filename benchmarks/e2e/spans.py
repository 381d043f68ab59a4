"""In-memory span recording for the traced run.

Spans are recorded from the harness's side only: around its own calls
into the stack, and by replacing *instance* attributes of the objects it
built (``service.submit``, ``fleet.run_to_quiescence``,
``transport.pump`` ...) with timing wrappers.  Nothing under ``src/`` is
edited or monkey-patched at class level.  Spans stay in memory and are
summarised (and optionally written out) when the benchmark ends.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: span name -> the layer (module) whose time it is
LAYER_OF = {
    "slice": "harness",
    "op": "apps.shard.service",
    "submit": "apps.shard.service",
    "step": "apps.shard.service",
    "drain": "apps.shard.service",
    "run_to_quiescence": "sim.kernel+core",
    "run": "sim.kernel+core",
    "send_request": "net.transport",
    "send_response": "net.transport",
    "pump": "net.transport",
    "flush_idle": "net.transport",
    "encode": "net.wire",
    "decode": "net.wire",
    "audit": "consistency",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "token", "thread", "phase")

    def __init__(self, name, start, parent, token, thread, phase):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.token = token
        self.thread = thread
        self.phase = phase

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans per thread (name, start, end, parent, token)."""

    def __init__(self, clock: "Callable[[], float]" = time.perf_counter):
        self._clock = clock
        self._local = threading.local()
        self.spans: "List[Span]" = []
        #: set by the harness around each timed phase so spans can be
        #: grouped without walking to their root
        self.phase = "setup"

    def _stack(self) -> "List[Span]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, token: Any = None) -> Span:
        stack = self._stack()
        span = Span(
            name,
            self._clock(),
            stack[-1] if stack else None,
            token,
            threading.current_thread().name,
            self.phase,
        )
        stack.append(span)
        self.spans.append(span)  # list.append is atomic across threads
        return span

    def end(self, span: Span) -> None:
        span.end = self._clock()
        self._stack().pop()

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Shadow ``owner.attribute`` (a bound method) on the instance with
        a wrapper that records a span named ``name`` around each call; a
        ``token=`` keyword, where the call has one, tags the span."""
        inner = getattr(owner, attribute)
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            span = begin(name, kwargs.get("token"))
            try:
                return inner(*args, **kwargs)
            finally:
                end(span)

        setattr(owner, attribute, traced)

    # -- summaries ----------------------------------------------------------

    def self_times(
        self, phase: "Optional[str]" = None, thread: "Optional[str]" = None
    ) -> "Dict[str, float]":
        """Seconds per span name, children's time subtracted.

        A child always runs on its parent's thread (the stack is
        per-thread), so the subtraction never mixes overlapping threads.
        ``thread`` restricts the sum to one thread's spans: the caller's
        self times add up to its wall time, while the event-loop thread of
        the socket transport works concurrently with the caller's waits.
        """
        own: "Dict[int, float]" = {}
        for span in self.spans:
            own[id(span)] = span.duration
        for span in self.spans:
            if span.parent is not None:
                own[id(span.parent)] -= span.duration
        totals: "Dict[str, float]" = defaultdict(float)
        for span in self.spans:
            if (phase is None or span.phase == phase) and (
                thread is None or span.thread == thread
            ):
                totals[span.name] += own[id(span)]
        return dict(totals)

    def totals(self, name: str, phase: "Optional[str]" = None) -> "tuple[int, float]":
        """(count, summed duration) of the spans called ``name``."""
        count, seconds = 0, 0.0
        for span in self.spans:
            if span.name == name and (phase is None or span.phase == phase):
                count += 1
                seconds += span.duration
        return count, seconds

    def by_layer(
        self, phase: "Optional[str]" = None, thread: "Optional[str]" = None
    ) -> "Dict[str, float]":
        layers: "Dict[str, float]" = defaultdict(float)
        for name, seconds in self.self_times(phase, thread).items():
            layers[LAYER_OF.get(name, name)] += seconds
        return dict(layers)

    def to_rows(self) -> "List[Dict[str, Any]]":
        """JSON-able spans; ``parent`` is the parent's row index."""
        index = {id(span): row for row, span in enumerate(self.spans)}
        return [
            {
                "name": span.name,
                "layer": LAYER_OF.get(span.name, span.name),
                "start": span.start,
                "end": span.end,
                "parent": index[id(span.parent)] if span.parent else None,
                "token": repr(span.token) if span.token is not None else None,
                "thread": span.thread,
                "phase": span.phase,
            }
            for span in self.spans
        ]


class TracedCodec:
    """A wire codec whose encode/decode calls are recorded as spans.

    ``AsyncioTransport`` accepts a codec *object* as well as a name, so
    the traced run hands it this wrapper around ``get_codec(name)``.
    """

    def __init__(self, codec: Any, tracer: Tracer):
        self._codec = codec
        self.name = codec.name
        self.read_frame = codec.read_frame
        self._tracer = tracer

    def _encode(self, call, *args):
        span = self._tracer.begin("encode")
        try:
            return call(*args)
        finally:
            self._tracer.end(span)

    def _decode(self, call, frame):
        span = self._tracer.begin("decode")
        try:
            return call(frame)
        finally:
            self._tracer.end(span)

    def encode_request(self, op):
        return self._encode(self._codec.encode_request, op)

    def encode_response(self, op_value, result):
        return self._encode(self._codec.encode_response, op_value, result)

    def decode_request(self, frame):
        return self._decode(self._codec.decode_request, frame)

    def decode_response(self, frame):
        return self._decode(self._codec.decode_response, frame)
