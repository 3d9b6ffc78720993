"""Span recorder for the traced run (``--trace 1``).

The benchmark measures every layer from outside: it shadows public bound
methods on the layer objects it built itself with wrappers that time the
call, and keeps the records in memory until the run ends.

Two kinds of wrapper share one stack of open frames:

* a **span** wrapper appends a record (id, parent id, name, operation id,
  start, end, busy time) for every call;
* a **light** wrapper, for functions called more than ~10 000 times a
  run (``invalidate``, ``remap_segment``, the scalar access path), only
  adds to a per-name count and time.

Either way the call's duration is added to the frame below it, so a
name's **self time** is its busy time minus the part its children cover,
and the self times of everything under a root add up to the root's busy
time.  Coroutines (``handle_request``, ``shard.submit``) are stepped by
an awaitable that times each ``send`` segment, so their busy time is
time on the CPU and excludes the time they spend suspended.
"""

from __future__ import annotations

import contextvars
import json
from time import perf_counter

#: Identifier shared by all spans of one operation (request or batch).
#: A context variable so interleaved tenant coroutines keep their own.
_OP: contextvars.ContextVar[int] = contextvars.ContextVar("bench_op",
                                                          default=-1)


class _Total:
    """Running totals for one span name."""

    __slots__ = ("calls", "items", "busy_s", "self_s")

    def __init__(self) -> None:
        self.calls = 0
        self.items = 0  # summed length of the sized argument
        self.busy_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Records spans around shadowed methods; see the module docstring."""

    def __init__(self) -> None:
        #: ``(id, parent, name, op, start, end, busy_s)`` per recorded span.
        self.spans: list[tuple[int, int, str, int, float, float, float]] = []
        self.totals: dict[str, _Total] = {}
        # Open frames, innermost last: [children_busy_s, span_id].
        self._stack: list[list] = [[0.0, -1]]
        self._installed: list[tuple[object, str]] = []
        self._next_id = 0

    # -- operation ids -----------------------------------------------------

    @staticmethod
    def set_op(op: int) -> None:
        """Tag spans opened from here on (in this task) with ``op``."""
        _OP.set(op)

    @staticmethod
    def current_op() -> int:
        """The operation id of the calling task."""
        return _OP.get()

    # -- recording ---------------------------------------------------------

    def _total(self, name: str) -> _Total:
        total = self.totals.get(name)
        if total is None:
            total = self.totals[name] = _Total()
        return total

    def wrap(self, name: str, fn, light: bool = False,
             sized: int | None = None):
        """A callable that runs ``fn`` inside a span called ``name``.

        ``sized`` is the index of an array argument whose length is added
        to the name's ``items`` (accesses per call, HSNs per walk).
        """
        total = self._total(name)
        stack = self._stack
        spans = self.spans

        def traced(*args, **kwargs):
            parent = stack[-1]
            if light:
                frame = [0.0, parent[1]]
            else:
                frame = [0.0, self._next_id]
                self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                busy = end - start
                parent[0] += busy
                total.calls += 1
                if sized is not None:
                    total.items += len(args[sized])
                total.busy_s += busy
                total.self_s += busy - frame[0]
                if not light:
                    spans.append((frame[1], parent[1], name, _OP.get(),
                                  start, end, busy))

        return traced

    def wrap_async(self, name: str, fn):
        """Like :meth:`wrap` for a coroutine function."""
        def traced(*args, **kwargs):
            return _SteppedCall(self, name, fn(*args, **kwargs))
        return traced

    # -- shadowing ---------------------------------------------------------

    def shadow(self, obj, attr: str, name: str, light: bool = False,
               coroutine: bool = False, sized: int | None = None) -> None:
        """Shadow the bound method ``obj.attr`` with a traced wrapper.

        The wrapper is set as an instance attribute, so only this object
        is affected.  ``object.__setattr__`` is used so the frozen
        (non-slotted) address layouts and power model can be timed in
        place as well.
        """
        fn = getattr(obj, attr)
        self.install(obj, attr,
                     self.wrap_async(name, fn) if coroutine
                     else self.wrap(name, fn, light=light, sized=sized))

    def install(self, obj, attr: str, wrapper) -> None:
        """Set ``wrapper`` as ``obj.attr`` until :meth:`remove`."""
        object.__setattr__(obj, attr, wrapper)
        self._installed.append((obj, attr))

    def remove(self) -> None:
        """Undo every :meth:`shadow`."""
        for obj, attr in reversed(self._installed):
            object.__delattr__(obj, attr)
        self._installed.clear()

    # -- read-back ---------------------------------------------------------

    def calls(self, name: str) -> int:
        return self._total(name).calls

    def items(self, name: str) -> int:
        return self._total(name).items

    def busy_s(self, name: str) -> float:
        return self._total(name).busy_s

    def self_s(self, *names: str) -> float:
        """Summed self time of ``names`` (a name never entered is zero)."""
        return sum(self._total(name).self_s for name in names)

    def dump(self, path: str) -> None:
        """Write every span and total to ``path`` as one JSON document."""
        document = {
            "fields": ["id", "parent", "name", "op", "start", "end",
                       "busy_s"],
            "spans": self.spans,
            "totals": {name: {"calls": total.calls, "items": total.items,
                              "busy_s": total.busy_s,
                              "self_s": total.self_s}
                       for name, total in sorted(self.totals.items())},
        }
        with open(path, "w") as handle:
            json.dump(document, handle)


class _SteppedCall:
    """Awaitable that drives a coroutine and times each running segment."""

    __slots__ = ("_tracer", "_name", "_coro")

    def __init__(self, tracer: Tracer, name: str, coro):
        self._tracer = tracer
        self._name = name
        self._coro = coro

    def __await__(self):
        tracer = self._tracer
        stack = tracer._stack
        total = tracer._total(self._name)
        inner = self._coro.__await__()
        frame = [0.0, tracer._next_id]
        tracer._next_id += 1
        parent_id = stack[-1][1]
        first = None
        busy_total = 0.0
        send, value = inner.send, None
        while True:
            parent = stack[-1]
            stack.append(frame)
            start = perf_counter()
            if first is None:
                first = start
            try:
                yielded = send(value)
            except StopIteration as stop:
                finished, result = True, stop.value
            else:
                finished = False
            finally:
                end = perf_counter()
                stack.pop()
                parent[0] += end - start
                busy_total += end - start
            if finished:
                total.calls += 1
                total.busy_s += busy_total
                total.self_s += busy_total - frame[0]
                tracer.spans.append((frame[1], parent_id, self._name,
                                     _OP.get(), first, end, busy_total))
                return result
            try:
                value = yield yielded
                send = inner.send
            except BaseException as exc:  # forwarded, not handled
                send, value = inner.throw, exc
