"""In-memory span tracer that times relaxdiff layers from outside the package.

A layer is timed by replacing a function at the place its caller looks it up
(a module global such as `relaxdiff.stepper.cg_solve`, or a class attribute
such as `Grid.laplacian`) with a wrapper; `restore` puts the originals back.
Nothing inside the package is edited.

Spans record name, start, end and parent; all spans of one tracer share a
run id. A span's self time is its duration minus the time covered by its
child spans and by counted calls made while it was open. Hot calls (the
Laplacian, about 10^5 per run) are counted and summed instead of recorded as
spans. The span stack is a plain list, so a tracer must only be installed
while the program runs single-threaded (`workers = 1`).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

_clock = time.perf_counter


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # (name, start, end, parent index or -1, self seconds)
        self.spans: list[tuple[str, float, float, int, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[list] = []  # [span index, child seconds]
        self._patched: list[tuple[object, str, object]] = []
        self.missing: list[str] = []  # hook points that no longer exist

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1][0] if self._open else -1
        self.spans.append((name, 0.0, 0.0, parent, 0.0))
        frame = [index, 0.0]
        self._open.append(frame)
        start = _clock()
        try:
            yield
        finally:
            end = _clock()
            self._open.pop()
            self.spans[index] = (name, start, end, parent, end - start - frame[1])
            if self._open:
                self._open[-1][1] += end - start

    def _original(self, owner, attr: str):
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
        return original

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Record a span around every call of `owner.attr`.

        `name` is the span name or a function of the call's arguments that
        returns it; `after(name, result, args)` may update counters. A
        missing attribute is recorded in `missing` instead of raising.
        """
        original = self._original(owner, attr)
        if original is None:
            return

        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            with self.span(span_name):
                result = original(*args, **kwargs)
            if after is not None:
                after(span_name, result, args)
            return result

        self._patch(owner, attr, original, wrapper)

    def count(self, owner, attr: str, name: str, cells_arg: int) -> None:
        """Count and time calls of `owner.attr` without recording spans.

        `<name>.cells` accumulates the length of positional argument
        `cells_arg`, the number of cells the call touched.
        """
        original = self._original(owner, attr)
        if original is None:
            return
        counters = self.counters
        open_frames = self._open
        calls, secs, cells = name + ".calls", name + ".s", name + ".cells"

        def wrapper(*args, **kwargs):
            start = _clock()
            result = original(*args, **kwargs)
            elapsed = _clock() - start
            counters[calls] += 1
            counters[secs] += elapsed
            counters[cells] += len(args[cells_arg])
            if open_frames:
                open_frames[-1][1] += elapsed
            return result

        self._patch(owner, attr, original, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def totals(self, name: str) -> tuple[int, float, float]:
        """Call count, summed duration and summed self time of one span name."""
        n = total = own = 0.0
        for span_name, start, end, _, self_s in self.spans:
            if span_name == name:
                n += 1
                total += end - start
                own += self_s
        return int(n), total, own

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _, _ in self.spans if n == name]

    def to_json(self) -> dict:
        return {
            "run_id": self.run_id,
            "fields": ["name", "start", "end", "parent"],
            "spans": [[n, s, e, p] for n, s, e, p, _ in self.spans],
            "counters": dict(self.counters),
        }


def write_traces(path, tracers: list[Tracer]) -> None:
    with open(path, "w") as fh:
        json.dump([t.to_json() for t in tracers], fh)
