"""The benchmark's own spans around calls into the program's modules.

A traced run wraps public functions of ``repro`` modules (and the
benchmark's own phases) in spans.  Each span has an id, a name, its layer
(the ``repro`` module it times), start, end, the parent span open in
the same thread, and the thread.  Spans stay in memory and are written
out when the run ends.  A layer's self time is its spans' durations
minus the part covered by their child spans.

Wrapping replaces a module attribute for the traced run only;
:meth:`SpanRecorder.restore` puts every original back.
"""

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name, layer, **attrs):
        stack = self._stack()
        record = {
            "id": next(self._ids),
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "layer": layer,
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
            "end": None,
        }
        record.update(attrs)
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def wrap(self, fn, name, layer, on_result=None):
        """``fn`` timed in a span; ``on_result(record, result)`` may add
        counts taken from the returned value."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(name, layer) as record:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(record, result)
                return result

        return timed

    def patch(self, target, attr, name, layer, on_result=None):
        """Wrap ``target.attr`` (or ``target[attr]`` for a dict)."""
        is_dict = isinstance(target, dict)
        original = target[attr] if is_dict else getattr(target, attr)
        wrapped = self.wrap(original, name, layer, on_result)
        if is_dict:
            target[attr] = wrapped
        else:
            setattr(target, attr, wrapped)
        self._patched.append((target, attr, original, is_dict))

    def restore(self):
        while self._patched:
            target, attr, original, is_dict = self._patched.pop()
            if is_dict:
                target[attr] = original
            else:
                setattr(target, attr, original)

    # -- summaries -------------------------------------------------------
    def named(self, name):
        return [span for span in self.spans if span["name"] == name]

    def total(self, name):
        return sum(span["end"] - span["start"] for span in self.named(name))

    def count(self, name, key):
        """Sum of the ``key`` counts recorded on spans called ``name``."""
        return sum(span.get(key, 0) for span in self.named(name))

    def self_times(self):
        """``{layer: seconds}`` of span time not covered by children."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        layers = defaultdict(float)
        for span in self.spans:
            layers[span["layer"]] += span["end"] - span["start"] - child_time[span["id"]]
        return dict(layers)

    def summary(self):
        names = defaultdict(lambda: {"count": 0, "seconds": 0.0})
        for span in self.spans:
            entry = names[f"{span['layer']}:{span['name']}"]
            entry["count"] += 1
            entry["seconds"] += span["end"] - span["start"]
        return {"self_seconds": self.self_times(), "spans": dict(names)}

    def write(self, path, extra=None):
        origin = min((span["start"] for span in self.spans), default=0.0)
        spans = [
            dict(span, start=span["start"] - origin, end=span["end"] - origin)
            for span in sorted(self.spans, key=lambda s: s["start"])
        ]
        document = dict(extra or {}, summary=self.summary(), spans=spans)
        with open(path, "w") as handle:
            json.dump(document, handle, indent=1, sort_keys=True, default=str)
            handle.write("\n")
