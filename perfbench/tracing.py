"""In-memory span tracer for the traced benchmark run.

A span is [name, layer, start, end, parent, item, label]: name is
"<layer>.<function>", layer is the mbgf module the function comes from
(or "bench" for the benchmark's own item spans), parent is the index of
the enclosing span (-1 at the top), item is the id of the workload item
being run and label is an optional tag (the suite name of a verify
span).  Spans stay in a list until the run ends.

Only public functions are wrapped, and only by rebinding module
attributes inside `patched`, which restores the originals on exit: the
untimed process state is never changed outside a traced pass.
"""

import inspect
import time
from collections import Counter
from contextlib import contextmanager

NAME, LAYER, START, END, PARENT, ITEM, LABEL = range(7)


def layer_of(fn):
    return fn.__module__.rsplit(".", 1)[-1]


class Tracer:
    """Collects spans, per-binding call counts and per-call notes."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.item = None
        self.calls = Counter()
        self.flow_calls = []      # (mode, problem alias, steps, records, seconds, fixed point)
        self.discrete_calls = []  # (iterates, seconds)

    def wrap(self, binding, fn, note=None):
        """Wrapper of fn that records one span per call.

        note(tracer, span, args, kwargs, result) runs after the call, so
        its own time is outside the span.
        """
        layer = layer_of(fn)
        name = f"{layer}.{fn.__name__}"
        spans, stack, calls = self.spans, self.stack, self.calls
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[binding] += 1
            span = [name, layer, clock(), 0.0,
                    stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if note is not None:
                note(self, span, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def item_span(self, item_id):
        """Root span of one workload item, in the "bench" layer."""
        self.item = item_id
        span = ["bench.item", "bench", time.perf_counter(), 0.0, -1,
                item_id, None]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span[END] = time.perf_counter()
            self.stack.pop()
            self.item = None


def public_functions(module):
    """(attribute, function) for every public function bound in module
    that comes from the mbgf package."""
    out = []
    for attr, obj in sorted(vars(module).items()):
        if attr.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__.startswith("mbgf."):
            out.append((attr, obj))
    return out


@contextmanager
def patched(tracer, bindings, notes):
    """Rebind each (module, attribute) in bindings to a traced wrapper.

    notes maps a function name to its note callback.  The originals are
    restored on exit, also when the body raises.
    """
    saved = []
    try:
        for module, attr in bindings:
            fn = getattr(module, attr)
            binding = f"{module.__name__}.{attr}"
            tracer.calls.setdefault(binding, 0)
            saved.append((module, attr, fn))
            setattr(module, attr,
                    tracer.wrap(binding, fn, notes.get(fn.__name__)))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# -- notes: counts the per-layer metrics need from a call's arguments ------

def _alias(p):
    from mbgf.cli import PROBLEM_ALIASES
    for alias, name in PROBLEM_ALIASES.items():
        if name == p.name:
            return alias
    return p.name


def _argument(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def note_flow(tracer, span, args, kwargs, tr):
    p = _argument(args, kwargs, 0, "p")
    cfg = _argument(args, kwargs, 3, "cfg")
    steps = int(round((cfg.t_end - cfg.t0) / cfg.dt))
    fixed = bool((tr.crit_scaled == 0.0).all())
    tracer.flow_calls.append((tr.mode, _alias(p), steps, len(tr),
                              span[END] - span[START], fixed))


def note_discrete(tracer, span, args, kwargs, seq):
    tracer.discrete_calls.append((len(seq), span[END] - span[START]))


def note_suite(tracer, span, args, kwargs, report):
    span[LABEL] = report["suite"]


NOTES = {
    "integrate_first_order": note_flow,
    "integrate_accelerated": note_flow,
    "run_discrete": note_discrete,
    "run_suite": note_suite,
}


def self_times(spans):
    """Per-span self time: duration minus the time of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]
