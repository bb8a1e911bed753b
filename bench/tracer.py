"""Spans and call counts recorded around vudlmp's public functions.

The program itself is not instrumented.  Instead each traced function is
replaced, for the length of a traced pass, in every ``vudlmp`` module
namespace that holds it (``vudlmp.cli.solve``, ``vudlmp.dlmp.solve_pf``, ...)
and on the classes whose methods are traced, so no call escapes through an
imported name.  Spans carry the id of the span that was open when they
started; a span's self time is its duration minus that of its children.
Spans stay in memory and are written to a side file when the run ends.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import Counter


class Proxy:
    """Stand-in for a module: selected attributes replaced, the rest forwarded."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent id, name, t0, t1, attrs)
        self.counts = Counter()  # count-only wrappers
        self._stack = []
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def span(self, name, fn, note=None):
        """Wrap ``fn`` so each call records a span; ``note`` adds attributes."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (sid, parent, name, t0, t1, None)
            if note is not None:
                spans[sid] = (sid, parent, name, t0, t1, note(args, kwargs, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching ------------------------------------------------------------

    def replace_attr(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap_everywhere(self, fn, make_wrapper):
        """Wrap ``fn`` in every loaded ``vudlmp`` module that names it.

        A name already wrapped around ``fn`` (``__wrapped__`` chain) is
        wrapped again, so earlier wrappers keep working underneath.
        """
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "vudlmp" or modname.startswith("vudlmp.")):
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and inspect.unwrap(value) is fn:
                    self.replace_attr(mod, attr, make_wrapper(value))
                    hits += 1
        if not hits:
            raise LookupError(f"{fn.__qualname__} is not named by any vudlmp module")

    def proxy(self, owner, attr, **overrides):
        """Replace module ``owner.attr`` by a proxy with some names wrapped."""
        self.replace_attr(owner, attr, Proxy(getattr(owner, attr), **overrides))

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def self_times(spans):
    """Total self time (duration minus direct children) per span name."""
    child = Counter()
    for _, parent, _, t0, t1, _ in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    out = Counter()
    for sid, _, name, t0, t1, _ in spans:
        out[name] += (t1 - t0) - child[sid]
    return out


def write_spans(path, passes):
    """One JSON object per span of ``passes``, a list of (pass number, spans)."""
    with open(path, "w", encoding="utf-8") as fh:
        for number, spans in passes:
            for sid, parent, name, t0, t1, attrs in spans:
                rec = {"pass": number, "id": sid, "parent": parent, "name": name,
                       "t0": t0, "t1": t1}
                if attrs:
                    rec["attrs"] = attrs
                fh.write(json.dumps(rec) + "\n")
