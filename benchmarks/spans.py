"""In-memory span recorder that wraps library functions from outside.

The package imports with ``from .x import y``, so a function is reached
through every module that imported it.  ``Tracer.install`` replaces the
function in each such module (and, for a method, under every name the
class binds it to) and ``Tracer.remove`` puts the originals back.

A span is ``[name, start, end, parent index, operation id]``; spans stay
in memory until ``write``.  Counted-only targets add to ``counts`` and
record no span.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter


class Target:
    """One function to wrap: ``attr`` may be ``Class.method``.

    ``kind`` is ``"span"`` (timed, recorded) or ``"count"`` (call count
    only).  ``measure`` maps the call's arguments to extra counters.
    """

    __slots__ = ("name", "module", "attr", "kind", "measure")

    def __init__(self, name, module, attr, kind="span", measure=None):
        self.name = name
        self.module = module
        self.attr = attr
        self.kind = kind
        self.measure = measure


class Tracer:
    def __init__(self, scan_modules=()):
        self.spans = []
        self.counts = Counter()
        self.op_id = None
        self._stack = []
        self._restore = []
        self._scan = tuple(scan_modules)

    # -- wrapping ---------------------------------------------------------

    def _span_wrapper(self, target, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        name, measure = target.name, target.measure
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if measure is not None:
                counts.update(measure(*args, **kwargs))
            rec = [name, clock(), 0.0, stack[-1] if stack else -1,
                   self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
        return wrapper

    def _count_wrapper(self, target, fn):
        counts, name = self.counts, target.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _rebind(self, owner, original, wrapped):
        for key, value in list(vars(owner).items()):
            if value is original:
                setattr(owner, key, wrapped)
                self._restore.append((owner, key, original))

    def install(self, targets):
        """Wrap every target wherever it is bound."""
        for target in targets:
            module = importlib.import_module(target.module)
            owner_name, _, fn_name = target.attr.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else None
            original = getattr(owner or module, fn_name)
            make = self._span_wrapper if target.kind == "span" \
                else self._count_wrapper
            wrapped = make(target, original)
            if owner is not None:
                self._rebind(owner, original, wrapped)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is not None and (
                        mod_name.split(".")[0] == target.module.split(".")[0]
                        or mod_name in self._scan):
                    self._rebind(mod, original, wrapped)
        return self

    def remove(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- reading spans ----------------------------------------------------

    def calls(self, name):
        return sum(1 for s in self.spans if s[0] == name)

    def inclusive_s(self, name):
        """Time inside `name`, counting a call nested in another call of
        the same name once."""
        spans = self.spans
        total = 0.0
        for s in spans:
            if s[0] != name:
                continue
            p = s[3]
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                total += s[2] - s[1]
        return total

    def self_s(self, name, excluded):
        """Time inside `name` minus the time its descendants named in
        `excluded` cover."""
        spans = self.spans
        total = self.inclusive_s(name)
        for s in spans:
            if s[0] not in excluded:
                continue
            p = s[3]
            while p >= 0:
                pname = spans[p][0]
                if pname in excluded:
                    break
                if pname == name:
                    total -= s[2] - s[1]
                    break
                p = spans[p][3]
        return total

    def share_without_child(self, name, child):
        """Share of `name` calls that made no direct `child` call; 0 when
        `name` was never called."""
        spans = self.spans
        parents = [i for i, s in enumerate(spans) if s[0] == name]
        if not parents:
            return 0.0
        with_child = {s[3] for s in spans if s[0] == child}
        return sum(1 for i in parents if i not in with_child) / len(parents)

    def write(self, path, **header):
        with open(path, "w") as fh:
            json.dump(dict(header, counts=dict(self.counts),
                           spans=self.spans), fh)
