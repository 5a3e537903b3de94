"""Outside-in tracer for the benchmark's traced run.

The tracer never edits the library. It replaces, for the duration of a
traced phase, the bindings that callers actually look up: a module-level
function is patched in its defining module and in every other ``drrho``
module (or re-export) that holds the same object under some name, and a
method is patched on its class. Each call through a patched binding records
one span (name, start, end, parent) in memory; spans are written out only
when the run ends.

A target that does not exist at the commit under test is skipped and listed
in ``Tracer.missing`` instead of raising, so later changes that fuse or
delete internal functions never break the traced run.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name: str, start: float, end: float, parent: int, attrs: dict | None = None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent  # index of the enclosing span, -1 for a root
        self.attrs = attrs if attrs is not None else {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the benchmark's own code."""
        span = self._open(name)
        span.attrs.update(attrs)
        try:
            yield span
        finally:
            self._close(span)

    def _wrapper(self, name: str, fn, annotate):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if annotate is not None:
                span.attrs.update(annotate(args, kwargs, result))
            return result

        return traced

    # -- patching --------------------------------------------------------

    def wrap(self, target: str, annotate=None) -> bool:
        """Patch ``"pkg.module:func"`` or ``"pkg.module:Class.method"``.

        The span name is ``<last module component>.<qualname>``. Returns
        False, and records the target in ``missing``, when it is absent.
        """
        module_name, qualname = target.split(":")
        name = f"{module_name.rsplit('.', 1)[-1]}.{qualname}"
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            self.missing.append(target)
            return False
        owner_path, _, attr = qualname.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
            if owner is None:
                self.missing.append(target)
                return False
        if owner is module:
            original = getattr(module, attr, None)
        else:
            original = vars(owner).get(attr)
        if not callable(original):
            self.missing.append(target)
            return False
        wrapped = self._wrapper(name, original, annotate)
        if owner is not module:
            self._patch(owner, attr, original, wrapped)
            return True
        package = module_name.split(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, binding, original, wrapped)
        return True

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def install(self, targets) -> None:
        """Wrap each ``(target, annotate)`` pair; absent targets are listed."""
        for target, annotate in targets:
            self.wrap(target, annotate)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def dump(self, path: str | Path) -> None:
        """Write every span as one JSON line (name, start, end, parent, attrs)."""
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps([s.name, s.start, s.end, s.parent, s.attrs], default=str) + "\n")


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans nest strictly (one thread, parents opened before children), so
    the direct children of a span are disjoint sub-intervals of it.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, covered)]


def nearest_ancestor(spans: list[Span], predicate) -> list[int]:
    """For each span, the index of its closest proper ancestor satisfying
    predicate, or -1. Parents always precede their children in the list."""
    out = [-1] * len(spans)
    for i, s in enumerate(spans):
        p = s.parent
        if p >= 0:
            out[i] = p if predicate(spans[p]) else out[p]
    return out


def roots(spans: list[Span]) -> list[int]:
    """For each span, the index of its root span (itself if it is a root)."""
    out = list(range(len(spans)))
    for i, s in enumerate(spans):
        if s.parent >= 0:
            out[i] = out[s.parent]
    return out
