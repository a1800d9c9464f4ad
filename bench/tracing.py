"""Spans and per-caller call counters for the traced run.

Nothing in the program is changed on disk: for the duration of a traced
block the benchmark replaces the cross-module names that ``davis``,
``involution`` and ``probe`` look up at call time with timing wrappers, and
puts the originals back afterwards.  Cold calls get one span each; hot
calls (``multiply``, ``conjugate``, clique enumeration) only add to a
counter keyed by the callee, the calling module and the root span.  A
span's self time is its duration minus the time of its direct children,
spans and hot calls alike.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Span:
    __slots__ = ("name", "root", "start", "end", "child_s", "count")

    def __init__(self, name: str, root: str, start: float):
        self.name = name
        self.root = root
        self.start = start
        self.end = start
        self.child_s = 0.0
        self.count = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        #: (callee, root span name) -> [calls, seconds]
        self.hot: dict[tuple[str, str | None], list] = {}
        self._stack: list[Span] = []

    @contextmanager
    def span(self, name: str):
        stack = self._stack
        s = Span(name, stack[0].name if stack else name, perf_counter())
        stack.append(s)
        self.spans.append(s)
        try:
            yield s
        finally:
            s.end = perf_counter()
            stack.pop()
            if stack:
                stack[-1].child_s += s.seconds

    def spanned(self, name: str, count=None):
        """Decorator: every call is a span; ``count(result)`` is kept."""

        def wrap(fn):
            def wrapper(*args, **kwargs):
                with self.span(name) as s:
                    result = fn(*args, **kwargs)
                    if count is not None:
                        s.count = count(result)
                    return result

            return wrapper

        return wrap

    def counted(self, name: str):
        """Decorator: calls only add to a counter keyed by the root span."""
        stack, hot = self._stack, self.hot

        def wrap(fn):
            def wrapper(*args, **kwargs):
                start = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = perf_counter() - start
                    key = (name, stack[0].name if stack else None)
                    record = hot.get(key)
                    if record is None:
                        record = hot[key] = [0, 0.0]
                    record[0] += 1
                    record[1] += elapsed
                    if stack:
                        stack[-1].child_s += elapsed

            return wrapper

        return wrap

    @contextmanager
    def installed(self):
        """Wrap the program's cross-module lookups for the block's duration."""
        from rcoxeter import davis, involution, probe

        hot, span = self.counted, self.spanned
        targets = [
            (davis, "multiply", hot("words.multiply@davis")),
            (davis, "all_cliques", hot("spherical.all_cliques@davis")),
            (davis, "maximum_spherical", hot("spherical.maximum_spherical@davis")),
            (davis, "Ball", span("davis.Ball")),
            (involution, "conjugate", hot("words.conjugate@involution")),
            (involution, "maximum_spherical", hot("spherical.maximum_spherical@involution")),
            (involution, "invariant_cubes", span("involution.invariant_cubes", count=len)),
            (probe, "conjugate", hot("words.conjugate@probe")),
            (probe, "maximum_spherical", hot("spherical.maximum_spherical@probe")),
            (probe, "build_ball", span("davis.build_ball")),
            (probe, "fixed_loci", span("involution.fixed_loci")),
            (probe, "displacement_profile", span("probe.displacement_profile")),
        ]
        originals = []
        try:
            for module, attr, wrap in targets:
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                setattr(module, attr, wrap(fn))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def find(self, name: str, root: str) -> list[Span]:
        return [s for s in self.spans if s.name == name and s.root == root]

    def seconds(self, name: str, root: str) -> float:
        return sum(s.seconds for s in self.find(name, root))

    def calls(self, prefix: str, root: str) -> tuple[int, float]:
        """Calls and seconds of every hot callee whose name starts with prefix."""
        calls, seconds = 0, 0.0
        for (name, key_root), (n, t) in self.hot.items():
            if key_root == root and name.startswith(prefix):
                calls += n
                seconds += t
        return calls, seconds
