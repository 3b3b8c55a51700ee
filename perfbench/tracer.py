"""In-memory span tracer that times calls into labelrnn from outside.

The tracer never edits the package's source. It replaces every binding of a
target function: the attribute in its defining module, each `from ... import`
copy in the other labelrnn modules, and, for methods, the class attribute.
Each call then records one span (name, start, end, parent). Spans stay in
memory in flat arrays until the run ends.

Also home to the nearest-rank percentile, the tail rule and the
slow-side rule the benchmark reports, so the tests can check them on hand-built
data.
"""

import functools
import sys
from array import array

# Percentiles the tail rule chooses from, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10
# A reported time metric is the round at this percentile, counted from the
# best end of the run's rounds: p85 of times, p15 of rates.
SLOW_SIDE = 85.0


class Tracer:
    """Collects nested spans for one thread; parent -1 marks a root span."""

    def __init__(self, clock):
        self.clock = clock
        self.names = []
        self._ids = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {}
        self._stack = []
        self._restore = []

    def _intern(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def __len__(self):
        return len(self.start)

    def wrap(self, name, fn, count=None):
        """Return fn timed as span `name`; count(args) adds to counters[name]."""
        nid = self._intern(name)
        stack, clock = self._stack, self.clock
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        counters = self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            if count is not None:
                counters[name] = counters.get(name, 0) + count(args)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return traced

    def install(self, package, targets, counts=None):
        """Wrap each "module.func" or "module.Class.method" under package.

        Every module of the package that holds the same function object under
        any attribute name gets the wrapper, so calls through `from ... import`
        bindings are timed too. uninstall() puts the originals back.
        """
        counts = counts or {}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for target in targets:
            parts = target.split(".")
            owner = sys.modules[f"{package}.{parts[0]}"]
            for part in parts[1:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            wrapper = self.wrap(target, original, counts.get(target))
            if isinstance(owner, type):
                self._rebind(owner, parts[-1], wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, attr, wrapper)

    def _rebind(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def self_times(start, end, parent):
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to the parent's interval and overlapping children are
    merged, so the result never counts a covered instant twice.
    """
    n = len(start)
    children = {}
    for i in range(n):
        if parent[i] >= 0:
            children.setdefault(parent[i], []).append(i)
    out = [end[i] - start[i] for i in range(n)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        intervals = sorted((max(start[k], lo), min(end[k], hi)) for k in kids)
        covered = 0.0
        cur_s = cur_e = None
        for s, e in intervals:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def aggregate(tracer, lo, hi, self_s):
    """Per-name (self seconds, calls) over spans lo..hi-1."""
    totals = {}
    for i in range(lo, hi):
        name = tracer.names[tracer.name_id[i]]
        s, c = totals.get(name, (0.0, 0))
        totals[name] = (s + self_s[i - lo], c + 1)
    return totals


def nested_share(tracer, lo, hi, outer, inner):
    """Time in `inner` spans under `outer` spans, over `outer` time.

    An inner span counts only when no other inner span lies between it and
    its outer ancestor, so nested inner calls are not counted twice.
    """
    ids = tracer.name_id
    outer_ids = {tracer._ids[n] for n in outer if n in tracer._ids}
    inner_ids = {tracer._ids[n] for n in inner if n in tracer._ids}
    outer_time = inner_time = 0.0
    for i in range(lo, hi):
        if ids[i] in outer_ids:
            outer_time += tracer.end[i] - tracer.start[i]
        elif ids[i] in inner_ids:
            p = tracer.parent[i]
            while p >= 0 and ids[p] not in outer_ids and ids[p] not in inner_ids:
                p = tracer.parent[p]
            if p >= 0 and ids[p] in outer_ids:
                inner_time += tracer.end[i] - tracer.start[i]
    return inner_time / outer_time if outer_time > 0 else 0.0


def _rank(p, n):
    """ceil(p/100 * n), at least 1, in integers so that 99.9% of 10000 is 9990."""
    hundredths = round(p * 100)
    return max(1, (hundredths * n + 9999) // 10000)


def percentile(samples, p):
    """Nearest-rank percentile: the value at rank ceil(p/100 * n), 1-based."""
    ordered = sorted(samples)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(n):
    """Highest percentile of TAIL_LADDER with at least ten samples beyond it.

    Returns (percentile, samples beyond it); falls back to the median when n
    is too small for any rung.
    """
    best = TAIL_LADDER[0], n - _rank(TAIL_LADDER[0], n)
    for p in TAIL_LADDER[1:]:
        if n - _rank(p, n) >= TAIL_MIN_BEYOND:
            best = p, n - _rank(p, n)
    return best


def slow_side(samples, better):
    """The sample at SLOW_SIDE from the best end, better "lower" or "higher".

    Ranks are counted from the best end in both directions, so 20 samples
    give the fourth worst either way.
    """
    sign = 1.0 if better == "lower" else -1.0
    return sign * percentile([sign * x for x in samples], SLOW_SIDE)
