"""Arithmetic of the benchmark: percentiles, error accounting, EXPLAIN
trees and trace coverage. Pure functions, tested by test_tixbench.py."""

import math
import re

# A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def _rank(p, n):
    """1-based nearest rank of percentile p among n samples. Rounded
    first so that 99.9% of 10000 is rank 9990, not 9991."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(sorted_values, p):
    """Nearest-rank percentile of an ascending list (p in (0, 100])."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[_rank(p, len(sorted_values)) - 1]


def supports(n, p):
    """Whether `n` samples leave at least MIN_BEYOND beyond percentile p."""
    return n - _rank(p, n) >= MIN_BEYOND


def latency_summary(latencies_ms, failed, tail_p):
    """p50 and the tail_p-th percentile latency over every attempted op.

    tail_p is fixed by the caller, so two runs always compare the same
    percentile; "supported" says whether the sample backs it.

    A failed or refused op has no latency: it counts as missing every
    limit, i.e. as an infinitely slow sample, so failures push the
    percentiles up instead of silently shrinking the sample.
    """
    samples = sorted(latencies_ms) + [math.inf] * failed
    n = len(samples)
    if n == 0:
        return {"count": 0, "p50_ms": math.inf, "tail_p": tail_p, "tail_ms": math.inf,
                "supported": False}
    return {
        "count": n,
        "p50_ms": percentile(samples, 50.0),
        "tail_p": tail_p,
        "tail_ms": percentile(samples, tail_p),
        "supported": supports(n, tail_p),
    }


class Outcomes:
    """Per-op accounting: every attempted op ends ok, failed, refused or
    wrong. Only ok ops contribute a latency."""

    def __init__(self):
        self.latencies_ms = []
        self.failed = 0
        self.refused = 0
        self.wrong = 0

    def ok(self, latency_ms):
        self.latencies_ms.append(latency_ms)

    def fail(self):
        self.failed += 1

    def refuse(self):
        self.refused += 1

    def mark_wrong(self):
        """A completed op whose answer verification rejected."""
        self.wrong += 1

    def merge(self, other):
        self.latencies_ms += other.latencies_ms
        self.failed += other.failed
        self.refused += other.refused
        self.wrong += other.wrong

    @property
    def attempted(self):
        return len(self.latencies_ms) + self.failed + self.refused

    @property
    def errors(self):
        return self.failed + self.refused + self.wrong

    @property
    def error_rate(self):
        return self.errors / self.attempted if self.attempted else 0.0

    def summary(self, tail_p):
        # A wrong answer still arrived, so it keeps its latency; failures
        # and refusals have none.
        return latency_summary(self.latencies_ms, self.failed + self.refused, tail_p)


_NODE = re.compile(r"^(?P<prefix>[|` ]*?(?:[|`]-- )?)(?P<name>[A-Za-z][^\[]*?)"
                   r"  \[(?P<ms>[0-9.]+) ms, rows=(?P<rows>\d+)\]$")
_COUNTER = re.compile(r"([a-z_]+)=(\d+)")


def parse_explain(text):
    """The EXPLAIN ANALYZE tree at the end of a QUERY_EXPLAIN response.

    Returns the root as {"name", "ms", "rows", "counters", "children"},
    or None when the response carries no tree.
    """
    start = text.rfind("\nQuery (")
    if start < 0:
        return None
    root, stack = None, []
    for line in text[start + 1:].splitlines():
        node = _NODE.match(line)
        if node:
            depth = len(node.group("prefix")) // 4
            entry = {"name": node.group("name").strip(),
                     "ms": float(node.group("ms")),
                     "rows": int(node.group("rows")),
                     "counters": {}, "children": []}
            del stack[depth:]
            if stack:
                stack[-1]["children"].append(entry)
            elif root is None:
                root = entry
            else:
                break
            stack.append(entry)
        elif stack and "=" in line:
            stack[-1]["counters"].update(
                (k, int(v)) for k, v in _COUNTER.findall(line))
    return root


def operator_ms(root, prefix):
    """Summed time of every node whose name starts with `prefix`."""
    total = 0.0
    stack = list(root["children"])
    while stack:
        node = stack.pop()
        if node["name"].startswith(prefix):
            total += node["ms"]
        else:
            stack.extend(node["children"])
    return total


def operator_counter(root, prefix, counter):
    """Summed `counter` of every node whose name starts with `prefix`."""
    total = 0
    stack = list(root["children"])
    while stack:
        node = stack.pop()
        if node["name"].startswith(prefix):
            total += node["counters"].get(counter, 0)
        else:
            stack.extend(node["children"])
    return total


def coverage(root, rtt_ms):
    """Share of a client round trip attributed to operator spans: the
    root's direct children (the layers below the server), over the RTT."""
    if rtt_ms <= 0:
        raise ValueError("round trip must be positive")
    return sum(child["ms"] for child in root["children"]) / rtt_ms


def windowed(events, start, seconds, windows):
    """Median over `windows` equal slices of [start, start + seconds) of
    each slice's throughput and of its p50 latency.

    `events` are (completion time, latency ms or None for a failed op).
    A slow spell on the host that covers less than half the slices moves
    neither median, while a change that slows every query moves both.
    """
    width = seconds / windows
    slices = [[] for _ in range(windows)]
    for t, ms in events:
        i = int((t - start) / width)
        if 0 <= i < windows:
            slices[i].append(math.inf if ms is None else ms)
    rates = [sum(1 for ms in s if ms != math.inf) / width for s in slices]
    p50s = [percentile(sorted(s), 50.0) for s in slices if s]
    return median(rates), median(p50s)


def median(values):
    values = sorted(values)
    if not values:
        return 0.0
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0
