#!/usr/bin/env python3
"""Critical-path analysis over GriddLeS causal traces.

Input is the Chrome trace-event JSON written by `workflow_cli --spans=`
or `bench_* --spans=` (src/obs/span.h): one complete "X" event per span
with `args.trace_id` / `args.span_id` / `args.parent_id` carrying the
causal links (rendered as strings so 64-bit ids survive JSON doubles).

The tool rebuilds the span DAG for one trace (by default the trace whose
root span covers the most wall time), then computes the *critical path*
with the classic walk-back: starting from the root's end, repeatedly
step to the child span that finishes last before the cursor; wall time
not covered by any child is attributed to the span itself ("self time").
The result is a set of [start, end) segments, each owned by exactly one
span, that tile the root's duration — so the segment sum always equals
the measured wall time of the run.

Each segment is then bucketed by the owning span's kind:

    compute      workflow, stage, schedule, other
    buffer-wait  buffer_wait
    network      open, copy, chunk, rpc
    retry        retry, failover, recovery

which answers the §5 question directly: of the run's wall time, how much
was computation, how much was blocked on Grid Buffer backpressure, how
much was moving bytes, and how much was burned on fault recovery.

`file` spans (one per File Multiplexer descriptor, open to close) are
counted but never walked: a descriptor's lifetime overlaps the rpc and
buffer-wait spans of the reads and writes made through it, so walking it
would hide them.

Usage:
    python3 tools/tracepath.py SPANS.json [--top K] [--json] [--trace ID]
    python3 tools/tracepath.py --self-test

`--json` prints a machine-readable report (embedded by the bench gate);
the default is a human top-K table. Exit status: 0 on success, 1 on a
malformed/empty trace file, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys

# Span kind -> wall-time bucket. Must cover every name produced by
# span_kind_name() in src/obs/span.h except "file", which is left out of
# the critical path (see link_children); unknown kinds land in compute
# so new instrumentation degrades the attribution, not the tool.
KIND_BUCKET = {
    "workflow": "compute",
    "stage": "compute",
    "schedule": "compute",
    "other": "compute",
    "buffer_wait": "buffer-wait",
    "open": "network",
    "copy": "network",
    "chunk": "network",
    "rpc": "network",
    "relay": "network",
    "retry": "retry",
    "failover": "retry",
    "recovery": "retry",
    "shed": "retry",
    "deadline_expired": "retry",
}

BUCKETS = ("compute", "buffer-wait", "network", "retry")


class Span:
    __slots__ = ("span_id", "parent_id", "trace_id", "name", "kind",
                 "start", "end", "tid", "args", "children", "self_us")

    def __init__(self, event):
        args = event.get("args", {})
        self.span_id = str(args.get("span_id", "0"))
        self.parent_id = str(args.get("parent_id", "0"))
        self.trace_id = str(args.get("trace_id", "0"))
        self.name = event.get("name", "?")
        self.kind = event.get("cat", "other")
        self.start = float(event.get("ts", 0.0))        # microseconds
        self.end = self.start + float(event.get("dur", 0.0))
        self.tid = event.get("tid", 0)
        self.args = args
        self.children = []
        self.self_us = 0.0  # critical-path time attributed to this span

    @property
    def dur(self):
        return self.end - self.start

    def bucket(self):
        return KIND_BUCKET.get(self.kind, "compute")


def load_events(path):
    """Parses a trace file; returns the traceEvents list or raises."""
    with (sys.stdin if path == "-" else open(path, encoding="utf-8")) as fh:
        doc = json.load(fh)
    if isinstance(doc, dict):
        events = doc.get("traceEvents", [])
    elif isinstance(doc, list):  # bare-array form is also valid Chrome JSON
        events = doc
    else:
        raise ValueError("trace file is neither an object nor an array")
    return [e for e in events if e.get("ph") == "X"]


def build_traces(events):
    """Groups complete spans by trace_id -> {span_id: Span}."""
    traces = {}
    for event in events:
        span = Span(event)
        if span.trace_id == "0" or span.span_id == "0":
            continue
        traces.setdefault(span.trace_id, {})[span.span_id] = span
    return traces


def link_children(spans):
    """Wires up children lists; returns the roots (no parent in-trace).

    A `file` span is neither a child nor a root: it is a descriptor's
    lifetime, overlapping the work done through it.
    """
    roots = []
    for span in spans.values():
        if span.kind == "file":
            continue
        parent = spans.get(span.parent_id)
        if parent is not None and parent is not span:
            parent.children.append(span)
        else:
            roots.append(span)
    for span in spans.values():
        span.children.sort(key=lambda s: s.end)
    return sorted(roots, key=lambda s: s.dur, reverse=True)


def walk_back(span, cursor, segments, depth=0):
    """Attributes [span.start, cursor) across span and its children.

    Walks the cursor backwards from `cursor`: the latest-ending child
    under the cursor takes over (recursively), gaps between children
    belong to `span` itself. Every emitted segment is (start, end, span),
    and the segments exactly tile [span.start, cursor).
    """
    if depth > 400:  # defence against cyclic parent links in bad input
        segments.append((span.start, cursor, span))
        return
    remaining = [c for c in span.children if c.start < cursor]
    while cursor > span.start:
        under = [c for c in remaining if min(c.end, cursor) > c.start]
        if not under:
            segments.append((span.start, cursor, span))
            break
        child = max(under, key=lambda c: min(c.end, cursor))
        child_end = min(child.end, cursor)
        if child_end < cursor:
            segments.append((child_end, cursor, span))
        walk_back(child, child_end, segments, depth + 1)
        cursor = max(child.start, span.start)
        remaining.remove(child)


def analyze(spans, root):
    """Critical path for one root span; returns the report dict."""
    segments = []
    walk_back(root, root.end, segments)
    for start, end, span in segments:
        span.self_us += end - start
    buckets = {bucket: 0.0 for bucket in BUCKETS}
    for start, end, span in segments:
        buckets[span.bucket()] += end - start
    total_us = sum(end - start for start, end, _ in segments)
    contributors = sorted((s for s in spans.values() if s.self_us > 0),
                          key=lambda s: s.self_us, reverse=True)
    return {
        "trace_id": root.trace_id,
        "root": root.name,
        "wall_s": root.dur / 1e6,
        "critical_path_s": total_us / 1e6,
        "span_count": len(spans),
        "buckets_s": {k: v / 1e6 for k, v in buckets.items()},
        "top": [
            {
                "name": span.name,
                "kind": span.kind,
                "bucket": span.bucket(),
                "self_s": span.self_us / 1e6,
                "total_s": span.dur / 1e6,
            }
            for span in contributors
        ],
    }


def print_report(report, top_k):
    print(f"trace {report['trace_id']}: {report['root']}")
    print(f"  wall time          {report['wall_s']:.6f} s "
          f"({report['span_count']} spans)")
    print(f"  critical path      {report['critical_path_s']:.6f} s")
    for bucket in BUCKETS:
        seconds = report["buckets_s"][bucket]
        if report["critical_path_s"] > 0:
            share = 100.0 * seconds / report["critical_path_s"]
        else:
            share = 0.0
        print(f"    {bucket:<12} {seconds:>12.6f} s  {share:5.1f}%")
    print(f"  top {min(top_k, len(report['top']))} critical-path spans:")
    for entry in report["top"][:top_k]:
        print(f"    {entry['self_s']:>10.6f} s  [{entry['kind']}] "
              f"{entry['name']}")


# ---------------------------------------------------------------------------
# Self-test: a hand-built trace with a known critical path.
#
# Layout (times in microseconds; trace 1):
#   workflow [0, 1000)
#     stage A [0, 400)
#       rpc [100, 300)
#         retry [150, 250)
#     stage B [400, 1000)            (sequential after A)
#       buffer_wait [500, 900)
#       chunk [450, 480)             (overlaps, ends before the wait)
#
# Walk-back from 1000: stage B owns the [900,1000) gap, the wait owns
# [500,900), chunk owns [450,480) with stage B taking the [480,500) gap
# and its own [400,450) lead-in. Inside stage A: A owns [300,400) and
# [0,100), the rpc owns [250,300) and [100,150), the retry leaf owns all
# of [150,250). Expected buckets: compute = A(200) + B(170) = 370;
# buffer-wait = 400; network = rpc(100) + chunk(30) = 130; retry = 100.
# Segments tile [0,1000) exactly, so they sum to the root's wall time.
# ---------------------------------------------------------------------------

def _event(name, cat, ts, dur, span_id, parent_id, tid=1):
    return {
        "name": name, "cat": cat, "ph": "X", "ts": ts, "dur": dur,
        "pid": 1, "tid": tid,
        "args": {"trace_id": "1", "span_id": str(span_id),
                 "parent_id": str(parent_id)},
    }


SELF_TEST_EVENTS = [
    _event("workflow:selftest", "workflow", 0, 1000, 10, 0),
    _event("stage:a", "stage", 0, 400, 11, 10),
    _event("rpc:read", "rpc", 100, 200, 12, 11),
    _event("rpc.retry:a>b", "retry", 150, 100, 13, 12),
    _event("stage:b", "stage", 400, 600, 14, 10, tid=2),
    _event("gbuf.read_wait:pipe", "buffer_wait", 500, 400, 15, 14, tid=2),
    _event("chunk.fetch:/d", "chunk", 450, 30, 16, 14, tid=3),
]


def self_test():
    traces = build_traces(SELF_TEST_EVENTS)
    assert len(traces) == 1, "expected one trace"
    spans = traces["1"]
    roots = link_children(spans)
    assert len(roots) == 1 and roots[0].name == "workflow:selftest"
    report = analyze(spans, roots[0])

    def expect(label, got, want):
        assert abs(got - want) < 1e-9, f"{label}: got {got}, want {want}"

    expect("critical path == wall", report["critical_path_s"],
           report["wall_s"])
    expect("wall", report["wall_s"], 1000 / 1e6)
    expect("compute", report["buckets_s"]["compute"], 370 / 1e6)
    expect("buffer-wait", report["buckets_s"]["buffer-wait"], 400 / 1e6)
    expect("network", report["buckets_s"]["network"], 130 / 1e6)
    expect("retry", report["buckets_s"]["retry"], 100 / 1e6)
    top = report["top"]
    assert top[0]["name"] == "gbuf.read_wait:pipe", top[0]
    expect("top self", top[0]["self_s"], 400 / 1e6)

    # Round-trip through the JSON serializer the way CI consumes it.
    doc = json.loads(json.dumps({"displayTimeUnit": "ms",
                                 "traceEvents": SELF_TEST_EVENTS}))
    spans2 = build_traces(doc["traceEvents"])["1"]
    roots2 = link_children(spans2)
    report2 = analyze(spans2, roots2[0])
    assert report2 == report, "JSON round-trip changed the report"

    # A descriptor's file span over the whole run, and one over stage B's
    # wait, must leave the critical path and every bucket unchanged.
    with_files = SELF_TEST_EVENTS + [
        _event("file:/d/IN.DAT", "file", 0, 1000, 17, 10),
        _event("file:/d/OUT.DAT", "file", 420, 560, 18, 14, tid=2),
    ]
    spans3 = build_traces(with_files)["1"]
    roots3 = link_children(spans3)
    assert [r.name for r in roots3] == ["workflow:selftest"], roots3
    report3 = analyze(spans3, roots3[0])
    assert report3["span_count"] == len(spans) + 2
    for key in ("critical_path_s", "wall_s", "buckets_s", "top"):
        assert report3[key] == report[key], f"file span changed {key}"

    # An untraced event (trace_id 0) must be ignored, not crash.
    noisy = SELF_TEST_EVENTS + [_event("orphan", "rpc", 0, 10, 0, 0)]
    assert len(build_traces(noisy)["1"]) == len(spans)

    print("tracepath self-test OK")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("spans", nargs="?", help="Chrome trace JSON "
                        "from --spans= ('-' reads stdin)")
    parser.add_argument("--top", type=int, default=10, metavar="K",
                        help="rows in the top-span table (default 10)")
    parser.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    parser.add_argument("--trace", metavar="ID",
                        help="analyze this trace_id instead of the longest")
    parser.add_argument("--self-test", action="store_true",
                        help="run the built-in golden-trace check")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test()
    if not args.spans:
        parser.error("a spans file is required (or --self-test)")

    try:
        events = load_events(args.spans)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"tracepath: cannot read {args.spans}: {error}",
              file=sys.stderr)
        return 1

    traces = build_traces(events)
    if not traces:
        print("tracepath: no complete spans in input", file=sys.stderr)
        return 1

    if args.trace is not None:
        if args.trace not in traces:
            print(f"tracepath: trace {args.trace} not found "
                  f"(have: {', '.join(sorted(traces))})", file=sys.stderr)
            return 1
        chosen = [args.trace]
    else:
        # A trace rooted in a workflow span wins (that is the run);
        # among those, the longest. Standalone traces — a scheduler
        # search or background RPC that minted its own root — only
        # surface when no workflow trace exists or via --trace.
        def root_rank(trace_id):
            spans = traces[trace_id]
            roots = link_children(spans)
            if not roots:
                return (0, 0.0)
            return (1 if roots[0].kind == "workflow" else 0, roots[0].dur)
        chosen = [max(traces, key=root_rank)]
        # link_children already ran above; rebuild cleanly below.
        for spans in traces.values():
            for span in spans.values():
                span.children = []

    reports = []
    for trace_id in chosen:
        spans = traces[trace_id]
        roots = link_children(spans)
        if not roots:
            continue
        reports.append(analyze(spans, roots[0]))

    if not reports:
        print("tracepath: no analyzable roots", file=sys.stderr)
        return 1

    if args.json:
        out = reports[0] if len(reports) == 1 else reports
        json.dump(out, sys.stdout, indent=2, sort_keys=True)
        print()
    else:
        for report in reports:
            print_report(report, args.top)
    return 0


if __name__ == "__main__":
    sys.exit(main())
