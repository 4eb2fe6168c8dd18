"""Turns one perfbench run's raw report into metrics.

The perfbench binary writes report.json (scalars, texts, violations, and the
names of latency sample files of little-endian u64 nanoseconds) and, for
a traced run, spans.bin plus span_names.txt. This module computes the
end-to-end metrics of an untraced run and the per-layer metrics of a
traced run from them. Pure functions at the top are unit-tested in
test_summarize.py.
"""

import array
import json
import math
import os
import struct

# A reported percentile needs at least this many samples beyond it.
MIN_BEYOND = 10

SPAN_RECORD = struct.Struct("<6Q2I")


def percentile(values, q, min_beyond=MIN_BEYOND):
    """Linearly interpolated q-quantile (0 < q < 1) of `values`.

    Returns None when fewer than `min_beyond` samples lie beyond it, so a
    caller can say so instead of printing a number the sample does not
    support.
    """
    n = len(values)
    if n == 0 or n - math.ceil(q * n) < min_beyond:
        return None
    s = sorted(values)
    rank = q * (n - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, n - 1)
    return s[lo] + (s[hi] - s[lo]) * (rank - lo)


def covered_length(intervals, start, end):
    """Length of [start, end) covered by the union of `intervals`."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Maps span id -> self time: its duration minus the part of its
    interval that its child spans cover."""
    children = {}
    for sp in spans:
        if sp["parent"]:
            children.setdefault(sp["parent"], []).append(
                (sp["start"], sp["end"]))
    return {
        sp["id"]: (sp["end"] - sp["start"]) - covered_length(
            children.get(sp["id"], []), sp["start"], sp["end"])
        for sp in spans
    }


def read_spans(run_dir):
    path = os.path.join(run_dir, "spans.bin")
    names_path = os.path.join(run_dir, "span_names.txt")
    if not os.path.exists(path):
        return []
    with open(names_path) as f:
        names = f.read().split()
    spans = []
    with open(path, "rb") as f:
        data = f.read()
    for rec in SPAN_RECORD.iter_unpack(data):
        sid, parent, req, start, end, arg, name, thread = rec
        spans.append({"id": sid, "parent": parent, "req": req,
                      "start": start, "end": end, "arg": arg,
                      "name": names[name] if name < len(names) else "?",
                      "thread": thread})
    return spans


class Run:
    """One run's report directory."""

    def __init__(self, run_dir):
        self.dir = run_dir
        with open(os.path.join(run_dir, "report.json")) as f:
            rep = json.load(f)
        self.scalars = rep["scalars"]
        self.texts = rep["texts"]
        self.violations = rep["violations"]
        self._files = rep["samples"]
        self._cache = {}

    def samples(self, key):
        if key not in self._files:
            return []
        if key not in self._cache:
            a = array.array("Q")
            with open(os.path.join(self.dir, self._files[key]), "rb") as f:
                a.frombytes(f.read())
            self._cache[key] = a
        return self._cache[key]

    def scalar(self, key, default=None):
        return self.scalars.get(key, default)

    def rate(self, prefix):
        ops, secs = self.scalar(prefix + "ops"), self.scalar(prefix + "seconds")
        return ops / secs if ops and secs else None


class Metrics:
    """Collects metric values, units and the notes that explain gaps."""

    def __init__(self):
        self.values = {}
        self.notes = []

    def put(self, name, value, unit):
        if value is None:
            self.notes.append(f"{name}: not measured")
        else:
            self.values[name] = {"value": value, "unit": unit}

    def pct(self, name, samples, q, unit, scale):
        v = percentile(samples, q)
        if v is None:
            self.notes.append(
                f"{name}: too few samples for p{round(q * 100)} "
                f"({len(samples)}; needs {MIN_BEYOND} beyond it)")
            return None
        self.values[name] = {"value": v / scale, "unit": unit}
        return v

    def pct_or_mean(self, name, samples, q, unit, scale):
        """Per-layer figures: the percentile when the sample supports it,
        else the mean, and the output says which."""
        v = percentile(samples, q)
        if v is None and len(samples):
            v = sum(samples) / len(samples)
            self.notes.append(f"{name}: mean of {len(samples)} samples "
                              f"(too few for p{round(q * 100)})")
        if v is None:
            self.notes.append(f"{name}: not measured")
        else:
            self.values[name] = {"value": v / scale, "unit": unit}


class Pooled:
    """The end-to-end run's slices (one per set-up) taken together."""

    def __init__(self, run, workload):
        self.prefixes = []
        while run.scalar(f"{workload}.run{len(self.prefixes)}.ops") is not None:
            self.prefixes.append(f"{workload}.run{len(self.prefixes)}.")
        self.run = run

    def total(self, key):
        return sum(self.run.scalar(p + key, 0) for p in self.prefixes)

    def samples(self, key):
        out = []
        for p in self.prefixes:
            out.extend(self.run.samples(p + key))
        return out


def end_to_end(run, workload):
    """The untraced run's metrics (names as in BENCHMARK.json)."""
    m = Metrics()
    pooled = Pooled(run, workload)
    setups = run.samples(workload + ".setup")
    m.put("setup_s", percentile(setups, 0.5, 0) / 1e9 if setups else None,
          "s")
    secs = pooled.total("seconds")
    m.put("ops_per_s", pooled.total("ops") / secs if secs else None, "ops/s")
    m.put("peak_rss_mb", run.scalar(workload + ".peak_rss_kb", 0) / 1024 or None,
          "MiB")
    txn, op = pooled.samples("lat.txn"), pooled.samples("lat.op")
    m.pct("txn_p50_ms", txn, 0.50, "ms", 1e6)
    m.pct("txn_p90_ms", txn, 0.90, "ms", 1e6)
    m.pct("op_p50_ms", op, 0.50, "ms", 1e6)
    m.pct("op_p99_ms", op, 0.99, "ms", 1e6)
    # Shown beside the metrics, not part of BENCHMARK.json: they exist
    # on some workloads only.
    extra = Metrics()
    extra.pct("txn_p99_ms", txn, 0.99, "ms", 1e6)
    q = pooled.samples("lat.query")
    if q:
        extra.pct("query_p50_ms", q, 0.50, "ms", 1e6)
        extra.pct("query_p99_ms", q, 0.99, "ms", 1e6)
    ck = pooled.samples("lat.ckpt")
    if ck:
        extra.put("checkpoints", len(ck), "count")
        extra.put("checkpoint_mean_ms", sum(ck) / len(ck) / 1e6, "ms")
    attempted = int(pooled.total("attempted"))
    failed = int(pooled.total("failed"))
    extra.put("failed_op_share", failed / attempted if attempted else None,
              "ratio")
    return m, extra, attempted, failed


WORKLOADS = ("transfer", "lookup_ckpt", "embedded", "compiled")


def span_table(spans, selfs):
    """Per span name: count, p50 duration, p50 self time (ns); None where
    fewer than 20 spans support a p50."""
    by_name = {}
    for sp in spans:
        by_name.setdefault(sp["name"], []).append(sp)
    rows = []
    for name in sorted(by_name):
        group = by_name[name]
        durs = [sp["end"] - sp["start"] for sp in group]
        own = [selfs[sp["id"]] for sp in group]
        rows.append((name, len(group), percentile(durs, 0.5),
                     percentile(own, 0.5)))
    return rows


def per_layer(run):
    """The traced run's per-layer metrics (names as in BENCHMARK.json)."""
    m = Metrics()
    spans = read_spans(run.dir)
    selfs = self_times(spans)
    named = {}
    for sp in spans:
        named.setdefault(sp["name"], []).append(sp)

    def durs(name):
        return [sp["end"] - sp["start"] for sp in named.get(name, [])]

    s = run.samples
    sc = run.scalar
    m.pct_or_mean("server.ping_rtt_us", s("transfer.ping"), 0.5, "us", 1e3)
    # Client transfer p50 (traced transfer slice) minus the socket-free
    # GroupCommit replay's submit -> Done p50: sockets, framing, dispatch.
    commit = percentile(s("groupcommit.commit"), 0.5)
    client_txn = percentile(s("transfer.traced.lat.txn"), 0.5)
    m.put("server.rtt_excess_us",
          (client_txn - commit) / 1e3
          if client_txn is not None and commit is not None else None, "us")
    m.put("server.wire_codec_ns", sc("wire.codec_ns"), "ns")
    m.pct_or_mean("groupcommit.commit_us", s("groupcommit.commit"), 0.5,
                  "us", 1e3)
    m.pct_or_mean("groupcommit.commit_p99_us", s("groupcommit.commit"), 0.99,
                  "us", 1e3)
    m.pct_or_mean("groupcommit.wait_us", s("groupcommit.wait"), 0.5, "us",
                  1e3)
    gc_self = [selfs[sp["id"]] for sp in named.get("gc.txn", [])]
    m.pct_or_mean("groupcommit.self_wait_us", gc_self, 0.5, "us", 1e3)
    groups, committed = sc("groupcommit.groups"), sc("groupcommit.committed")
    m.put("groupcommit.txns_per_group",
          committed / groups if groups else None, "txns")
    m.put("groupcommit.multi_group_share",
          sc("groupcommit.multi_groups") / groups if groups else None,
          "ratio")
    m.pct_or_mean("wal.sync_us", s("wal.sync"), 0.5, "us", 1e3)
    m.put("wal.syncs_per_txn",
          sc("groupcommit.syncs") / committed if committed else None,
          "syncs")
    m.put("wal.bytes_per_txn",
          sc("groupcommit.durable_bytes") / committed if committed else None,
          "B")
    m.pct_or_mean("checkpoint.ms", durs("client.checkpoint"), 0.5, "ms", 1e6)
    m.pct_or_mean("concurrent.snapshot_us", s("concurrent.snapshot"), 0.5,
                  "us", 1e3)
    m.pct_or_mean("concurrent.cow_write_us", s("concurrent.cow_write"), 0.5,
                  "us", 1e3)
    for op in ("query", "upsert", "transact"):
        m.pct_or_mean(f"concurrent.{op}_ns", s(f"concurrent.{op}"), 0.5, "ns",
                      1)
    t4, t1 = run.rate("embedded.untraced."), run.rate("embedded.t1.")
    m.put("concurrent.scaling_t4", t4 / t1 if t4 and t1 else None, "x")
    ops, allocs = sc("embedded.untraced.ops"), sc("embedded.untraced.allocs")
    m.put("concurrent.allocs_per_op", allocs / ops if ops else None,
          "allocs")
    scans = named.get("conc.scan", [])
    scan_ns = sum(sp["end"] - sp["start"] for sp in scans)
    m.put("concurrent.scan_rows_per_s",
          sum(sp["arg"] for sp in scans) / scan_ns * 1e9 if scan_ns else None,
          "rows/s")
    for op in ("query", "upsert", "churn"):
        m.pct_or_mean(f"runtime.{op}_ns", s(f"runtime.{op}"), 0.5, "ns", 1)
    rows = sc("runtime.rows")
    m.put("runtime.arena_bytes_per_row",
          sc("runtime.arena_bytes") / rows if rows else None, "B")
    for op in ("query", "upsert"):
        m.pct_or_mean(f"codegen.{op}_ns", s(f"codegen.{op}"), 0.5, "ns", 1)
    ce, em = run.rate("compiled.untraced."), run.rate("embedded.untraced.")
    m.put("codegen.speedup", ce / em if ce and em else None, "x")
    extra = Metrics()
    for w in WORKLOADS:
        un, tr = run.rate(w + ".untraced."), run.rate(w + ".traced.")
        m.put(f"trace.ops_ratio.{w}", tr / un if tr and un else None, "x")
        extra.put(f"{w}.untraced_ops_per_s", un, "ops/s")
        extra.put(f"{w}.traced_ops_per_s", tr, "ops/s")
    attempted = failed = 0
    for w in WORKLOADS:
        for sl in ("untraced.", "traced.", "t1."):
            attempted += int(sc(f"{w}.{sl}attempted", 0))
            failed += int(sc(f"{w}.{sl}failed", 0))
    return m, extra, span_table(spans, selfs), attempted, failed
