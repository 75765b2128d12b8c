#!/usr/bin/env python3
"""Diff two edb::obs snapshot JSON files (schema edb-metrics-v2, or
the older edb-obs-snapshot-v1 / -v2, so a capture taken before the
schema change still diffs against a new one).

Prints a counter table (old / new / delta / ratio, sorted by largest
relative change first) and a histogram comparison (count / sum / mean
per side). Labeled series appear as `name{key=value,...}`. When both
snapshots carry a `meta` block with wall clocks, they date the
interval and the counter table gains a rate column (delta per
elapsed second between the two captures). Intended
workflow: capture a baseline snapshot with
`EDB_OBS_JSON=old.json` (or `--obs-json old.json`), make a change,
capture `new.json`, then:

    tools/obs_report.py old.json new.json

Optional gates turn the report into a CI check:

    --max-ratio sim.replay.map_walks=1.5   # new <= 1.5x old
    --min-ratio sim.replay.cache_replays=0.8

A gate on a counter missing from either snapshot fails (a renamed or
deleted counter should fail loudly, not silently pass). Exits 1 on
any gate violation, 0 otherwise.
"""

import argparse
import json
import signal
import sys

# Die quietly when piped into `head` instead of tracebacking.
signal.signal(signal.SIGPIPE, signal.SIG_DFL)


LEGACY_SCHEMAS = ("edb-obs-snapshot-v1", "edb-obs-snapshot-v2")


def series_key(entry):
    labels = entry.get("labels") or {}
    if not labels:
        return entry["name"]
    pairs = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{entry['name']}{{{pairs}}}"


def from_metrics_v2(data):
    """Reshape an edb-metrics-v2 document into the legacy layout:
    {"meta", "counters": {name: v}, "gauges": {...},
    "histograms": {name: {...}}}."""
    out = {"meta": data.get("meta", {}), "counters": {}, "gauges": {},
           "histograms": {}}
    for entry in data.get("series", []):
        kind = {"counter": "counters", "gauge": "gauges"}.get(
            entry.get("kind"))
        if kind is not None:
            out[kind][series_key(entry)] = entry["value"]
    for entry in data.get("histograms", []):
        out["histograms"][series_key(entry)] = entry
    return out


def load_snapshot(path):
    with open(path) as f:
        data = json.load(f)
    schema = data.get("schema")
    if schema == "edb-metrics-v2":
        return from_metrics_v2(data)
    if schema not in LEGACY_SCHEMAS:
        sys.exit(f"{path}: unexpected schema {schema!r}")
    return data


def elapsed_seconds(old, new):
    """Wall seconds between two dated snapshots; None for v1 captures."""
    o = old.get("meta", {}).get("wall_ms")
    n = new.get("meta", {}).get("wall_ms")
    if o is None or n is None or n <= o:
        return None
    return (n - o) / 1000.0


def parse_gate(spec):
    name, sep, value = spec.partition("=")
    if not sep or not name:
        sys.exit(f"bad gate {spec!r}: expected NAME=RATIO")
    try:
        return name, float(value)
    except ValueError:
        sys.exit(f"bad gate {spec!r}: {value!r} is not a number")


def fmt_ratio(old, new):
    if old == 0:
        return "-" if new == 0 else "inf"
    return f"{new / old:.3f}"


def scalar_map(snapshot, kind):
    # Snapshot scalars are one JSON object: {"name": value, ...}.
    return dict(snapshot.get(kind, {}))


def report_scalars(kind, old, new, elapsed=None):
    old_map = scalar_map(old, kind)
    new_map = scalar_map(new, kind)
    names = sorted(set(old_map) | set(new_map))
    if not names:
        return

    def rel_change(name):
        o = old_map.get(name, 0)
        n = new_map.get(name, 0)
        if o == 0:
            return float("inf") if n else 0.0
        return abs(n - o) / abs(o) if o else 0.0

    # Rates only make sense for monotone counters with a dated window.
    rated = elapsed is not None and kind == "counters"
    names.sort(key=rel_change, reverse=True)
    width = max(len(n) for n in names)
    print(f"{kind}:")
    print(f"  {'name':<{width}} {'old':>14} {'new':>14} "
          f"{'delta':>14} {'ratio':>8}"
          + (f" {'rate/s':>12}" if rated else ""))
    for name in names:
        o = old_map.get(name, 0)
        n = new_map.get(name, 0)
        rate = f" {(n - o) / elapsed:>12.1f}" if rated else ""
        print(f"  {name:<{width}} {o:>14} {n:>14} "
              f"{n - o:>+14} {fmt_ratio(o, n):>8}{rate}")
    print()


def hist_map(snapshot):
    return dict(snapshot.get("histograms", {}))


def hist_stats(entry):
    if entry is None:
        return 0, 0, 0.0
    count = entry.get("count", 0)
    total = entry.get("sum", 0)
    return count, total, (total / count if count else 0.0)


def report_histograms(old, new):
    old_map = hist_map(old)
    new_map = hist_map(new)
    names = sorted(set(old_map) | set(new_map))
    if not names:
        return
    width = max(len(n) for n in names)
    print("histograms:")
    print(f"  {'name':<{width}} {'old count':>12} {'new count':>12} "
          f"{'old mean':>14} {'new mean':>14}")
    for name in names:
        oc, _, om = hist_stats(old_map.get(name))
        nc, _, nm = hist_stats(new_map.get(name))
        print(f"  {name:<{width}} {oc:>12} {nc:>12} "
              f"{om:>14.1f} {nm:>14.1f}")
    print()


def check_gates(args, old, new):
    counters_old = scalar_map(old, "counters")
    counters_new = scalar_map(new, "counters")
    failures = []

    def lookup(name):
        if name not in counters_old or name not in counters_new:
            failures.append(f"gate on {name}: counter missing from "
                            f"snapshot (old={name in counters_old}, "
                            f"new={name in counters_new})")
            return None
        return counters_old[name], counters_new[name]

    for name, bound in args.max_ratio:
        pair = lookup(name)
        if pair is None:
            continue
        o, n = pair
        ratio = n / o if o else float("inf") if n else 1.0
        if ratio > bound:
            failures.append(f"{name}: ratio {ratio:.3f} exceeds "
                            f"--max-ratio {bound}")
    for name, bound in args.min_ratio:
        pair = lookup(name)
        if pair is None:
            continue
        o, n = pair
        ratio = n / o if o else float("inf") if n else 1.0
        if ratio < bound:
            failures.append(f"{name}: ratio {ratio:.3f} below "
                            f"--min-ratio {bound}")
    return failures


def main():
    parser = argparse.ArgumentParser(
        description="diff two edb::obs snapshot JSON files")
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--max-ratio", metavar="NAME=R", type=parse_gate,
                        action="append", default=[],
                        help="fail if counter NAME grew past new/old=R")
    parser.add_argument("--min-ratio", metavar="NAME=R", type=parse_gate,
                        action="append", default=[],
                        help="fail if counter NAME shrank below new/old=R")
    args = parser.parse_args()

    old = load_snapshot(args.old)
    new = load_snapshot(args.new)

    elapsed = elapsed_seconds(old, new)
    window = f" ({elapsed:.3f} s elapsed)" if elapsed is not None else ""
    print(f"obs diff: {args.old} -> {args.new}{window}\n")
    report_scalars("counters", old, new, elapsed)
    report_scalars("gauges", old, new)
    report_histograms(old, new)

    failures = check_gates(args, old, new)
    for msg in failures:
        print(f"OBS-GATE FAIL: {msg}")
    if not failures and (args.max_ratio or args.min_ratio):
        print("all gates ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
