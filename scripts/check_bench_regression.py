#!/usr/bin/env python3
"""CI perf-regression gate: compare freshly produced BENCH_*.json files
against the baselines committed under bench/results/.

Rows are keyed by their identity fields (everything except the metrics) and
compared on one metric each:

  - ``mibs`` (pingpong-style rows): higher is better; fail when the fresh
    value drops below baseline / tolerance.
  - ``wall_us`` (coll_sweep rows): lower is better; fail when the fresh
    value exceeds baseline * tolerance.
  - ``l2_misses`` (table2_cachemiss rows): the deterministic simulator's
    miss counts must match the baseline exactly, zero included; the
    tolerance does not apply.

The tolerance is deliberately generous (default 2.5x): CI runners are noisy,
time-sliced machines, and the gate exists to catch order-of-magnitude
regressions (a serialized fold, an accidental O(n^2) barrier), not 10%%
jitter. Rows whose baseline or fresh value is missing, or whose timed
value is non-positive, are reported as skipped, never failed — a new bench
row must be able to land before its baseline does.

Usage:
  check_bench_regression.py --baseline bench/results/BENCH_coll.json \
      --fresh build/BENCH_coll.json [--tolerance 2.5] [--diff out.json]

Exit status: 0 = no violations, 1 = at least one violation, 2 = bad input.
"""

import argparse
import json
import sys

METRICS = (
    ("mibs", "higher"),
    ("wall_us", "lower"),
    ("l2_misses", "exact"),
)
IDENTITY_EXCLUDE = {name for name, _ in METRICS} | {"skipped"}


def row_key(row):
    """Stable identity of a row: all non-metric fields, sorted."""
    return tuple(sorted((k, v) for k, v in row.items()
                        if k not in IDENTITY_EXCLUDE))


def row_metric(row):
    """(name, orientation, value) of the row's comparison metric, or None."""
    for name, orientation in METRICS:
        if name in row:
            try:
                value = float(row[name])
            except (TypeError, ValueError):
                return None
            return name, orientation, value
    return None


def compare(baseline_rows, fresh_rows, tolerance):
    """Compare two row lists; returns (violations, checked, skipped).

    Each violation is a dict with the row key, metric, both values, and the
    allowed bound. Pure function so the unit test can feed doctored rows.
    """
    if tolerance <= 1.0:
        raise ValueError("tolerance must be > 1.0")
    fresh_by_key = {}
    for row in fresh_rows:
        fresh_by_key[row_key(row)] = row

    violations, checked, skipped = [], [], []
    for base in baseline_rows:
        key = row_key(base)
        base_m = row_metric(base)
        fresh = fresh_by_key.get(key)
        # Benches mark environment-dependent rows (no PMU in a container,
        # backend unavailable on this kernel) with a "skipped" field: never
        # a failure, on either side — but always reported, so a silently
        # vanished backend shows up in the gate log rather than nowhere.
        if "skipped" in base or (fresh is not None and "skipped" in fresh):
            reason = base.get("skipped") or (
                fresh.get("skipped") if fresh is not None else None)
            skipped.append({"key": key, "reason": f"bench skipped: {reason}"})
            continue
        if base_m is None or fresh is None:
            skipped.append({"key": key, "reason": "missing fresh row"
                            if base_m else "no metric"})
            continue
        name, orientation, base_val = base_m
        fresh_m = row_metric(fresh)
        if fresh_m is None or fresh_m[0] != name:
            skipped.append({"key": key, "reason": "metric mismatch"})
            continue
        fresh_val = fresh_m[2]
        if orientation == "exact":
            # Simulated counts are deterministic: any drift fails, a row
            # that moves off 0 misses included.
            bound = base_val
            bad = fresh_val != base_val
        elif base_val <= 0 or fresh_val <= 0:
            skipped.append({"key": key, "reason": "non-positive value"})
            continue
        elif orientation == "higher":
            bound = base_val / tolerance
            bad = fresh_val < bound
        else:
            bound = base_val * tolerance
            bad = fresh_val > bound
        record = {
            "key": key,
            "metric": name,
            "baseline": base_val,
            "fresh": fresh_val,
            "bound": bound,
            "ratio": (fresh_val / base_val if base_val
                      else 1.0 if fresh_val == base_val else float("inf")),
        }
        checked.append(record)
        if bad:
            violations.append(record)
    return violations, checked, skipped


def _mode_overhead(rows, field):
    """Pair rows that differ only in ``field`` and compute each non-"off"
    mode's overhead percentage against the "off" row of its group."""
    groups = {}
    for row in rows:
        if field not in row or "wall_us" not in row:
            continue
        key = tuple(sorted((k, v) for k, v in row.items()
                           if k not in IDENTITY_EXCLUDE and k != field))
        try:
            groups.setdefault(key, {})[row[field]] = float(row["wall_us"])
        except (TypeError, ValueError):
            continue
    report = []
    for key, by_mode in sorted(groups.items()):
        off = by_mode.get("off")
        for mode, wall in sorted(by_mode.items()):
            if mode == "off" or not off or off <= 0 or wall <= 0:
                continue
            report.append({
                "key": dict(key),
                "mode": mode,
                "off_us": off,
                "traced_us": wall,
                "overhead_pct": 100.0 * (wall - off) / off,
            })
    return report


def trace_overhead(rows):
    """Overhead of the tracing layer: rows differing only in "trace".

    coll_sweep emits one wall_us row per NEMO_TRACE mode for the reference
    allreduce; surfacing the delta here makes the <1%/<5% tracing overhead
    budget visible in every bench_gate diff artifact.
    """
    return _mode_overhead(rows, "trace")


def liveness_overhead(rows):
    """Overhead of the bounded-wait liveness guards: rows differing only in
    "liveness" ("on" = default NEMO_PEER_TIMEOUT_MS, "off" = disarmed).
    The guards ride the spin slow path only, so the budget is <2%."""
    return _mode_overhead(rows, "liveness")


def load_rows(path):
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    rows = doc.get("rows")
    if not isinstance(rows, list):
        raise ValueError(f"{path}: no 'rows' array")
    return rows


def describe(record):
    ident = ", ".join(f"{k}={v}" for k, v in record["key"])
    return (f"  [{ident}] {record['metric']}: baseline {record['baseline']:g}"
            f" fresh {record['fresh']:g} (bound {record['bound']:g},"
            f" ratio {record['ratio']:.2f}x)")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--fresh", required=True)
    ap.add_argument("--tolerance", type=float, default=2.5)
    ap.add_argument("--diff", help="write the full comparison as JSON here")
    args = ap.parse_args(argv)

    try:
        baseline_rows = load_rows(args.baseline)
        fresh_rows = load_rows(args.fresh)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"check_bench_regression: {e}", file=sys.stderr)
        return 2

    violations, checked, skipped = compare(baseline_rows, fresh_rows,
                                           args.tolerance)
    overhead = trace_overhead(fresh_rows)
    live_overhead = liveness_overhead(fresh_rows)

    if args.diff:
        with open(args.diff, "w", encoding="utf-8") as f:
            json.dump({
                "baseline": args.baseline,
                "fresh": args.fresh,
                "tolerance": args.tolerance,
                "checked": [{**r, "key": dict(r["key"])} for r in checked],
                "skipped": [{**s, "key": dict(s["key"])} for s in skipped],
                "violations": [{**r, "key": dict(r["key"])}
                               for r in violations],
                "trace_overhead": overhead,
                "liveness_overhead": live_overhead,
            }, f, indent=2)

    print(f"checked {len(checked)} rows against {args.baseline} "
          f"(tolerance {args.tolerance}x, {len(skipped)} skipped)")
    for rec in skipped:
        ident = ", ".join(f"{k}={v}" for k, v in rec["key"])
        print(f"  SKIP [{ident}]: {rec['reason']}")
    for rec in overhead:
        ident = ", ".join(f"{k}={v}" for k, v in sorted(rec["key"].items()))
        print(f"  trace overhead [{ident}] {rec['mode']}:"
              f" {rec['off_us']:.1f}us -> {rec['traced_us']:.1f}us"
              f" ({rec['overhead_pct']:+.1f}%)")
    for rec in live_overhead:
        ident = ", ".join(f"{k}={v}" for k, v in sorted(rec["key"].items()))
        print(f"  liveness overhead [{ident}] {rec['mode']}:"
              f" {rec['off_us']:.1f}us -> {rec['traced_us']:.1f}us"
              f" ({rec['overhead_pct']:+.1f}%)")
    if violations:
        print(f"PERF REGRESSION: {len(violations)} row(s) beyond tolerance:")
        for record in violations:
            print(describe(record))
        return 1
    print("no regressions beyond tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
