#!/usr/bin/env python3
"""Compare two rrf_bench reports and fail on perf regressions.

Usage:
  bench_compare.py BASELINE.json CURRENT.json [--threshold 0.25]
                   [--metric median_round_seconds] [--normalize POLICY]
                   [--floor FLOOR.json]
  bench_compare.py REPORT.json --floor FLOOR.json        (floor-only)

With a single report and --floor, the relative comparison is skipped and
only the absolute floor gate runs — the mode CI's scale-smoke uses,
where no same-machine baseline report exists.

Two reports must have been profiled the same way (config.profile) and,
when both carry build.build_type, built the same way; otherwise the tool
exits 2 naming both values.

Cells are matched by (policy, nodes, vms_per_node, tenants, shards);
reports that predate the shard axis match as shards == 0 (serial).  A
cell regresses when current > baseline * (1 + threshold).

--floor adds an absolute throughput gate on the *current* report alone:
the floor file pins a minimum allocs_per_second per cell, and any cell
below its floor (or absent from the report) fails the run.  Relative
comparison catches drift between two runs on the same machine; the
floor catches the slow leak where both runs regressed together.

CI runners differ wildly in single-core speed, so comparing absolute
wall-clock against a checked-in baseline would be noise.  --normalize
divides every cell's metric by the same sweep point's metric for the
named policy (typically the trivial `tshirt` static policy) *within the
same report*.  The ratio "how much slower is RRF than a no-op
allocation pass on this machine" is what the gate actually pins, and it
transfers across machines.

Besides the pass/fail gate, the tool attributes *where* a slowdown
lives: for the worst-moving cell it ranks the engine phases
(phase_seconds) by delta, and when both reports carry schema-v2
"profile" blocks (rrf_bench --profile) it also ranks the merged
call-tree paths by self-time delta.  Attribution is informational —
only the cell-level gate decides the exit code.
"""

import argparse
import json
import sys

SUPPORTED_VERSIONS = (1, 2)


def load_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    version = doc.get("schema_version")
    if version not in SUPPORTED_VERSIONS:
        raise SystemExit(
            f"{path}: unsupported schema_version {version!r} "
            f"(want one of {SUPPORTED_VERSIONS})")
    cells = doc.get("results")
    if not isinstance(cells, list) or not cells:
        raise SystemExit(f"{path}: no results")
    return doc


def cell_key(cell):
    # "shards" is additive (late schema v2); older reports are all-serial.
    return (cell["policy"], int(cell["nodes"]), int(cell["vms_per_node"]),
            int(cell["tenants"]), int(cell.get("shards", 0)))


def index_cells(cells, metric):
    out = {}
    for cell in cells:
        if metric not in cell:
            raise SystemExit(f"cell {cell_key(cell)} lacks metric '{metric}'")
        out[cell_key(cell)] = float(cell[metric])
    return out


def normalize(values, policy):
    """Divide each cell by the reference policy's value at the same point."""
    reference = {}
    for (pol, *point), v in values.items():
        if pol == policy:
            reference[tuple(point)] = v
    if not reference:
        raise SystemExit(
            f"--normalize {policy}: reference policy not in report")
    out = {}
    for (pol, *point), v in values.items():
        ref = reference.get(tuple(point))
        if ref is None or ref <= 0.0:
            continue
        out[(pol, *point)] = v / ref
    return out


def load_floor(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    floors = doc.get("floors")
    if not isinstance(floors, list) or not floors:
        raise SystemExit(f"{path}: no floors")
    return doc


def check_floor(cur_doc, floor_doc):
    """Gate the current report's absolute allocs/sec against the floors.

    Returns the list of failed floors.  Floors are matched by full cell
    key; a floor whose cell is absent from the report also fails (a
    silently dropped cell must not un-gate itself).
    """
    cells = {cell_key(c): float(c.get("allocs_per_second", 0.0))
             for c in cur_doc["results"]}
    failures = []
    print("\nfloor check (absolute allocs/second, current report only):")
    print(f"  {'policy':<8} {'nodes':>5} {'vms':>4} {'ten':>4} {'sh':>3} "
          f"{'floor':>12} {'current':>12}")
    for floor in floor_doc["floors"]:
        key = (floor["policy"], int(floor["nodes"]),
               int(floor["vms_per_node"]), int(floor["tenants"]),
               int(floor.get("shards", 0)))
        minimum = float(floor["min_allocs_per_second"])
        current = cells.get(key)
        if current is None:
            flag, shown = "  << MISSING CELL", "absent"
            failures.append((key, minimum, None))
        else:
            below = current < minimum
            flag = "  << BELOW FLOOR" if below else ""
            shown = f"{current:>12.0f}"
            if below:
                failures.append((key, minimum, current))
        policy, nodes, vms, tenants, shards = key
        print(f"  {policy:<8} {nodes:>5} {vms:>4} {tenants:>4} {shards:>3} "
              f"{minimum:>12.0f} {shown:>12}{flag}")
    return failures


def phase_deltas(base_cell, cur_cell):
    """Per-phase (name, base_s, cur_s, delta_s) sorted by delta, worst first."""
    base_phases = base_cell.get("phase_seconds") or {}
    cur_phases = cur_cell.get("phase_seconds") or {}
    rows = []
    for name in sorted(set(base_phases) | set(cur_phases)):
        b = float(base_phases.get(name, 0.0))
        c = float(cur_phases.get(name, 0.0))
        rows.append((name, b, c, c - b))
    rows.sort(key=lambda r: r[3], reverse=True)
    return rows


def profile_index(doc):
    """Merged call-tree paths -> self_seconds, or None pre-v2 / unprofiled."""
    nodes = doc.get("profile")
    if not isinstance(nodes, list) or not nodes:
        return None
    return {n["path"]: float(n.get("self_seconds", 0.0)) for n in nodes}


def print_attribution(base_doc, cur_doc, worst_key, scale):
    """Name the phase (and, with profiles, the call-tree path) that moved.

    `scale` rescales the current report's seconds onto the baseline
    machine (the per-point normalization ratio); 1.0 when comparing raw.
    """
    policy, nodes, vms, tenants, shards = worst_key
    base_cell = next((c for c in base_doc["results"]
                      if cell_key(c) == worst_key), None)
    cur_cell = next((c for c in cur_doc["results"]
                     if cell_key(c) == worst_key), None)
    if base_cell is None or cur_cell is None:
        return

    shard_note = f" sh{shards}" if shards else ""
    print(f"\nattribution — {policy} {nodes}x{vms}x{tenants}{shard_note} "
          f"(worst-moving cell):")
    rows = phase_deltas(base_cell, cur_cell)
    rows = [(n, b, c * scale, c * scale - b) for (n, b, c, _) in rows]
    rows.sort(key=lambda r: r[3], reverse=True)
    total = sum(r[3] for r in rows if r[3] > 0)
    print(f"  {'phase':<10} {'baseline':>11} {'current':>11} {'delta':>11}")
    for name, b, c, d in rows:
        share = f"  ({d / total:.0%} of added time)" if (
            total > 0 and d > 0) else ""
        print(f"  {name:<10} {b:>10.4f}s {c:>10.4f}s {d:>+10.4f}s{share}")
    top = rows[0]
    if top[3] > 0:
        print(f"  top-regressing phase: {top[0]} ({top[3]:+.4f}s)")
    else:
        print("  no phase slowed down")

    # Call-tree attribution (schema v2, rrf_bench --profile on both runs):
    # the merged report-level trees, ranked by self-time delta.
    base_profile = profile_index(base_doc)
    cur_profile = profile_index(cur_doc)
    if base_profile is None or cur_profile is None:
        print("  (run rrf_bench --profile on both reports for call-tree "
              "attribution)")
        return
    movers = []
    for path in set(base_profile) | set(cur_profile):
        b = base_profile.get(path, 0.0)
        c = cur_profile.get(path, 0.0) * scale
        movers.append((path, b, c, c - b))
    movers.sort(key=lambda r: abs(r[3]), reverse=True)
    print("  call-tree self-time movers (merged over all cells):")
    for path, b, c, d in movers[:5]:
        print(f"    {d:>+9.4f}s  {path}  ({b:.4f}s -> {c:.4f}s)")
    gainers = [m for m in movers if m[3] > 0]
    if gainers:
        worst = max(gainers, key=lambda r: r[3])
        print(f"  top-regressing call-tree node: {worst[0]} "
              f"({worst[3]:+.4f}s self)")


def incomparable(base_doc, cur_doc):
    """Why two reports cannot be compared, or None.

    A profiled run is 10-45% slower per cell, and build types differ by
    more than any gate threshold, so either mismatch would read as a
    regression (or hide one).  A report without config.profile predates
    profiling and was not profiled; build.build_type is checked only when
    both reports carry it.
    """
    base_profile = base_doc.get("config", {}).get("profile", False)
    cur_profile = cur_doc.get("config", {}).get("profile", False)
    if base_profile != cur_profile:
        return (f"config.profile differs: baseline {base_profile!r}, "
                f"current {cur_profile!r}")
    base_type = (base_doc.get("build") or {}).get("build_type")
    cur_type = (cur_doc.get("build") or {}).get("build_type")
    if base_type is not None and cur_type is not None \
            and base_type != cur_type:
        return (f"build.build_type differs: baseline {base_type!r}, "
                f"current {cur_type!r}")
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current", nargs="?", default=None,
                        help="omit for floor-only mode: the first "
                             "positional is then gated against --floor "
                             "with no relative comparison")
    parser.add_argument("--threshold", type=float, default=0.25,
                        help="allowed relative slowdown (0.25 = +25%%)")
    parser.add_argument("--metric", default="median_round_seconds")
    parser.add_argument("--normalize", metavar="POLICY", default=None,
                        help="compare ratios to this policy's cell at the "
                             "same sweep point instead of absolute values")
    parser.add_argument("--min-baseline-seconds", type=float, default=0.0,
                        help="cells whose absolute baseline metric is below "
                             "this are reported but not gated (sub-0.1ms "
                             "cells are scheduler-jitter noise)")
    parser.add_argument("--floor", metavar="FLOOR.json", default=None,
                        help="absolute allocs/sec floors for the current "
                             "report (bench/floor_quick.json); any cell "
                             "below its floor fails the run")
    parser.add_argument("--no-attribution", action="store_true",
                        help="skip the per-phase / call-tree attribution "
                             "section")
    args = parser.parse_args()

    if args.current is None:
        # Floor-only mode: one report, no relative gate.
        if not args.floor:
            parser.error("a single report requires --floor "
                         "(nothing to compare it against)")
        cur_doc = load_report(args.baseline)
        failures = check_floor(cur_doc, load_floor(args.floor))
        if failures:
            print(f"\nFAIL: {len(failures)} cell(s) below the "
                  f"allocs-per-second floor", file=sys.stderr)
            return 1
        print(f"\nOK: all {len(load_floor(args.floor)['floors'])} "
              f"floor(s) honoured")
        return 0

    base_doc = load_report(args.baseline)
    cur_doc = load_report(args.current)
    reason = incomparable(base_doc, cur_doc)
    if reason:
        print(f"error: refusing to compare {args.baseline} with "
              f"{args.current}: {reason}", file=sys.stderr)
        return 2
    base_abs = index_cells(base_doc["results"], args.metric)
    cur_abs = index_cells(cur_doc["results"], args.metric)
    base, cur = base_abs, cur_abs
    if args.normalize:
        base = normalize(base_abs, args.normalize)
        cur = normalize(cur_abs, args.normalize)

    shared = sorted(set(base) & set(cur))
    if not shared:
        raise SystemExit("no overlapping cells between baseline and current")

    unit = "x ref" if args.normalize else "s"
    header = (f"{'policy':<8} {'nodes':>5} {'vms':>4} {'ten':>4} {'sh':>3} "
              f"{'baseline':>12} {'current':>12} {'delta':>8}")
    print(header)
    regressions = []
    worst = None  # (delta, key) — the most-slowed cell, gated or not
    for key in shared:
        b, c = base[key], cur[key]
        delta = (c - b) / b if b > 0 else 0.0
        if worst is None or delta > worst[0]:
            worst = (delta, key)
        gated = base_abs.get(key, 0.0) >= args.min_baseline_seconds
        flag = "" if gated else "  (not gated)"
        if gated and b > 0 and c > b * (1.0 + args.threshold):
            flag = "  << REGRESSION"
            regressions.append((key, b, c, delta))
        policy, nodes, vms, tenants, shards = key
        print(f"{policy:<8} {nodes:>5} {vms:>4} {tenants:>4} {shards:>3} "
              f"{b:>10.4f}{unit:>2} {c:>10.4f}{unit:>2} "
              f"{delta:>+7.1%}{flag}")

    missing = sorted(set(base) - set(cur))
    if missing:
        print(f"note: {len(missing)} baseline cell(s) absent from current "
              f"report", file=sys.stderr)

    if not args.no_attribution and worst is not None:
        # Rescale current seconds onto the baseline machine via the same
        # per-point ratio the gate uses, so phase deltas aren't swamped by
        # runner-speed differences.
        key = worst[1]
        scale = 1.0
        if args.normalize and cur_abs.get(key, 0.0) > 0.0 and cur[key] > 0.0:
            machine_base = base_abs[key] / base[key] if base[key] > 0 else 0.0
            machine_cur = cur_abs[key] / cur[key]
            if machine_base > 0.0 and machine_cur > 0.0:
                scale = machine_base / machine_cur
        print_attribution(base_doc, cur_doc, key, scale)

    floor_failures = []
    if args.floor:
        floor_failures = check_floor(cur_doc, load_floor(args.floor))

    failed = False
    if regressions:
        print(f"\nFAIL: {len(regressions)} cell(s) regressed beyond "
              f"{args.threshold:.0%} on {args.metric}"
              + (f" (normalized to {args.normalize})" if args.normalize
                 else ""),
              file=sys.stderr)
        failed = True
    if floor_failures:
        print(f"FAIL: {len(floor_failures)} cell(s) below the "
              f"allocs-per-second floor", file=sys.stderr)
        failed = True
    if failed:
        return 1
    print(f"\nOK: no cell regressed beyond {args.threshold:.0%} "
          f"({len(shared)} cells compared"
          + (", all floors honoured" if args.floor else "") + ")")
    return 0


if __name__ == "__main__":
    sys.exit(main())
