#!/usr/bin/env python3
"""Compare a fresh BENCH_matching.json against the committed baseline.

Every row of every bench is keyed by its non-rate fields (device, length,
queues, ctas, ...) and the fresh ``matches_per_second`` must not fall more
than ``--tolerance`` (default 15%) below the baseline's.  The modelled rates
are deterministic, so the tolerance only absorbs deliberate model retunes —
an accidental slowdown of the modelled pipeline trips the gate.

Rows present in the baseline but absent from the fresh run are reported and
skipped, not failed: the CI job runs the benches with SIMTMSG_BENCH_FAST=1,
which sweeps a subset of configurations (fig_cluster_scale, for example,
drops its 1k/10k-node fleets and the 128-messages-per-node load in fast
mode, keeping the small-fleet rows value-identical to a full run).
Headlines are derived from rows and are ignored here.

Exit codes: 0 ok, 1 regression found, 2 malformed input/usage.

``--exact`` turns the gate into an identity check: every row present in both
reports must carry the same ``matches_per_second``, bit for bit, in either
direction.  The modelled rates are deterministic and fast-mode rows are
value-identical to full-run rows, so a change that claims to leave the model
untouched (a host-side speed-up, a refactor) proves it here.

``--selftest`` verifies the gate itself: the baseline must pass against an
identical copy and must FAIL against a copy with every rate degraded 20%;
in exact mode it must also FAIL against a copy with a single rate moved by
one ulp.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys

RATE_FIELD = "matches_per_second"


def row_key(row: dict) -> tuple:
    """Identity of a row: every field except the measured rate."""
    return tuple(sorted((k, v) for k, v in row.items() if k != RATE_FIELD))


def index_rows(report: dict, bench: str) -> dict:
    indexed = {}
    for row in report.get("rows", []):
        if RATE_FIELD not in row:
            raise ValueError(f"{bench}: row without {RATE_FIELD}: {row}")
        key = row_key(row)
        if key in indexed:
            raise ValueError(f"{bench}: duplicate row key {key}")
        indexed[key] = float(row[RATE_FIELD])
    return indexed


def describe(key: tuple) -> str:
    return " ".join(f"{k}={v}" for k, v in key)


def compare(baseline: dict, fresh: dict, tolerance: float, out=sys.stdout,
            exact: bool = False) -> bool:
    """Print the per-row delta table; return True when no row regressed (in
    exact mode: when no shared row's rate differs at all)."""
    if baseline.get("schema_version") != 1 or fresh.get("schema_version") != 1:
        raise ValueError("expected schema_version 1 in both reports")

    ok = True
    compared = skipped = 0
    header = f"{'status':<8} {'baseline':>14} {'fresh':>14} {'delta':>8}  row"
    for bench, base_report in sorted(baseline["benches"].items()):
        fresh_report = fresh.get("benches", {}).get(bench)
        if fresh_report is None:
            print(f"-- {bench}: missing from fresh run (skipped)", file=out)
            continue
        base_rows = index_rows(base_report, bench)
        fresh_rows = index_rows(fresh_report, bench)

        print(f"-- {bench}", file=out)
        print(header, file=out)
        for key, base_rate in base_rows.items():
            if key not in fresh_rows:
                skipped += 1
                print(f"{'skip':<8} {base_rate:>14.3e} {'—':>14} {'—':>8}  "
                      f"{describe(key)} (not in fresh run)", file=out)
                continue
            compared += 1
            fresh_rate = fresh_rows[key]
            delta = (fresh_rate - base_rate) / base_rate if base_rate != 0.0 else 0.0
            regressed = fresh_rate != base_rate if exact else delta < -tolerance
            ok &= not regressed
            status = "FAIL" if regressed else "ok"
            print(f"{status:<8} {base_rate:>14.3e} {fresh_rate:>14.3e} "
                  f"{delta:>+7.1%}  {describe(key)}", file=out)
        for key in fresh_rows:
            if key not in base_rows:
                print(f"{'new':<8} {'—':>14} {fresh_rows[key]:>14.3e} {'—':>8}  "
                      f"{describe(key)} (not in baseline)", file=out)

    gate = "exact" if exact else f"tolerance {tolerance:.0%}"
    print(f"\ncompared {compared} rows, skipped {skipped}; "
          f"{gate} -> {'OK' if ok else 'REGRESSION'}", file=out)
    if compared == 0:
        raise ValueError("no rows compared — fresh report shares no rows with baseline")
    return ok


def selftest(baseline: dict, tolerance: float) -> int:
    import io

    for exact in (False, True):
        if not compare(baseline, copy.deepcopy(baseline), tolerance, out=io.StringIO(),
                       exact=exact):
            print(f"selftest FAILED: baseline does not pass against itself "
                  f"(exact={exact})")
            return 1

    degraded = copy.deepcopy(baseline)
    for report in degraded["benches"].values():
        for row in report.get("rows", []):
            row[RATE_FIELD] = float(row[RATE_FIELD]) * 0.8
    if compare(baseline, degraded, tolerance, out=io.StringIO()):
        print("selftest FAILED: 20% degradation not caught")
        return 1

    nudged = copy.deepcopy(baseline)
    row = next(row for report in nudged["benches"].values()
               for row in report.get("rows", []) if float(row[RATE_FIELD]) > 0.0)
    row[RATE_FIELD] = math.nextafter(float(row[RATE_FIELD]), math.inf)
    if compare(baseline, nudged, tolerance, out=io.StringIO(), exact=True):
        print("selftest FAILED: exact gate misses a 1-ulp change to one rate")
        return 1

    print("selftest ok: identical report passes, 20% degradation is caught, "
          "exact mode catches a 1-ulp change")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_matching.json")
    parser.add_argument("--fresh", help="freshly generated report to check")
    parser.add_argument("--tolerance", type=float, default=0.15,
                        help="max fractional rate drop per row (default 0.15)")
    parser.add_argument("--exact", action="store_true",
                        help="fail on any rate difference in rows both reports share")
    parser.add_argument("--selftest", action="store_true",
                        help="verify the gate catches a synthetic 20%% regression")
    args = parser.parse_args()

    try:
        with open(args.baseline) as f:
            baseline = json.load(f)
        if args.selftest:
            return selftest(baseline, args.tolerance)
        if args.fresh is None:
            parser.error("--fresh is required unless --selftest")
        with open(args.fresh) as f:
            fresh = json.load(f)
        return 0 if compare(baseline, fresh, args.tolerance, exact=args.exact) else 1
    except (OSError, ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
