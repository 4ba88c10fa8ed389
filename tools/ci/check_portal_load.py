#!/usr/bin/env python3
"""Threshold gate for the CI load-smoke lane (bench_portal_load output).

Hard failures (exit 1) — correctness, never flaky on slow runners:
  * any phase reporting protocol_errors > 0 or errors > 0;
  * any shed response at tiny scale (the open-loop target is set far
    below capacity there, so a shed means admission control misfired).

Soft failures (GitHub ::warning annotations, exit 0) — performance
numbers that depend on runner hardware:
  * closed-loop QPS below the floor (OPWAT_QPS_FLOOR, default 50000);
  * closed-loop p99 above the ceiling (OPWAT_P99_CEILING_US, 5000).

With the optional second argument (the server's /stats JSON, captured
by the workflow while opwatd is still up), the server-side counters are
gated too: every expected counter key must be present, and
accept_errors must be exactly 0 — an EMFILE/ENFILE burst in the
acceptor is a correctness failure even when every client-side request
still succeeded.

Usage: check_portal_load.py portal_load.json [server_stats.json]
"""

import json
import os
import sys

# Counters the portal server's /stats endpoint must expose; a missing
# key means the debug surface regressed, which would blind this gate.
SERVER_COUNTER_KEYS = (
    "connections_accepted",
    "requests_admitted",
    "responses_ok",
    "responses_error",
    "shed_queue_full",
    "shed_pipeline",
    "protocol_errors",
    "accept_errors",
    "cache_hits",
    "cache_misses",
    # Self-healing surface: the load lane runs against a healthy
    # snapshot, so beyond presence the degraded flag must be 0 here.
    "degraded",
    "quarantined_epochs",
    "bytes_truncated",
    "reload_failures",
)


def check_server_stats(path, hard_failures):
    """Gate the opwatd /stats counters captured during the load run."""
    with open(path, encoding="utf-8") as fh:
        stats = json.load(fh)
    for key in SERVER_COUNTER_KEYS:
        if key not in stats:
            hard_failures.append(f"server stats: counter {key!r} missing")
    if stats.get("accept_errors", 0) > 0:
        hard_failures.append(
            f"server stats: {stats['accept_errors']} accept error(s) — "
            "the acceptor hit accept()/fd failures during the run")
    if stats.get("degraded", 0) != 0:
        hard_failures.append(
            "server stats: serving degraded — the load snapshot needed "
            "recovery, which this lane never injects")
    print("server: " + " ".join(
        f"{k}={stats[k]}" for k in SERVER_COUNTER_KEYS if k in stats))


def main() -> int:
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    with open(sys.argv[1], encoding="utf-8") as fh:
        data = json.load(fh)

    qps_floor = float(os.environ.get("OPWAT_QPS_FLOOR", "50000"))
    p99_ceiling_us = float(os.environ.get("OPWAT_P99_CEILING_US", "5000"))
    tiny = data.get("scale") == "tiny"

    hard_failures = []
    for phase in data.get("phases", []):
        mode = phase.get("mode", "?")
        if phase.get("protocol_errors", 0) > 0:
            hard_failures.append(
                f"{mode}: {phase['protocol_errors']} protocol error(s)")
        if phase.get("errors", 0) > 0:
            hard_failures.append(f"{mode}: {phase['errors']} error response(s)")
        if tiny and phase.get("shed", 0) > 0:
            hard_failures.append(
                f"{mode}: {phase['shed']} shed response(s) at tiny scale")
        print(f"{mode}: qps={phase.get('qps', 0):.0f} "
              f"p50={phase.get('p50_us', 0):.1f}us "
              f"p99={phase.get('p99_us', 0):.1f}us "
              f"p999={phase.get('p999_us', 0):.1f}us "
              f"shed={phase.get('shed', 0)} errors={phase.get('errors', 0)}")

    closed = next((p for p in data.get("phases", [])
                   if p.get("mode") == "closed_loop"), None)
    if closed is None:
        hard_failures.append("no closed_loop phase in the report")
    else:
        if closed.get("qps", 0) < qps_floor:
            print(f"::warning title=portal load below QPS floor::"
                  f"closed-loop {closed['qps']:.0f} qps < floor "
                  f"{qps_floor:.0f} (soft: runner-hardware dependent)")
        if closed.get("p99_us", 0) > p99_ceiling_us:
            print(f"::warning title=portal p99 above ceiling::"
                  f"closed-loop p99 {closed['p99_us']:.0f}us > ceiling "
                  f"{p99_ceiling_us:.0f}us (soft: runner-hardware dependent)")

    if len(sys.argv) == 3:
        check_server_stats(sys.argv[2], hard_failures)

    if hard_failures:
        for f in hard_failures:
            print(f"::error title=portal load-smoke hard failure::{f}")
        return 1
    print("portal load-smoke thresholds OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
