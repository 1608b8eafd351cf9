#!/usr/bin/env python3
"""Bench-regression gate: compare fresh BENCH_*.json files against the
checked-in BENCH_baseline/ snapshots.

The end-to-end bid->seal numbers and the per-layer costs belong to the
repo benchmark (benchmark/, BENCHMARK.json); this gate covers what that
benchmark does not run. Fails (exit 1) when, for any row present in both
baseline and current:

  * a batch_throughput sessions/s metric drops below 75% of baseline, or
  * the reactor mesh regresses: a BENCH_wire.json mesh_sweep row drops
    below 75% of its baseline frames/s, its bring-up time grows beyond
    2x baseline (with a small absolute grace so microsecond noise cannot
    trip it), or its I/O-thread count rises above baseline, or
  * the telemetry plane gets expensive: the in-run telemetry-on/off
    ingest ratio reported by BENCH_telemetry.json falls below 95% —
    flight ring, epoch traces, and a live scrape endpoint together may
    cost at most 5% of saturated ingest throughput, or
  * combinatorial winner determination slows down: BENCH_wd.json's
    per-size best solve time grows beyond 2x baseline (same grace as
    latency), the node budget stops being a hard cap, or a row's
    certified optimality bound (bound_ppm_min) collapses below 90% of
    the baseline's certification. The fallback rate is reported per
    size so a budget-accounting bug (fallback never engaging at 10^4
    bids) is visible in the summary, or
  * the deployment loses its outage bounds: BENCH_ha.json (written by
    the process-kill harness) reports the outage-window epoch-close
    p99, the kill-to-rejoin-to-clear time and the steady-state epoch
    close median; any growing beyond 2x baseline means epochs touching a
    dead peer stopped resolving by detection, the reconnect path (backoff
    reset, re-handshake, epoch-boundary rejoin) got stuck, or clean
    epochs stopped reusing the provider mesh.

Rows only present on one side are reported but never fail the gate, so
adding a sweep point does not require touching the baseline in the same
commit. Regenerate baselines with:

    cargo run --release -p dauctioneer-bench --bin batch_throughput -- --quick --rounds 5 --json
    cargo run --release -p dauctioneer-bench --bin winner_determination -- --quick --json
    cargo run --release -p dauctioneer-bench --bin telemetry_overhead -- --quick --json
    cargo run --release -p dauctioneer-bench --bin mesh_sweep -- --json
    BENCH_HA_OUT=BENCH_ha.json cargo test --release --test process_kill
    mv BENCH_batch_throughput.json BENCH_wd.json BENCH_telemetry.json \
       BENCH_wire.json BENCH_ha.json BENCH_baseline/

Run the first four commands ten times and keep, per row, the slowest of
the ten runs (lowest sessions/s, ingest or frames/s; highest WD solve
time); the file's config.baseline says so. On a shared host a single
run's rows swing far enough that one run's numbers trip the 25% floor.
"""

import argparse
import json
import sys
from pathlib import Path

THROUGHPUT_FLOOR = 0.75  # current must be >= 75% of baseline sessions/s
LATENCY_CEIL = 2.0  # current p99 must be <= 2x baseline
LATENCY_GRACE_S = 0.050  # absolute slack below which p99 growth is noise
# Telemetry overhead ceiling: with the full plane on (flight recorder,
# epoch traces, metrics collectors, a scraped endpoint), saturated
# ingest must stay within 5% of the telemetry-off run of the SAME
# interleaved sweep. In-run on purpose: a slow CI host shifts both
# modes together, so the ratio isolates the plane's own cost.
TELEMETRY_OVERHEAD_FLOOR = 0.95
# Certified-bound floor for the budgeted winner-determination fallback:
# a row's bound_ppm_min may not fall below 90% of the baseline's. The
# bound is a *certificate* (welfare / root fractional bound), so a
# collapse means either the greedy seed or the search got worse.
WD_BOUND_FLOOR = 0.90


def load(path: Path):
    with open(path) as f:
        return json.load(f)


def check_throughput(name, key, baseline, current, failures, lines, metric="sessions/s"):
    if baseline <= 0:
        return
    ratio = current / baseline
    verdict = "ok"
    if ratio < THROUGHPUT_FLOOR:
        verdict = "REGRESSION"
        failures.append(
            f"{name} [{key}]: {metric} fell to {ratio:.0%} of baseline "
            f"({current:.1f} vs {baseline:.1f}, floor {THROUGHPUT_FLOOR:.0%})"
        )
    lines.append(f"  {name} [{key}] {metric}: {baseline:.1f} -> {current:.1f} ({ratio:.2f}x) {verdict}")


def check_latency(name, key, baseline, current, failures, lines, metric="p99 epoch-close latency"):
    bound = max(baseline * LATENCY_CEIL, baseline + LATENCY_GRACE_S)
    verdict = "ok"
    if current > bound:
        verdict = "REGRESSION"
        failures.append(
            f"{name} [{key}]: {metric} grew {current / baseline if baseline else float('inf'):.1f}x "
            f"({current * 1e3:.1f}ms vs {baseline * 1e3:.1f}ms, bound {bound * 1e3:.1f}ms)"
        )
    lines.append(
        f"  {name} [{key}] {metric}: {baseline * 1e3:.1f}ms -> {current * 1e3:.1f}ms {verdict}"
    )


def index_rows(rows, key_fields):
    return {tuple(row.get(k) for k in key_fields): row for row in rows}


def compare_batch_throughput(base, cur, failures, lines):
    name = "batch_throughput"
    base_rows = index_rows(base.get("batched_vs_sequential", []), ("sessions",))
    cur_rows = index_rows(cur.get("batched_vs_sequential", []), ("sessions",))
    for key, brow in base_rows.items():
        crow = cur_rows.get(key)
        if crow is None:
            lines.append(f"  {name} [batched sessions={key[0]}]: row missing in current run (skipped)")
            continue
        check_throughput(
            name,
            f"batched sessions={key[0]}",
            brow["batched_sessions_per_s"],
            crow["batched_sessions_per_s"],
            failures,
            lines,
        )
    base_rows = index_rows(base.get("shards_x_transport", []), ("sessions", "transport", "shards"))
    cur_rows = index_rows(cur.get("shards_x_transport", []), ("sessions", "transport", "shards"))
    for key, brow in base_rows.items():
        crow = cur_rows.get(key)
        label = f"sessions={key[0]} {key[1]} shards={key[2]}"
        if crow is None:
            lines.append(f"  {name} [{label}]: row missing in current run (skipped)")
            continue
        check_throughput(name, label, brow["sessions_per_s"], crow["sessions_per_s"], failures, lines)


def compare_wire(base, cur, failures, lines):
    # Mesh m-sweep: steady-state frames/s through a real reactor mesh,
    # bring-up time, and the hard O(1) I/O-thread invariant. A relapse to
    # per-peer threads shows up as io_threads > baseline and fails even
    # when throughput happens to survive.
    name = "mesh_sweep"
    base_rows = index_rows(base.get("mesh_sweep", []), ("m", "lanes"))
    cur_rows = index_rows(cur.get("mesh_sweep", []), ("m", "lanes"))
    for key, brow in base_rows.items():
        crow = cur_rows.get(key)
        label = f"mesh m={key[0]} lanes={key[1]}"
        if crow is None:
            lines.append(f"  {name} [{label}]: row missing in current run (skipped)")
            continue
        check_throughput(
            name,
            label,
            brow["frames_per_s"],
            crow["frames_per_s"],
            failures,
            lines,
            metric="frames/s",
        )
        check_latency(
            name,
            label,
            brow["bring_up_s"],
            crow["bring_up_s"],
            failures,
            lines,
            metric="mesh bring-up",
        )
        if crow["io_threads"] > brow["io_threads"]:
            failures.append(
                f"{name} [{label}]: io_threads grew {brow['io_threads']} -> "
                f"{crow['io_threads']} (per-peer thread relapse)"
            )
            lines.append(
                f"  {name} [{label}] io_threads: {brow['io_threads']} -> "
                f"{crow['io_threads']} REGRESSION"
            )
        else:
            lines.append(
                f"  {name} [{label}] io_threads: {brow['io_threads']} -> "
                f"{crow['io_threads']} ok"
            )


def compare_telemetry(base, cur, failures, lines):
    name = "telemetry"
    base_rows = index_rows(base.get("runs", []), ("mode",))
    cur_rows = index_rows(cur.get("runs", []), ("mode",))
    for key, brow in base_rows.items():
        crow = cur_rows.get(key)
        label = f"telemetry={key[0]}"
        if crow is None:
            lines.append(f"  {name} [{label}]: row missing in current run (skipped)")
            continue
        check_throughput(
            name,
            label,
            brow["ingest_bids_per_sec"],
            crow["ingest_bids_per_sec"],
            failures,
            lines,
            metric="ingest bids/s",
        )
    # The headline gate: the in-run on/off ratio. Both runs of the pair
    # come from the same interleaved best-of-N sweep on the same host,
    # so anything below the floor is the telemetry plane itself.
    ratio = cur.get("overhead_ratio")
    if ratio is not None:
        verdict = "ok"
        if ratio < TELEMETRY_OVERHEAD_FLOOR:
            verdict = "REGRESSION"
            failures.append(
                f"{name} [overhead]: telemetry-on ingest is {ratio:.1%} of telemetry-off "
                f"(floor {TELEMETRY_OVERHEAD_FLOOR:.0%} — the plane may cost at most "
                f"{1 - TELEMETRY_OVERHEAD_FLOOR:.0%})"
            )
        lines.append(f"  {name} [overhead] on/off ingest ratio: {ratio:.3f} {verdict}")
    # The on-run must actually have been observed, else the ratio is a
    # comparison of nothing: zero scrapes means the endpoint was dead.
    on_row = cur_rows.get(("on",))
    if on_row is not None and on_row.get("scrapes_served", 0) == 0:
        failures.append(f"{name} [on]: zero scrapes served — the metrics endpoint never answered")


def compare_ha(base, cur, failures, lines):
    name = "ha"
    base_rows = index_rows(base.get("runs", []), ("scenario",))
    cur_rows = index_rows(cur.get("runs", []), ("scenario",))
    for key, brow in base_rows.items():
        crow = cur_rows.get(key)
        label = f"scenario={key[0]}"
        if crow is None:
            lines.append(f"  {name} [{label}]: row missing in current run (skipped)")
            continue
        # The outage window must stay detection-bound: a relapse to
        # deadline-bound closes shows up as seconds, not milliseconds.
        check_latency(
            name,
            label,
            brow["outage_epoch_p99_s"],
            crow["outage_epoch_p99_s"],
            failures,
            lines,
            metric="outage-window epoch p99",
        )
        # Rejoin-to-clear: restart instant to the first cleared epoch.
        # Dominated by the epoch period plus the redial backoff, so the
        # 2x ceiling catches a broken backoff reset or a stuck rejoin.
        check_latency(
            name,
            label,
            brow["reconnect_s"],
            crow["reconnect_s"],
            failures,
            lines,
            metric="reconnect time",
        )
        # Steady state: the median close of the cleared epochs. The
        # providers keep one mesh across clean epochs, so this is the
        # protocol plus one control round trip; a relapse to per-epoch
        # connection churn (or worse, to deadline-bound closes) shows here.
        if "steady_epoch_p50_s" in brow and "steady_epoch_p50_s" in crow:
            check_latency(
                name,
                label,
                brow["steady_epoch_p50_s"],
                crow["steady_epoch_p50_s"],
                failures,
                lines,
                metric="steady-state epoch p50",
            )
        if crow.get("outage_epochs", 0) < 1:
            failures.append(
                f"{name} [{label}]: the kill produced no peer_down-aborted epoch"
            )


def compare_wd(base, cur, failures, lines):
    name = "winner_determination"
    base_rows = index_rows(base.get("runs", []), ("bids",))
    cur_rows = index_rows(cur.get("runs", []), ("bids",))
    for key, brow in base_rows.items():
        crow = cur_rows.get(key)
        label = f"bids={key[0]}"
        if crow is None:
            lines.append(f"  {name} [{label}]: row missing in current run (skipped)")
            continue
        check_latency(
            name,
            label,
            brow["wd_time_s"],
            crow["wd_time_s"],
            failures,
            lines,
            metric="WD solve time",
        )
        # The node budget is a determinism invariant, not a perf knob: a
        # replica that visits more nodes than the budget diverges from
        # its peers, so any excursion fails outright.
        if crow["nodes"] > crow["node_budget"]:
            failures.append(
                f"{name} [{label}]: visited {crow['nodes']} nodes over a "
                f"{crow['node_budget']}-node budget — the cap must be hard"
            )
        # Certified-bound floor: the fallback must keep certifying about
        # as much of the optimum as it used to.
        bb, cb = brow.get("bound_ppm_min", 0), crow.get("bound_ppm_min", 0)
        if bb > 0:
            verdict = "ok"
            if cb < bb * WD_BOUND_FLOOR:
                verdict = "REGRESSION"
                failures.append(
                    f"{name} [{label}]: certified bound fell {bb} -> {cb} ppm "
                    f"(floor {WD_BOUND_FLOOR:.0%} of baseline)"
                )
            lines.append(
                f"  {name} [{label}] certified bound: {bb} -> {cb} ppm, "
                f"fallback rate {crow.get('fallback_rate', 0):.0%} {verdict}"
            )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, default=Path("BENCH_baseline"))
    parser.add_argument("--current", type=Path, default=Path("."))
    parser.add_argument(
        "--only",
        action="append",
        default=[],
        metavar="FILE",
        help="compare only these BENCH files (repeatable); CI jobs that "
        "produce a single file use this so the other baselines do not "
        "count as missing",
    )
    parser.add_argument(
        "--skip",
        action="append",
        default=[],
        metavar="FILE",
        help="exclude these BENCH files from the gate (repeatable)",
    )
    args = parser.parse_args()

    comparisons = [
        ("BENCH_batch_throughput.json", compare_batch_throughput),
        ("BENCH_telemetry.json", compare_telemetry),
        ("BENCH_wire.json", compare_wire),
        ("BENCH_wd.json", compare_wd),
        ("BENCH_ha.json", compare_ha),
    ]
    known = {filename for filename, _ in comparisons}
    for selected in args.only + args.skip:
        if selected not in known:
            print(f"FAIL: unknown bench file {selected!r} (known: {sorted(known)})")
            return 1
    if args.only:
        comparisons = [(f, fn) for f, fn in comparisons if f in args.only]
    if args.skip:
        comparisons = [(f, fn) for f, fn in comparisons if f not in args.skip]
    failures, lines = [], []
    compared = 0
    for filename, compare in comparisons:
        base_path = args.baseline / filename
        cur_path = args.current / filename
        if not base_path.exists():
            lines.append(f"  {filename}: no baseline checked in (skipped)")
            continue
        if not cur_path.exists():
            failures.append(f"{filename}: baseline exists but the current run produced no file")
            continue
        compare(load(base_path), load(cur_path), failures, lines)
        compared += 1

    print("bench-regression gate:")
    for line in lines:
        print(line)
    if compared == 0:
        print("FAIL: nothing was compared — baseline or current files missing entirely")
        return 1
    if failures:
        print(f"FAIL: {len(failures)} regression(s):")
        for f in failures:
            print(f"  - {f}")
        return 1
    print(f"ok: {compared} bench file(s) within thresholds "
          f"(floor {THROUGHPUT_FLOOR:.0%} sessions/s, ceil {LATENCY_CEIL:.1f}x p99)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
