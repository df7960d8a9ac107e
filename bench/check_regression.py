#!/usr/bin/env python3
"""Bench-regression gate: compare a fresh bench_throughput_concurrent JSON
against the committed BENCH_throughput.json baseline.

The committed throughput_concurrent section is recorded at
STRR_BENCH_SCALE=small, the scale CI runs, on a host with at least 4
hardware threads: how rows scale with workers depends on the dataset
scale, so a full-scale baseline's ratios do not hold at small scale. CI
runs on whatever runner it gets, so raw qps numbers are not comparable
across hosts. The gate therefore checks these kinds of signals:

  * hard invariants — every row's `identical` flag must be true (threading
    / caching / tenancy must never change a region), typed shedding must
    still happen where the baseline shed, no tenant may starve;
  * scale-free rates — hit_rate (cache rows) and the WFQ fairness error
    (tenant rows) carry no host-speed dependence and are compared with
    absolute tolerances;
  * normalized qps — each throughput row carries ref_ratio, the median
    over interleaved rounds of its qps divided by the 1-worker/mode-none
    reference row's qps, both timed in the same round (live rows are
    divided by the 0-obs/s row), cancelling host speed and dataset scale;
    a ratio that regresses by more than --tolerance (default 25%) against
    the baseline's fails the gate. Rows whose baseline batch time is under
    --min-batch-ms (cache rows: the measurement is pure front-door
    overhead in microseconds) skip the qps check and are covered by their
    hit_rate instead;
  * obs overhead — within the fresh run only, each "obs" mode row's
    obs_ratio (the median, over interleaved pairs of batches on one
    executor, of the observability-on qps divided by the observability-off
    qps; on = metrics + tracing + an in-window scrape) must stay within
    --obs-overhead-tolerance (default 5%) of 1, so observability can never
    silently become expensive;
  * storage engine — within the fresh run, the checkpointed cold restart
    must beat the full-replay restart by --min-restart-speedup while
    replaying fewer batches, and background compaction must end with
    fewer live tables than were sealed.

Exit code 0 = no regression; 1 = regression (reasons printed); 2 = usage
or malformed input. Rows present in the baseline but missing from the
fresh run fail the gate (a silently vanished bench config is itself a
regression); new rows in the fresh run are reported and allowed.
"""

import argparse
import json
import sys


def load_section(path, section):
    """Loads `path` and returns its throughput section: either the file IS
    a raw bench output (has a "rows" key) or it is the committed
    multi-section baseline ({section: {...}})."""
    with open(path) as f:
        data = json.load(f)
    if "rows" in data:
        return data
    if section in data:
        return data[section]
    raise ValueError(f"{path}: neither a bench output nor a '{section}' section")


def index_rows(rows, key_fields):
    out = {}
    for row in rows or []:
        out[tuple(row[k] for k in key_fields)] = row
    return out


class Gate:
    def __init__(self):
        self.failures = []
        self.notes = []

    def fail(self, msg):
        self.failures.append(msg)

    def note(self, msg):
        self.notes.append(msg)


def check_presence(gate, kind, base_idx, fresh_idx):
    for key in base_idx:
        if key not in fresh_idx:
            gate.fail(f"{kind} row {key} present in baseline but missing "
                      "from the fresh run")
    for key in fresh_idx:
        if key not in base_idx:
            gate.note(f"{kind} row {key} is new (no baseline to compare)")


def norm_qps(gate, kind, rows_idx, ref_key):
    """qps of each row divided by the reference row's qps. An unusable
    reference (missing row or qps 0) is itself a gate failure — silently
    skipping normalization would wave real regressions through."""
    ref = rows_idx.get(ref_key)
    if not ref or not ref.get("qps"):
        if rows_idx:
            gate.fail(f"{kind}: reference row {ref_key} missing or qps=0 — "
                      "cannot normalize, refusing to skip the qps checks")
        return {}
    return {k: r["qps"] / ref["qps"] for k, r in rows_idx.items()
            if r.get("qps") is not None}


def check_throughput_rows(gate, base, fresh, tolerance, min_batch_ms):
    base_idx = index_rows(base.get("rows"), ("workers", "mode"))
    fresh_idx = index_rows(fresh.get("rows"), ("workers", "mode"))
    check_presence(gate, "throughput", base_idx, fresh_idx)

    for key, row in fresh_idx.items():
        if not row.get("identical", True):
            gate.fail(f"throughput row {key}: identical=false — results "
                      "diverged from the sequential reference")

    ref_key = (1, "none")
    for key, base_row in base_idx.items():
        fresh_row = fresh_idx.get(key)
        if fresh_row is None:
            continue
        # Scale-free rates first.
        if base_row.get("hit_rate", 0) >= 0.5:
            if fresh_row.get("hit_rate", 0) < base_row["hit_rate"] - 0.05:
                gate.fail(f"throughput row {key}: hit_rate "
                          f"{fresh_row.get('hit_rate')} regressed vs baseline "
                          f"{base_row['hit_rate']} (tolerance 0.05 absolute)")
        if base_row.get("shed_rate", 0) > 0 and fresh_row.get("shed_rate", 0) == 0:
            gate.fail(f"throughput row {key}: baseline shed "
                      f"{base_row['shed_rate']} but the fresh run shed "
                      "nothing — admission control stopped gating")
        # Normalized qps (skip overhead-dominated rows and the reference
        # row itself, whose ratio is 1 by construction). The bench times
        # each row's batches in rounds with a reference batch and records
        # the median ratio: host noise moves both batches of a round
        # alike, where a ratio of two rows taken seconds apart flaked.
        if key == ref_key or base_row.get("batch_ms", 0) < min_batch_ms:
            continue
        base_ratio = base_row.get("ref_ratio")
        fresh_ratio = fresh_row.get("ref_ratio")
        if not base_ratio or not fresh_ratio:
            gate.fail(f"throughput row {key}: no ref_ratio (baseline "
                      f"{base_ratio}, fresh {fresh_ratio}) — the interleaved "
                      "reference measurement silently vanished")
        elif fresh_ratio < base_ratio * (1.0 - tolerance):
            gate.fail(
                f"throughput row {key}: normalized qps {fresh_ratio:.3f} "
                f"(median over interleaved rounds with the {ref_key} "
                f"reference) regressed more than {tolerance:.0%} vs "
                f"baseline {base_ratio:.3f}")


def check_obs_overhead(gate, fresh, obs_tolerance):
    """Observability cost gate, computed entirely within the fresh run:
    every "obs" row's obs_ratio may not fall more than
    --obs-overhead-tolerance below 1. The bench times interleaved pairs of
    batches, one with metrics + tracing + an in-window Prometheus scrape
    and one without, in alternating order on the same executor, and
    records the median of the per-pair on/off qps ratios. Host noise moves
    both batches of a pair alike, so the median tracks the overhead rather
    than the noise between two rows taken seconds apart. identical=false
    on obs rows is already a hard failure via check_throughput_rows."""
    fresh_idx = index_rows(fresh.get("rows"), ("workers", "mode"))
    compared = 0
    for (workers, mode), row in sorted(fresh_idx.items()):
        if mode != "obs":
            continue
        ratio = row.get("obs_ratio")
        if not ratio:
            gate.fail(f"obs overhead: ({workers}, 'obs') row has no "
                      "obs_ratio — the interleaved on/off measurement "
                      "silently vanished")
            continue
        compared += 1
        if ratio < 1.0 - obs_tolerance:
            gate.fail(
                f"obs overhead: {workers}-worker median on/off qps ratio "
                f"over interleaved batch pairs is {ratio:.3f} — more than "
                f"{obs_tolerance:.0%} overhead")
        else:
            gate.note(f"obs overhead: {workers}-worker median on/off qps "
                      f"ratio {ratio:.3f} (floor {1.0 - obs_tolerance:.2f})")
    if compared == 0:
        gate.fail("obs overhead: fresh run has no 'obs' mode rows — the "
                  "overhead measurement silently vanished")


def check_tenant_rows(gate, base, fresh, fairness_tolerance):
    base_idx = index_rows(base.get("tenant_rows"), ("tenants", "weights"))
    fresh_idx = index_rows(fresh.get("tenant_rows"), ("tenants", "weights"))
    check_presence(gate, "tenant", base_idx, fresh_idx)
    for key, row in fresh_idx.items():
        if not row.get("no_starvation", True):
            gate.fail(f"tenant row {key}: a tenant starved under saturation")
        err = row.get("max_weight_err")
        if err is not None and err > fairness_tolerance:
            gate.fail(f"tenant row {key}: WFQ fairness error {err:.3f} "
                      f"exceeds {fairness_tolerance} — completion shares no "
                      "longer track weights")


def check_live_rows(gate, base, fresh, tolerance):
    base_idx = index_rows(base.get("live_rows"), ("obs_per_sec",))
    fresh_idx = index_rows(fresh.get("live_rows"), ("obs_per_sec",))
    check_presence(gate, "live", base_idx, fresh_idx)
    for key, row in fresh_idx.items():
        if not row.get("identical", True):
            gate.fail(f"live row {key}: identical=false")
    ref_key = (0,)
    base_norm = norm_qps(gate, "live baseline", base_idx, ref_key)
    fresh_norm = norm_qps(gate, "live fresh", fresh_idx, ref_key)
    for key in base_idx:
        if key == ref_key or key not in fresh_idx:
            continue
        if key in base_norm and key in fresh_norm:
            allowed = base_norm[key] * (1.0 - tolerance)
            if fresh_norm[key] < allowed:
                gate.fail(
                    f"live row {key}: qps relative to the 0-updates baseline "
                    f"({fresh_norm[key]:.3f}) regressed more than "
                    f"{tolerance:.0%} vs committed ({base_norm[key]:.3f}) — "
                    "ingestion is costing queries more than it used to")


def check_storage_rows(gate, base, fresh, min_restart_speedup):
    """Gate for the storage-engine sweep. All signals are computed within
    the fresh run (restart walls come from the same host and the same
    journaled stream, so host speed cancels as a ratio; table counts are
    scale-free):

      * the checkpointed cold restart must beat the full-replay restart by
        --min-restart-speedup AND must actually replay fewer batches —
        a checkpoint that silently stops covering the stream fails even
        if the walls happen to tie;
      * background compaction must end with fewer live tables than were
        sealed.

    Rows present in the baseline but missing from the fresh run fail via
    check_presence, so the sweep cannot silently vanish."""
    base_idx = index_rows(base.get("storage_rows"), ("config",))
    fresh_idx = index_rows(fresh.get("storage_rows"), ("config",))
    check_presence(gate, "storage", base_idx, fresh_idx)

    if not fresh_idx:
        if base_idx:
            gate.fail("storage rows: baseline has a storage sweep but the "
                      "fresh run produced none")
        return

    replay = fresh_idx.get(("replay",))
    ckpt = fresh_idx.get(("checkpoint",))
    if not replay or not ckpt:
        gate.fail("storage rows: replay/checkpoint restart rows missing — "
                  "cannot check the restart-latency floor")
    elif replay.get("restart_ms", 0) <= 0 or ckpt.get("restart_ms", 0) <= 0:
        gate.fail("storage rows: restart walls unusable "
                  f"(replay {replay.get('restart_ms')} ms, checkpoint "
                  f"{ckpt.get('restart_ms')} ms)")
    else:
        speedup = replay["restart_ms"] / ckpt["restart_ms"]
        if speedup < min_restart_speedup:
            gate.fail(
                f"storage rows: checkpointed restart is only {speedup:.2f}x "
                f"faster than full replay ({ckpt['restart_ms']} ms vs "
                f"{replay['restart_ms']} ms) — below the "
                f"{min_restart_speedup}x floor")
        elif ckpt.get("replayed_batches", 0) >= replay.get(
                "replayed_batches", 0):
            gate.fail(
                "storage rows: the checkpointed restart replayed "
                f"{ckpt.get('replayed_batches')} batches, no fewer than the "
                f"full replay's {replay.get('replayed_batches')} — the "
                "checkpoint no longer covers the stream")
        else:
            gate.note(f"storage rows: checkpointed restart {speedup:.2f}x "
                      f"faster than full replay (floor "
                      f"{min_restart_speedup}x)")

    compact = fresh_idx.get(("compaction",))
    if not compact:
        gate.fail("storage rows: compaction row missing")
    elif not (0 <= compact.get("tables_after", -1)
              < compact.get("tables_before", -1)):
        gate.fail(
            f"storage rows: compaction left {compact.get('tables_after')} "
            f"tables from {compact.get('tables_before')} sealed — the "
            "background merge stopped reducing the table count")


def check_fig48(gate, base, fresh):
    """Gate for the fig4_8 part (c) m-query row.

    The row must be present and match the engine executor's region. Its
    work counts (segments_expanded, heap_pops) are deterministic for a
    given dataset scale, so they are compared with strict equality against
    the scale-matched baseline section — a count drift means the search
    explored a different frontier, which is a correctness bug even when
    the region happens to match. Wall clocks are not gated."""
    base_row = base.get("sequential_row")
    row = fresh.get("sequential_row")
    if base_row is None:
        gate.fail("fig4_8: baseline has no sequential_row")
        return
    if row is None:
        gate.fail("fig4_8: sequential_row present in baseline but missing "
                  "from the fresh run")
        return
    if not row.get("identical", False):
        gate.fail("fig4_8: identical=false — the m-query region diverged "
                  "from the engine executor's")
    for count in ("segments_expanded", "heap_pops"):
        if row.get(count) != base_row.get(count):
            gate.fail(
                f"fig4_8: {count} {row.get(count)} != baseline "
                f"{base_row.get(count)} — the search explored a different "
                "frontier")


def fig48_section_for_scale(scale):
    return ("fig4_8_mquery_executor" if scale == "full"
            else f"fig4_8_mquery_executor_{scale}")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_throughput.json")
    parser.add_argument("--fresh", required=True,
                        help="JSON written by this run's bench "
                             "(STRR_BENCH_JSON output)")
    parser.add_argument("--section", default="throughput_concurrent",
                        help="section name inside the committed baseline")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="max allowed relative regression of normalized "
                             "qps (default 0.25)")
    parser.add_argument("--fairness-tolerance", type=float, default=0.25,
                        help="max allowed WFQ weight-share deviation in the "
                             "fresh run (default 0.25; the bench itself "
                             "shape-checks 0.20 on the bench host)")
    parser.add_argument("--obs-overhead-tolerance", type=float, default=0.05,
                        help="max allowed qps cost of metrics+tracing, "
                             "measured within the fresh run as the median "
                             "on/off qps ratio over interleaved batch pairs "
                             "per worker count (default 0.05)")
    parser.add_argument("--min-batch-ms", type=float, default=1.0,
                        help="skip qps comparison for rows whose baseline "
                             "batch_ms is below this (overhead-dominated "
                             "cache rows)")
    parser.add_argument("--fresh-fig48",
                        help="JSON written by this run's bench_fig4_8_mquery; "
                             "enables the m-query row gate (presence, "
                             "bit-identity, strict work counts). The "
                             "baseline section is picked by the fresh "
                             "file's 'scale' field")
    parser.add_argument("--min-restart-speedup", type=float, default=1.25,
                        help="minimum full-replay vs checkpointed cold-"
                             "restart wall-clock ratio within the fresh run "
                             "(default 1.25; the bench itself shape-checks "
                             "the same floor on the bench host)")
    args = parser.parse_args()

    try:
        base = load_section(args.baseline, args.section)
        fresh = load_section(args.fresh, args.section)
    except (OSError, ValueError, json.JSONDecodeError) as e:
        print(f"ERROR: {e}", file=sys.stderr)
        return 2

    gate = Gate()
    check_throughput_rows(gate, base, fresh, args.tolerance, args.min_batch_ms)
    check_obs_overhead(gate, fresh, args.obs_overhead_tolerance)
    check_tenant_rows(gate, base, fresh, args.fairness_tolerance)
    check_live_rows(gate, base, fresh, args.tolerance)
    check_storage_rows(gate, base, fresh, args.min_restart_speedup)

    if args.fresh_fig48:
        try:
            with open(args.fresh_fig48) as f:
                fresh48 = json.load(f)
            section = fig48_section_for_scale(fresh48.get("scale", "full"))
            base48 = load_section(args.baseline, section)
        except (OSError, ValueError, json.JSONDecodeError) as e:
            print(f"ERROR: {e}", file=sys.stderr)
            return 2
        check_fig48(gate, base48, fresh48)

    for note in gate.notes:
        print(f"NOTE: {note}")
    if gate.failures:
        print(f"\nFAIL: {len(gate.failures)} regression(s) vs "
              f"{args.baseline}:")
        for failure in gate.failures:
            print(f"  - {failure}")
        return 1
    print(f"OK: no bench regression vs {args.baseline} "
          f"(qps tolerance {args.tolerance:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
