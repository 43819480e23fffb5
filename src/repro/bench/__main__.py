"""``python -m repro.bench``: run the microbenchmark suites, write BENCH JSON.

Intended for CI smoke use (``--quick``) and for regenerating the perf
trajectory after engine changes::

    python -m repro.bench                 # all suites -> BENCH_1/.../7.json
    python -m repro.bench --suite engine  # vectorized-engine suite only
    python -m repro.bench --suite service # concurrency/batching suite only
    python -m repro.bench --suite shards  # sharded/versioned backend suite only
    python -m repro.bench --suite snapshots  # snapshot/compaction/interning suite
    python -m repro.bench --suite store   # artifact store / revalidation suite
    python -m repro.bench --suite reliability  # WAL / crash-recovery suite
    python -m repro.bench --suite workloads  # generated longitudinal streams
    python -m repro.bench --suite obs     # observability overhead suite
    python -m repro.bench --quick         # scaled down, same checks
    python -m repro.bench --suite engine --output out.json

Exit status is non-zero when any parity, cache, budget-safety,
transcript-validity, staleness-invalidation, snapshot-isolation,
warm-start, revalidation or crash-recovery assertion fails.
"""

from __future__ import annotations

import argparse
import sys

from repro.bench.microbench import (
    run_microbenchmarks,
    run_reliability_microbenchmarks,
    run_service_microbenchmarks,
    run_shard_microbenchmarks,
    run_snapshot_microbenchmarks,
    run_store_microbenchmarks,
)
from repro.bench.obsbench import OBS_OVERHEAD_TARGET, run_obs_microbenchmarks
from repro.bench.reporting import write_bench_json
from repro.bench.workloadbench import run_workload_microbenchmarks


def _print_engine_summary(payload: dict, output: str) -> None:
    mask = payload["mask_evaluation"]
    domain = payload["domain_analysis"]
    translation = payload["translation_cache"]
    print(f"wrote {output}")
    print(
        f"mask evaluation: {mask['n_predicates']} predicates x {mask['n_rows']} rows: "
        f"{mask['reference_seconds']:.4f}s -> {mask['vectorized_cold_seconds']:.4f}s "
        f"({mask['speedup_cold']:.1f}x cold, {mask['speedup_warm']:.0f}x warm)"
    )
    print(
        f"domain analysis: {domain['n_cells']} cells: "
        f"{domain['reference_seconds']:.4f}s -> {domain['vectorized_seconds']:.4f}s "
        f"({domain['speedup']:.1f}x)"
    )
    print(
        f"translation cache: {translation['first_preview_seconds']:.4f}s -> "
        f"{translation['second_preview_seconds']:.6f}s "
        f"(hit={translation['translation_cache_hit']}, "
        f"matrix_rebuilt={translation['matrix_rebuilt_on_second_call']})"
    )


def _print_service_summary(payload: dict, output: str) -> int:
    stress = payload["concurrent_budget_stress"]
    batching = payload["request_batching"]
    print(f"wrote {output}")
    print(
        f"budget stress: {stress['n_threads']} threads x {stress['n_requests']} "
        f"requests: spent {stress['epsilon_spent']:.4f} of B={stress['budget']:.4f} "
        f"(within_budget={stress['within_budget']}, "
        f"valid={stress['transcript_valid']}, answered={stress['answered']}, "
        f"denied={stress['denied']}, {stress['requests_per_second']:.0f} req/s)"
    )
    print(
        f"request batching: {batching['n_threads']} identical cold previews: "
        f"{batching['unbatched_estimate_seconds']:.3f}s unbatched -> "
        f"{batching['batched_wall_seconds']:.3f}s batched "
        f"({batching['speedup_vs_unbatched']:.1f}x, "
        f"matrix_builds={batching['matrix_builds']}, "
        f"coalesced={batching['coalesced_requests']})"
    )
    failures = 0
    if not stress["within_budget"] or not stress["transcript_valid"]:
        print("FAILURE: concurrent budget safety violated", file=sys.stderr)
        failures += 1
    if stress["errors"]:
        print(f"FAILURE: stress thread errors: {stress['errors']}", file=sys.stderr)
        failures += 1
    if not batching["matrix_built_exactly_once"]:
        print(
            f"FAILURE: coalesced previews built the matrix "
            f"{batching['matrix_builds']} times (expected once)",
            file=sys.stderr,
        )
        failures += 1
    return failures


def _print_shard_summary(payload: dict, output: str) -> int:
    domain = payload["sharded_domain_analysis"]
    masks = payload["sharded_mask_evaluation"]
    streaming = payload["streaming_invalidation"]
    print(f"wrote {output}")
    print(
        f"sharded domain analysis: {domain['n_cells']} cells at "
        f"{domain['workers']} workers (host has {domain['cpu_count']} cores): "
        f"{domain['reference_seconds']:.4f}s single-shard reference -> "
        f"{domain['parallel_seconds']:.4f}s ({domain['speedup']:.1f}x, "
        f"parity={domain['parity']}, "
        f"vs sequential vectorized {domain['parallel_vs_sequential_vectorized']:.2f}x)"
    )
    print(
        f"sharded mask evaluation: {masks['n_shards']} shards x "
        f"{masks['n_rows']} rows, +{masks['append_rows']} appended: "
        f"warm-shard mask re-eval {masks['incremental_mask_seconds']:.4f}s vs "
        f"{masks['full_mask_reeval_seconds']:.4f}s full "
        f"({masks['incremental_speedup']:.1f}x, parity={masks['parity']})"
    )
    print(
        f"streaming invalidation: append between previews -> "
        f"revalidated={streaming['post_append_revalidated']}, "
        f"rebuilt={streaming['post_append_rebuilt']}, "
        f"counts_match={streaming['post_append_counts_match_reference']}, "
        f"no_stale_reuse={streaming['no_stale_reuse']}"
    )
    failures = 0
    if not domain["parity"] or not masks["parity"]:
        print("FAILURE: sharded evaluation parity violated", file=sys.stderr)
        failures += 1
    if domain["speedup"] < 3.0:
        print(
            f"FAILURE: sharded domain analysis speedup {domain['speedup']:.2f}x "
            "is below the 3x target",
            file=sys.stderr,
        )
        failures += 1
    if not streaming["no_stale_reuse"]:
        print(
            "FAILURE: a version-keyed cache served a stale artifact across "
            "append_rows",
            file=sys.stderr,
        )
        failures += 1
    return failures


def _print_snapshot_summary(payload: dict, output: str) -> int:
    wait_free = payload["wait_free_reads"]
    compaction = payload["compaction"]
    interning = payload["shared_interning"]
    print(f"wrote {output}")
    print(
        f"wait-free reads: {wait_free['reads_completed']} snapshot reads while "
        f"{wait_free['n_appends']} x {wait_free['rows_per_append']} rows "
        f"appended ({wait_free['n_rows_start']} -> {wait_free['n_rows_end']} "
        f"rows): errors={len(wait_free['reader_errors'])}, "
        f"pinned_reread_identical={wait_free['pinned_reread_identical']}, "
        f"pinned_matches_reference={wait_free['pinned_matches_reference']}"
    )
    print(
        f"compaction: {compaction['n_shards_before']} -> "
        f"{compaction['n_shards_after']} shards: cold eval "
        f"{compaction['fragmented_cold_seconds']:.4f}s -> "
        f"{compaction['compacted_cold_seconds']:.4f}s "
        f"({compaction['speedup']:.2f}x, parity={compaction['parity']}, "
        f"version_unchanged={compaction['version_token_unchanged']})"
    )
    print(
        f"shared interning: +{interning['append_rows']} rows on "
        f"{interning['n_rows']}: incremental "
        f"{interning['incremental_seconds']:.4f}s vs full re-intern "
        f"{interning['full_reintern_seconds']:.4f}s "
        f"({interning['speedup']:.1f}x, parity={interning['parity']})"
    )
    failures = 0
    if not wait_free["wait_free"]:
        print(
            f"FAILURE: snapshot readers hit errors under a concurrent "
            f"appender: {wait_free['reader_errors']}",
            file=sys.stderr,
        )
        failures += 1
    if not (
        wait_free["pinned_reread_identical"]
        and wait_free["pinned_matches_reference"]
    ):
        print(
            "FAILURE: a pinned snapshot's answers drifted under appends",
            file=sys.stderr,
        )
        failures += 1
    if not compaction["parity"] or not compaction["version_token_unchanged"]:
        print(
            "FAILURE: compaction changed more than the physical layout",
            file=sys.stderr,
        )
        failures += 1
    if compaction["n_shards_after"] >= compaction["n_shards_before"]:
        print("FAILURE: compaction did not reduce the shard count", file=sys.stderr)
        failures += 1
    if not interning["parity"]:
        print(
            "FAILURE: shared-dictionary codes diverge from a full re-intern",
            file=sys.stderr,
        )
        failures += 1
    if interning["speedup"] < 2.0:
        print(
            f"FAILURE: shared-dictionary interning speedup "
            f"{interning['speedup']:.2f}x is below the 2x target",
            file=sys.stderr,
        )
        failures += 1
    return failures


def _print_store_summary(payload: dict, output: str) -> int:
    warm = payload["store_warm_start"]
    reval = payload["domain_revalidation"]
    print(f"wrote {output}")
    print(
        f"store warm start: cold preview {warm['cold_preview_seconds']:.3f}s -> "
        f"restarted-process preview {warm['warm_start_preview_seconds']:.4f}s "
        f"({warm['warm_start_speedup']:.0f}x, "
        f"matrix_builds={warm['restart_matrix_builds']}, "
        f"mc_searches={warm['restart_mc_searches']}, "
        f"bit_identical={warm['bit_identical']})"
    )
    print(
        f"domain revalidation: preserving append -> "
        f"{reval['revalidated_preview_seconds']:.4f}s re-tag "
        f"(revalidated={reval['preserving_append_revalidated']}, "
        f"rebuilt={reval['preserving_append_rebuilt']}); changing append -> "
        f"{reval['rebuild_preview_seconds']:.3f}s rebuild "
        f"({reval['revalidate_vs_rebuild_speedup']:.0f}x apart)"
    )
    failures = 0
    if not warm["zero_rebuild_restart"]:
        print(
            f"FAILURE: the restarted process rebuilt "
            f"{warm['restart_matrix_builds']} matrices and re-ran "
            f"{warm['restart_mc_searches']} Monte-Carlo searches (expected 0/0)",
            file=sys.stderr,
        )
        failures += 1
    if not warm["bit_identical"]:
        print(
            "FAILURE: the warm-started preview is not bit-identical to the "
            "cold result",
            file=sys.stderr,
        )
        failures += 1
    if not reval["preserving_append_revalidated"] or reval["preserving_append_rebuilt"]:
        print(
            "FAILURE: a domain-preserving append did not revalidate "
            "(or rebuilt anyway)",
            file=sys.stderr,
        )
        failures += 1
    if not reval["preserving_costs_identical"]:
        print(
            "FAILURE: the revalidated preview changed the translation answer",
            file=sys.stderr,
        )
        failures += 1
    if not reval["changing_append_rebuilt"] or reval["changing_append_revalidated"]:
        print(
            "FAILURE: a domain-changing append did not rebuild conservatively",
            file=sys.stderr,
        )
        failures += 1
    return failures


def _print_reliability_summary(payload: dict, output: str) -> int:
    wal = payload["wal_overhead"]
    recovery = payload["recovery_latency"]
    exerciser = payload["exerciser"]
    print(f"wrote {output}")
    print(
        f"WAL overhead: budget stress {wal['wal_off_requests_per_second']:.1f} req/s "
        f"bare -> {wal['wal_on_requests_per_second']:.1f} req/s journaled "
        f"({wal['throughput_ratio']:.2f}x, {wal['journal_records']} fsync'd "
        f"records, safety_preserved={wal['safety_preserved']})"
    )
    print(
        f"recovery: {recovery['n_records']} records scanned+adopted in "
        f"{recovery['recovery_seconds'] * 1e3:.1f}ms "
        f"({recovery['records_per_second']:.0f} rec/s, "
        f"transcript_valid={recovery['transcript_valid']})"
    )
    print(
        f"exerciser: {exerciser['histories']} histories "
        f"({exerciser['crashes']} kill -9, {exerciser['torn_tails']} torn tails) "
        f"in {exerciser['wall_seconds']:.1f}s, all_ok={exerciser['all_ok']}"
    )
    failures = 0
    if not wal["safety_preserved"]:
        print(
            "FAILURE: the journaled budget-stress run broke a safety "
            "invariant (overspend, invalid transcript, or request errors)",
            file=sys.stderr,
        )
        failures += 1
    if not (
        recovery["committed_exact"]
        and recovery["inflight_conservative"]
        and recovery["transcript_valid"]
    ):
        print(
            "FAILURE: journal recovery did not reproduce the books exactly "
            f"(committed_exact={recovery['committed_exact']}, "
            f"inflight_conservative={recovery['inflight_conservative']}, "
            f"transcript_valid={recovery['transcript_valid']})",
            file=sys.stderr,
        )
        failures += 1
    if not exerciser["all_ok"]:
        print(
            f"FAILURE: the history exerciser found "
            f"{len(exerciser['violations'])} invariant violations: "
            f"{exerciser['violations']}",
            file=sys.stderr,
        )
        failures += 1
    return failures


def _print_workloads_summary(payload: dict, output: str) -> int:
    preserve = payload["preserve_stream"]
    restart = payload["named_restart"]
    exerciser = payload["exerciser"]
    print(f"wrote {output}")
    print(
        f"preserve stream: {preserve['rows_total']} rows over "
        f"{preserve['periods']} periods: hit_rate="
        f"{preserve['revalidation_hit_rate']:.3f} "
        f"({preserve['built_after_warmup']} rebuilds, "
        f"{preserve['revalidated']} revalidations, "
        f"{preserve['mean_period_preview_seconds'] * 1e3:.1f}ms/period)"
    )
    for mode in payload["drift_modes"]:
        print(
            f"  {mode['drift']}: {mode['built_after_warmup']} rebuilds on "
            f"{mode['scheduled_fingerprint_changes']} scheduled changes, "
            f"{mode['revalidated']} revalidations"
        )
    print(
        f"named restart: {restart['cold_preview_seconds']:.3f}s cold -> "
        f"{restart['warm_start_preview_seconds']:.3f}s fresh-process warm "
        f"({restart['warm_start_speedup']:.1f}x, "
        f"zero_rebuild={restart['zero_rebuild_restart']}, "
        f"bit_identical={restart['bit_identical']}, "
        f"bare_bypass={restart['bare_control_bypasses_disk']})"
    )
    print(
        f"exerciser: {len(exerciser['histories'])} generated-stream histories, "
        f"all_ok={exerciser['all_ok']}"
    )
    failures = 0
    if not (
        preserve["zero_rebuilds_after_warmup"]
        and preserve["revalidation_hit_rate"] >= 0.95
    ):
        print(
            "FAILURE: the preserve-mode stream rebuilt translations after "
            f"warmup (hit_rate={preserve['revalidation_hit_rate']:.3f})",
            file=sys.stderr,
        )
        failures += 1
    if not (restart["zero_rebuild_restart"] and restart["bit_identical"]):
        print(
            "FAILURE: the named-predicate restart did not warm-start from "
            "the disk tier bit-identically",
            file=sys.stderr,
        )
        failures += 1
    if not restart["bare_control_bypasses_disk"]:
        print(
            "FAILURE: a bare opaque predicate reached the disk tier",
            file=sys.stderr,
        )
        failures += 1
    if not exerciser["all_ok"]:
        print(
            "FAILURE: a generated-workload exerciser history violated a "
            "recovery invariant",
            file=sys.stderr,
        )
        failures += 1
    return failures


def _print_obs_summary(payload: dict, output: str) -> int:
    overhead = payload["tracing_overhead"]
    poll = payload["registry_poll"]
    chain = payload["span_chain"]
    print(f"wrote {output}")
    baseline = overhead["modes"]["baseline"]
    print(
        f"tracing overhead: baseline {baseline['requests_per_second']:.1f} req/s; "
        + ", ".join(
            f"{mode} {record['overhead_vs_baseline'] * 100:+.2f}%"
            for mode, record in overhead["modes"].items()
            if mode != "baseline"
        )
        + f" (target <= {overhead['overhead_target'] * 100:.0f}% disabled, "
        f"attempt {overhead['attempts']})"
    )
    print(
        f"registry poll: {poll['n_metrics']} metrics validated in "
        f"{poll['seconds_per_poll'] * 1e3:.2f}ms/poll "
        f"(scheme_conformant={poll['scheme_conformant']})"
    )
    print(
        f"span chain: preview_complete={chain['preview_chain_complete']}, "
        f"explore_complete={chain['explore_chain_complete']}, "
        f"cache_tiers_match={chain['cache_tiers_match_counters']} "
        f"(labels={chain['cache_tier_labels']}, "
        f"{chain['chrome_events']} chrome events)"
    )
    failures = 0
    if not overhead["within_target"]:
        print(
            f"FAILURE: tracing-disabled overhead "
            f"{overhead['disabled_overhead'] * 100:.2f}% exceeds the "
            f"{OBS_OVERHEAD_TARGET * 100:.0f}% target",
            file=sys.stderr,
        )
        failures += 1
    if not overhead["safety_preserved"]:
        print(
            "FAILURE: a traced budget-stress run broke a safety invariant "
            "(overspend, invalid transcript, or request errors)",
            file=sys.stderr,
        )
        failures += 1
    if not (poll["scheme_conformant"] and poll["has_cache_tiers"]):
        print(
            "FAILURE: the metrics catalog violates the "
            "repro_<subsystem>_<name> scheme or lacks the cache-tier "
            "counters",
            file=sys.stderr,
        )
        failures += 1
    if not (
        chain["preview_chain_complete"] and chain["explore_chain_complete"]
    ):
        print(
            f"FAILURE: the acceptance trace is missing spans "
            f"(preview: {chain['preview_missing']}, "
            f"explore: {chain['explore_missing']})",
            file=sys.stderr,
        )
        failures += 1
    if not chain["cache_tiers_match_counters"]:
        print(
            f"FAILURE: cache_tier span labels {chain['cache_tier_labels']} "
            f"diverge from the translator counters "
            f"{chain['cache_tier_deltas']}",
            file=sys.stderr,
        )
        failures += 1
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run the engine and/or service microbenchmark suites.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="scaled-down run (20k rows, fewer repeats) for CI smoke tests",
    )
    parser.add_argument(
        "--suite",
        choices=(
            "engine",
            "service",
            "shards",
            "snapshots",
            "store",
            "reliability",
            "workloads",
            "obs",
            "all",
        ),
        default="all",
        help="which suite to run (default: all)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help="path of the JSON payload; only valid with a single --suite "
        "(defaults: BENCH_1.json for engine, BENCH_2.json for service, "
        "BENCH_3.json for shards, BENCH_4.json for snapshots, "
        "BENCH_5.json for store, BENCH_6.json for reliability, "
        "BENCH_7.json for workloads, BENCH_9.json for obs)",
    )
    parser.add_argument(
        "--seed", type=int, default=20190501, help="seed for the synthetic table"
    )
    args = parser.parse_args(argv)
    if args.output is not None and args.suite == "all":
        parser.error("--output requires a single --suite")

    failures = 0
    if args.suite in ("engine", "all"):
        output = args.output or "BENCH_1.json"
        payload = run_microbenchmarks(quick=args.quick, seed=args.seed)
        write_bench_json(output, payload)
        _print_engine_summary(payload, output)
    if args.suite in ("service", "all"):
        output = args.output or "BENCH_2.json"
        payload = run_service_microbenchmarks(quick=args.quick, seed=args.seed)
        write_bench_json(output, payload)
        failures += _print_service_summary(payload, output)
    if args.suite in ("shards", "all"):
        output = args.output or "BENCH_3.json"
        payload = run_shard_microbenchmarks(quick=args.quick, seed=args.seed)
        write_bench_json(output, payload)
        failures += _print_shard_summary(payload, output)
    if args.suite in ("snapshots", "all"):
        output = args.output or "BENCH_4.json"
        payload = run_snapshot_microbenchmarks(quick=args.quick, seed=args.seed)
        write_bench_json(output, payload)
        failures += _print_snapshot_summary(payload, output)
    if args.suite in ("store", "all"):
        output = args.output or "BENCH_5.json"
        payload = run_store_microbenchmarks(quick=args.quick, seed=args.seed)
        write_bench_json(output, payload)
        failures += _print_store_summary(payload, output)
    if args.suite in ("reliability", "all"):
        output = args.output or "BENCH_6.json"
        payload = run_reliability_microbenchmarks(quick=args.quick, seed=args.seed)
        write_bench_json(output, payload)
        failures += _print_reliability_summary(payload, output)
    if args.suite in ("workloads", "all"):
        output = args.output or "BENCH_7.json"
        payload = run_workload_microbenchmarks(quick=args.quick, seed=args.seed)
        write_bench_json(output, payload)
        failures += _print_workloads_summary(payload, output)
    if args.suite in ("obs", "all"):
        output = args.output or "BENCH_9.json"
        payload = run_obs_microbenchmarks(quick=args.quick, seed=args.seed)
        write_bench_json(output, payload)
        failures += _print_obs_summary(payload, output)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
