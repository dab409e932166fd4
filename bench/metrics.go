package main

// The metric catalogue. BENCHMARK.json repeats these names, units and
// directions (and fixes the end-to-end bounds);
// TestCatalogueMatchesBenchmarkJSON keeps the two in step. Every run prints every metric of its pass: an end-to-end
// metric is measured on every workload, a per-layer metric reads 0 where
// its layer is not on the path (trinc.* on pbft-sat, recovery.* off
// failover).

type metricDef struct {
	name, unit, better string
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"lat_p50_ms", "ms", "lower"},
	{"lat_p90_ms", "ms", "lower"},
	{"allocs_per_op", "count", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	// wire (microbench)
	{"wire.encode_ns", "ns", "lower"},
	{"wire.decode_ns", "ns", "lower"},
	{"wire.encode_allocs", "count", "lower"},
	// sig (microbench, counters)
	{"sig.ed25519_sign_us", "us", "lower"},
	{"sig.ed25519_verify_us", "us", "lower"},
	{"sig.fastverify_hit_ns", "ns", "lower"},
	{"sig.fastverify_miss_us", "us", "lower"},
	{"sig.verifies_per_op", "count", "lower"},
	{"sig.cache_hit_ratio", "ratio", "higher"},
	// trusted (microbench, counters)
	{"trinc.attest_us", "us", "lower"},
	{"trinc.attest_wal_us", "us", "lower"},
	{"trinc.check_us", "us", "lower"},
	{"ctrstore.record_us", "us", "lower"},
	{"ctrstore.record_sync_us", "us", "lower"},
	{"trinc.attests_per_op", "count", "lower"},
	{"ctrstore.wal_bytes_per_op", "B", "lower"},
	// tcpnet (microbench, counters)
	{"tcpnet.rtt_us", "us", "lower"},
	{"tcpnet.stream_mb_per_s", "MB/s", "higher"},
	{"tcpnet.frames_per_op", "count", "lower"},
	{"tcpnet.bytes_per_op", "B", "lower"},
	{"tcpnet.frames_per_flush", "count", "higher"},
	// smr (microbench, counters)
	{"smr.batch_trigger_ns", "ns", "lower"},
	{"smr.admit_ns", "ns", "lower"},
	{"smr.reqs_codec_us", "us", "lower"},
	{"smr.read_codec_us", "us", "lower"},
	{"smr.ckpt_encode_ms", "ms", "lower"},
	{"smr.sheds", "count", "lower"},
	{"smr.read_escalations", "count", "lower"},
	{"smr.leased_read_ratio", "ratio", "higher"},
	// order: minbft / pbft (counters, spans)
	{"order.reqs_per_batch", "count", "higher"},
	{"order.batches_per_s", "1/s", "higher"},
	{"order.commit_p50_us", "us", "lower"},
	{"order.view_changes", "count", "lower"},
	{"order.checkpoints", "count", "lower"},
	{"order.state_transfers", "count", "lower"},
	{"order.paced_proposals", "count", "lower"},
	{"order.exec_lag_max", "count", "lower"},
	{"phase.client_us", "us", "lower"},
	{"phase.batch_wait_us", "us", "lower"},
	{"phase.propose_us", "us", "lower"},
	{"phase.ui_attest_us", "us", "lower"},
	{"phase.commit_quorum_us", "us", "lower"},
	{"phase.execute_us", "us", "lower"},
	{"phase.reply_us", "us", "lower"},
	{"phase.other_us", "us", "lower"},
	{"phase.samples", "count", "higher"},
	// kvstore (microbench)
	{"kvstore.apply_ns", "ns", "lower"},
	{"kvstore.query_ns", "ns", "lower"},
	{"kvstore.snapshot_ms", "ms", "lower"},
	{"kvstore.restore_ms", "ms", "lower"},
	// recovery (failover only)
	{"recovery.outage_ms", "ms", "lower"},
	{"recovery.view_change_ms", "ms", "lower"},
	{"recovery.ops_due_in_outage", "count", "lower"},
	{"recovery.catchup_ms", "ms", "lower"},
	{"recovery.restart_stall_ms", "ms", "lower"},
	// client / process
	{"client.write_p50_ms", "ms", "lower"},
	{"client.read_p50_ms", "ms", "lower"},
	{"client.read_p90_ms", "ms", "lower"},
	{"client.lat_mean_ms", "ms", "lower"},
	{"client.lat_p99_ms", "ms", "lower"},
	{"client.lat_max_ms", "ms", "lower"},
	{"client.gen_late_max_ms", "ms", "lower"},
	{"client.stalls_50ms", "count", "lower"},
	{"client.readback_retries", "count", "lower"},
	{"proc.cpu_us_per_op", "us", "lower"},
	{"proc.gc_pause_ms", "ms", "lower"},
	{"proc.alloc_kb_per_op", "kB", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	// budget: CPU and allocation shares by layer (each group sums to 1)
	{"cpu_share.sig", "ratio", "lower"},
	{"cpu_share.trusted", "ratio", "lower"},
	{"cpu_share.tcpnet", "ratio", "lower"},
	{"cpu_share.wire", "ratio", "lower"},
	{"cpu_share.smr", "ratio", "lower"},
	{"cpu_share.order", "ratio", "lower"},
	{"cpu_share.kvstore", "ratio", "lower"},
	{"cpu_share.obs", "ratio", "lower"},
	{"cpu_share.runtime", "ratio", "lower"},
	{"cpu_share.bench", "ratio", "lower"},
	{"alloc_share.sig", "ratio", "lower"},
	{"alloc_share.trusted", "ratio", "lower"},
	{"alloc_share.tcpnet", "ratio", "lower"},
	{"alloc_share.wire", "ratio", "lower"},
	{"alloc_share.smr", "ratio", "lower"},
	{"alloc_share.order", "ratio", "lower"},
	{"alloc_share.kvstore", "ratio", "lower"},
	{"alloc_share.obs", "ratio", "lower"},
	{"alloc_share.runtime", "ratio", "lower"},
	{"alloc_share.bench", "ratio", "lower"},
}

// layers is the budget's attribution target set, in report order.
var layers = []string{"sig", "trusted", "tcpnet", "wire", "smr", "order", "kvstore", "obs", "runtime", "bench"}
