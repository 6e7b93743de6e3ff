package main

// metricDef names one metric and its unit. BENCHMARK.json carries the
// same names and units plus the regression bounds; the smoke test checks
// the two lists agree.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system sees. Every workload reports
// every one (untraced run); what "op" means is the workload's own
// client-visible operation — see README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"live_heap_mb", "MB"},
}

// perLayer is one block per module, from the traced run. Timings are
// differences of adjacent ladder rungs; the rest are counters read from
// the layer's own public stats. A workload that bypasses a layer reports
// 0 for it — that is the evidence it is bypassed.
var perLayer = []metricDef{
	// The traced T0 rung, next to the untraced op_p50_ms: the gap is the
	// tracing overhead. p99 is here, not gated, because few workloads
	// have the thousand samples per pass it needs.
	{"trace.t0_p50_ms", "ms"},
	{"trace.t0_p99_ms", "ms"},

	{"httpserve.socket_us", "us"},
	{"httpserve.handler_us", "us"},
	{"httpserve.encode_us_per_cell", "us"},
	{"httpserve.bytes_per_cell", "B"},
	{"httpserve.shed", "count"},

	{"icebergcube.decode_us_per_cell", "us"},
	{"icebergcube.allocs_per_cell", "count"},

	{"serve.hit_us", "us"},
	{"serve.derive_us_per_kcell", "us"},
	{"serve.cold_fold_ms", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.ancestor_share", "ratio"},
	{"serve.evictions", "count"},
	{"serve.resident_mb", "MB"},
	{"serve.cells_scanned_per_query", "count"},

	{"ingest.append_us_per_row", "us"},
	{"ingest.commit_ms", "ms"},
	{"ingest.commit_reported_ms", "ms"},
	{"ingest.folded_cuboids_per_commit", "count"},
	{"ingest.recover_ms_per_commit", "ms"},

	{"wal.append_us", "us"},
	{"wal.sync_ms", "ms"},
	{"wal.syncs_per_commit", "count"},
	{"wal.bytes_per_row", "B"},
	{"wal.replay_ms", "ms"},

	{"segment.scan_ms", "ms"},
	{"segment.read_s", "s"},
	{"segment.bytes_read_per_query", "B"},
	{"segment.blocks_skipped_share", "ratio"},
	{"segment.bytes_per_row", "B"},
	{"segment.write_rows_per_s", "1/s"},

	{"core.pt_s", "s"},
	{"core.bpp_s", "s"},
	{"results.sink_s", "s"},
	{"relation.sort_ns_per_row", "ns"},
	{"core.virtual_makespan_s", "s"},
	{"core.cells_written", "count"},
	{"cluster.load_imbalance", "ratio"},
	{"core.spill_peak_mb", "MB"},
	{"core.spill_bytes", "B"},
}

// workloadDef names one workload; BENCHMARK.json and README.md say why
// each exists.
type workloadDef struct {
	name string
	run  func(*run) error
}

var workloads = []workloadDef{
	{"cube_batch", (*run).cubeBatch},
	{"serve_hot", (*run).serveHot},
	{"serve_thrash", (*run).serveThrash},
	{"serve_write", (*run).serveWrite},
	{"recover", (*run).recoverWAL},
	{"cold_scan", (*run).coldScan},
}
