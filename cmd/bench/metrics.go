package main

// metricDef names one metric of BENCHMARK.json. bound is the share of
// the parent's median by which a later change may worsen an end-to-end
// metric; per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what every workload reports with -trace 0, each at the
// reference machine speed (calib.go). The operation behind ops_per_s and
// op_p50_ms is the workload's own; README.md has the table. The bounds are
// the widest the contract allows because the shared box they were sized
// on changes speed by 25-30 % for minutes at a time: at the reference
// speed ten runs spread 4-7 % between quartiles, up to 12 % when the host
// changes speed under them, and the judge's box was noisier than the
// authoring one (README.md, "Measured noise").
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"op_p50_ms", "ms", lower, 0.25},
}

// perLayer is every per-layer metric of BENCHMARK.json, named
// <package>.<metric>. A traced run reports all of them; a metric of a
// layer the workload does not drive reads 0. README.md says which
// workload measures which, and which end-to-end metric each should move.
var perLayer = []metricDef{
	{"webcorpus.tick_ms", "ms", lower, 0},
	{"webcorpus.texts_ms", "ms", lower, 0},
	{"webcorpus.pages_final", "count", higher, 0},
	{"webcorpus.links_final", "count", higher, 0},
	{"webcorpus.worker_speedup", "ratio", higher, 0},
	{"ranking.rank_calls", "count", higher, 0},
	{"ranking.rank_us", "us", lower, 0},
	{"webserver.render_us", "us", lower, 0},
	{"webserver.page_bytes", "bytes", lower, 0},
	{"crawler.crawl_s", "s", lower, 0},
	{"crawler.fetch_us", "us", lower, 0},
	{"crawler.extract_us_per_page", "us", lower, 0},
	{"crawler.fetched", "count", higher, 0},
	{"crawler.retries", "count", lower, 0},
	{"crawler.errors", "count", lower, 0},
	{"pagestore.put_us", "us", lower, 0},
	{"pagestore.sync_ms", "ms", lower, 0},
	{"pagestore.body_bytes", "bytes", higher, 0},
	{"pagestore.disk_bytes", "bytes", lower, 0},
	{"pagestore.segments", "count", lower, 0},
	{"pagestore.open_ms", "ms", lower, 0},
	{"pagestore.readlive_ms", "ms", lower, 0},
	{"corpus.extract_ms", "ms", lower, 0},
	{"corpus.extract_alloc_mb", "MiB", lower, 0},
	{"corpus.worker_speedup", "ratio", higher, 0},
	{"snapshot.read_ms", "ms", lower, 0},
	{"snapshot.align_ms", "ms", lower, 0},
	{"snapshot.write_ms", "ms", lower, 0},
	{"pagerank.full_ms", "ms", lower, 0},
	{"pagerank.full_iters", "count", lower, 0},
	{"pagerank.incremental_ms", "ms", lower, 0},
	{"pagerank.incremental_iters", "count", lower, 0},
	{"pagerank.worker_speedup", "ratio", higher, 0},
	{"quality.estimate_ms", "ms", lower, 0},
	{"quality.mean_q", "ratio", higher, 0},
	{"search.add_us_per_doc", "us", lower, 0},
	{"search.freeze_ms", "ms", lower, 0},
	{"search.shard_ms", "ms", lower, 0},
	{"search.query_us_cold", "us", lower, 0},
	{"search.query_us_hot", "us", lower, 0},
	{"search.shard_speedup", "ratio", higher, 0},
	{"qualityserve.start_s", "s", lower, 0},
	{"qualityserve.refresh_replay_s", "s", lower, 0},
	{"qualityserve.refresh_unattributed_share", "ratio", lower, 0},
	{"qualityserve.cache_hit_ratio", "ratio", higher, 0},
	{"qualityserve.searches_per_req", "ratio", lower, 0},
	{"qualityserve.shed", "count", lower, 0},
	{"qualityserve.http_overhead_us", "us", lower, 0},
	{"qualityserve.cpu_us_per_req", "us", lower, 0},
	{"qualityserve.peak_rss_mb", "MiB", lower, 0},
	{"qualityserve.open_p50_ms_r500", "ms", lower, 0},
	{"qualityserve.open_p99_ms_r500", "ms", lower, 0},
	{"qualityserve.open_p50_ms_r1500", "ms", lower, 0},
	{"qualityserve.open_p99_ms_r1500", "ms", lower, 0},
	{"qualityserve.p50_ms_during_refresh", "ms", lower, 0},
	{"qualityserve.refresh_s_under_load", "s", lower, 0},
	{"loadgen.late_p99_ms", "ms", lower, 0},
	{"loadgen.client_cpu_share", "ratio", lower, 0},
	{"bench.build_s", "s", lower, 0},
	{"bench.trace_overhead_share", "ratio", lower, 0},
	{"bench.machine_speed", "ratio", higher, 0},
	{"bench.nproc", "count", higher, 0},
	{"bench.gomaxprocs", "count", higher, 0},
}

func isPerLayer(name string) bool {
	for _, d := range perLayer {
		if d.name == name {
			return true
		}
	}
	return false
}
