package main

import (
	"fmt"
	"regexp"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics every workload reports from untraced runs.
// work_per_s counts the workload's own unit of work: grid points on
// sweep-dyn and fabric-sweep, certified pairs on certify-large and
// requests of the fixed cold+warm mix on serve-run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_mib", "MiB", "lower"},
	{"work_per_s", "1/s", "higher"},
}

// perLayer are the metrics of the traced run, one group per module.
// Times and counts are per round of the workload's fixed work; tail
// percentiles pool every traced round. A layer a workload does not
// reach reads 0 there.
var perLayer = []metricDef{
	{"scenario.points", "count", "higher"},
	{"scenario.point_ms_p50", "ms", "lower"},
	{"scenario.point_ms_p90", "ms", "lower"},
	{"scenario.self_s", "s", "lower"},
	{"core.instance_s", "s", "lower"},
	{"dynamics.busy_s.fresh", "s", "lower"},
	{"dynamics.busy_s.incremental", "s", "lower"},
	{"dynamics.self_s", "s", "lower"},
	{"dynamics.moves", "count", "lower"},
	{"dynamics.moves_per_s", "1/s", "higher"},
	{"dynamics.rows_reused", "count", "higher"},
	{"dynamics.rows_settled", "count", "lower"},
	{"dynamics.rows_relaxed", "count", "lower"},
	{"dynamics.row_reuse_ratio", "ratio", "higher"},
	{"oracle.calls", "count", "lower"},
	{"oracle.calls_per_move", "ratio", "lower"},
	{"oracle.busy_s.exact", "s", "lower"},
	{"oracle.busy_s.local-search", "s", "lower"},
	{"oracle.busy_s.greedy", "s", "lower"},
	{"oracle.call_us_p50", "us", "lower"},
	{"oracle.call_us_p99", "us", "lower"},
	{"oracle.exact_evals", "count", "lower"},
	{"churn.events", "count", "higher"},
	{"churn.busy_s", "s", "lower"},
	{"core.certify_us", "us", "lower"},
	{"core.fold_s.star", "s", "lower"},
	{"core.fold_s.chain", "s", "lower"},
	{"core.fold_pairs", "count", "higher"},
	{"core.fold_bands", "count", "lower"},
	{"core.fold_resident_mib", "MiB", "lower"},
	{"core.streamed_ms", "ms", "lower"},
	{"serve.requests.cold", "count", "higher"},
	{"serve.requests.warm", "count", "higher"},
	{"serve.failed", "count", "lower"},
	{"serve.handler_ms_p50.cold", "ms", "lower"},
	{"serve.handler_us_p50.warm", "us", "lower"},
	{"serve.http_us_p50", "us", "lower"},
	{"serve.hash_us_p50", "us", "lower"},
	{"serve.lru_hit_share", "ratio", "higher"},
	{"serve.runs_total", "count", "lower"},
	{"cas.open_ms", "ms", "lower"},
	{"cas.entries_start", "count", "higher"},
	{"cas.puts", "count", "lower"},
	{"cas.put_ms_p50", "ms", "lower"},
	{"cas.put_ms_p90", "ms", "lower"},
	{"cas.read_through", "count", "lower"},
	{"cas.get_us_p50", "us", "lower"},
	{"fabric.shards", "count", "lower"},
	{"fabric.points_executed", "count", "higher"},
	{"fabric.reassigned", "count", "lower"},
	{"fabric.retried", "count", "lower"},
	{"fabric.next_calls", "count", "lower"},
	{"fabric.empty_next_share", "ratio", "lower"},
	{"fabric.next_ms_p50", "ms", "lower"},
	{"fabric.complete_ms_p50", "ms", "lower"},
	{"fabric.handler_us_p50", "us", "lower"},
	{"fabric.point_ms_p50", "ms", "lower"},
	{"fabric.worker_busy_share", "ratio", "higher"},
	{"trace.overhead_share", "ratio", "lower"},
	{"trace.uncovered_share", "ratio", "lower"},
}

// metricNamePattern is the charset BENCHMARK.json allows for names.
var metricNamePattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetricName rejects a name outside the allowed charset.
func checkMetricName(name string) error {
	if !metricNamePattern.MatchString(name) {
		return fmt.Errorf("metric name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
	}
	return nil
}
