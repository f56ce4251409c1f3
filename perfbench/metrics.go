package main

import (
	"fmt"
	"io"
	"time"
)

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (see TestBenchmarkJSONAgrees).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"oltp_ops_s", "ops/s", "higher"},
	{"read_p50_us", "us", "lower"},
	{"write_p50_us", "us", "lower"},
	{"scan_ops_s", "ops/s", "higher"},
	{"scan_p50_ms", "ms", "lower"},
	{"mem_bytes_per_row", "B", "lower"},
	{"recovery_mb_s", "MB/s", "higher"},
}

// timing is a per-layer latency family measured from one span name.
type timing struct {
	name string
	span spanName
	unit time.Duration
}

var timings = []timing{
	{"core.insert_us", spCoreInsert, time.Microsecond},
	{"core.update_us", spCoreUpdate, time.Microsecond},
	{"core.delete_us", spCoreDelete, time.Microsecond},
	{"core.view_open_us", spCoreViewOpen, time.Microsecond},
	{"core.get_us", spCoreGet, time.Microsecond},
	{"core.aggregate_ms", spCoreAggregate, time.Millisecond},
	{"core.commit_us", spCoreCommit, time.Microsecond},
	{"mvcc.begin_us", spMvccBegin, time.Microsecond},
	{"sql.compile_us", spSQLCompile, time.Microsecond},
	{"sql.execute_us.point", spSQLExecPoint, time.Microsecond},
	{"sql.execute_us.insert", spSQLExecInsert, time.Microsecond},
	{"sql.execute_us.update", spSQLExecUpdate, time.Microsecond},
	{"sql.execute_us.delete", spSQLExecDelete, time.Microsecond},
	{"sql.execute_us.scanagg", spSQLExecScanAgg, time.Microsecond},
}

func unitName(d time.Duration) string {
	if d == time.Millisecond {
		return "ms"
	}
	return "us"
}

// perLayerCounts are the per-layer metrics that are not span timings.
var perLayerCounts = []metricDef{
	{"sql.plan_cache_hit_ratio", "fraction", "higher"},
	{"wal.bytes_per_write", "B", "lower"},
	{"wal.syncs_per_commit", "ratio", "lower"},
	{"merge.l1_per_s", "1/s", "higher"},
	{"merge.main_count", "count", "higher"},
	{"merge.l1_busy_frac", "fraction", "lower"},
	{"merge.main_busy_frac", "fraction", "lower"},
	{"merge.failures", "count", "lower"},
	{"merge.delta_rows_end", "rows", "lower"},
	{"scan.decode_hit_ratio", "fraction", "higher"},
	{"layer.client.share", "fraction", "lower"},
	{"layer.mvcc.share", "fraction", "lower"},
	{"layer.core.share", "fraction", "lower"},
	{"layer.sql.share", "fraction", "lower"},
	{"trace.overhead", "fraction", "lower"},
	{"client.error_rate", "fraction", "lower"},
}

// perLayer lists every metric of a traced run: p50, p99 and sample
// count of each timing, then the counts and ratios.
func perLayer() []metricDef {
	var out []metricDef
	for _, t := range timings {
		u := unitName(t.unit)
		out = append(out,
			metricDef{t.name + ".p50", u, "lower"},
			metricDef{t.name + ".p99", u, "lower"},
			metricDef{t.name + ".n", "count", "higher"})
	}
	return append(out, perLayerCounts...)
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects metric values in definition order and prints each
// on its own line, with the sample count and any note beside it.
type report struct {
	w      io.Writer
	values map[string]value
}

func (r *report) set(d metricDef, v float64, note string) {
	r.values[d.name] = value{Value: v, Unit: d.unit}
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(r.w, "%-32s %14.4f %-8s%s\n", d.name, v, d.unit, note)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// pctNote renders a percentile of s in unit, noting the sample count
// and whether it supports the percentile. An unsupported percentile
// reads 0.
func pctNote(s *samples, p float64, unit time.Duration) (float64, string) {
	v, ok := s.pct(p)
	switch {
	case s.n() == 0:
		return 0, "n=0: not exercised by this workload"
	case !ok:
		return 0, fmt.Sprintf("n=%d: too few samples for p%g, needs %d beyond it", s.n(), p, minBeyond)
	}
	return float64(v) / float64(unit), fmt.Sprintf("n=%d", s.n())
}

func metricByName(defs []metricDef, name string) metricDef {
	for _, d := range defs {
		if d.name == name {
			return d
		}
	}
	panic("perfbench: unknown metric " + name)
}

// reportEndToEnd fills the end-to-end metrics of an untraced run.
func reportEndToEnd(r *report, res *runResult) {
	set := func(name string, v float64, note string) { r.set(metricByName(endToEnd, name), v, note) }
	setups := make([]float64, len(res.setups))
	for i, d := range res.setups {
		setups[i] = d.Seconds()
	}
	set("setup_s", median(setups), fmt.Sprintf("median of %d set-ups", len(setups)))
	set("oltp_ops_s", res.oltpOpsPerSec(), fmt.Sprintf("median of %d one-second slices; %d ops in %.3fs",
		len(res.secs), res.read.n()+res.write.n(), res.window.Seconds()))
	secondsP50 := func(name string, pick func(*second) *samples, whole *samples) {
		d, ok := res.secondsPct(pick, 50)
		note := fmt.Sprintf("median of per-second p50s; n=%d", whole.n())
		if !ok {
			note = fmt.Sprintf("n=%d: too few seconds with %d samples beyond their p50", whole.n(), minBeyond)
		}
		set(name, float64(d)/float64(time.Microsecond), note)
	}
	secondsP50("read_p50_us", func(s *second) *samples { return &s.read }, &res.read)
	unrecorded(r.w, "read_p99_us", &res.read, time.Microsecond)
	secondsP50("write_p50_us", func(s *second) *samples { return &s.write }, &res.write)
	unrecorded(r.w, "write_p99_us", &res.write, time.Microsecond)
	where := "in the window"
	if res.probe {
		where = "quiescent probe before the window"
	}
	set("scan_ops_s", ratio(float64(res.scan.n()), res.scanSeconds), where)
	v, note := pctNote(&res.scan, 50, time.Millisecond)
	set("scan_p50_ms", v, note+", "+where)
	unrecorded(r.w, "scan_p99_ms", &res.scan, time.Millisecond)
	set("mem_bytes_per_row", res.memBytesPerRow, "")
	set("recovery_mb_s", ratio(float64(res.redoBytes)/1e6, res.recoverySec),
		fmt.Sprintf("%d redo bytes in %.3fs, median of %d reopens", res.redoBytes, res.recoverySec, res.recoveryRuns))
}

// unrecorded prints a p99 that is not a metric of record: one whose
// run-to-run spread exceeds any bound BENCHMARK.json may set, or whose
// sample is too small on some workloads (see README.md).
func unrecorded(w io.Writer, name string, s *samples, unit time.Duration) {
	v, note := pctNote(s, 99, unit)
	fmt.Fprintf(w, "%-32s %14.4f %-8s  (%s; not a metric of record)\n", name, v, unitName(unit), note)
}

// reportPerLayer fills the per-layer metrics from a traced run and
// the untraced run made beside it.
func reportPerLayer(r *report, traced, untraced *runResult) {
	defs := perLayer()
	set := func(name string, v float64, note string) { r.set(metricByName(defs, name), v, note) }

	var byName [numSpanNames]samples
	busy := 0.0
	self := map[string]float64{}
	for _, t := range traced.tracers {
		st := selfTimes(t.spans)
		for i, s := range t.spans {
			byName[s.name].add(time.Duration(s.end - s.start))
			self[s.name.layer()] += float64(st[i])
			if s.parent < 0 {
				busy += float64(s.end - s.start)
			}
		}
	}
	for _, t := range timings {
		s := &byName[t.span]
		v, note := pctNote(s, 50, t.unit)
		set(t.name+".p50", v, note)
		v, note = pctNote(s, 99, t.unit)
		set(t.name+".p99", v, note)
		set(t.name+".n", float64(s.n()), "")
	}

	b, a := traced.before, traced.after
	win := traced.window.Seconds()
	set("sql.plan_cache_hit_ratio", ratio(float64(a.planHits-b.planHits), float64(a.planHits-b.planHits+a.planMisses-b.planMisses)), "")
	set("wal.bytes_per_write", ratio(float64(a.redoBytes-b.redoBytes), float64(traced.writes)), "")
	set("wal.syncs_per_commit", ratio(float64(a.walSyncs-b.walSyncs), float64(traced.commits)), "")
	set("merge.l1_per_s", ratio(float64(a.l1Merges-b.l1Merges), win), "")
	set("merge.main_count", float64(a.mainMerges-b.mainMerges), "")
	set("merge.l1_busy_frac", ratio(a.l1MergeSec-b.l1MergeSec, win), "")
	set("merge.main_busy_frac", ratio(a.mainMergeSec-b.mainMergeSec, win), "")
	set("merge.failures", float64(a.mergeFailures-b.mergeFailures), "")
	set("merge.delta_rows_end", float64(traced.deltaRowsEnd), "")
	set("scan.decode_hit_ratio", ratio(float64(a.decodeHits-b.decodeHits), float64(a.decodeHits-b.decodeHits+a.decodeMisses-b.decodeMisses)), "")
	for _, l := range layers {
		set("layer."+l+".share", ratio(self[l], busy), "")
	}
	set("trace.overhead", 1-ratio(traced.oltpOpsPerSec(), untraced.oltpOpsPerSec()),
		fmt.Sprintf("oltp_ops_s traced %.1f, untraced %.1f", traced.oltpOpsPerSec(), untraced.oltpOpsPerSec()))
	set("client.error_rate", ratio(float64(traced.failed+untraced.failed), float64(traced.attempted+untraced.attempted)), "")
}
