package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	sqlfe "repro/internal/sql"
	"repro/internal/types"
	"repro/internal/workload"
)

// runConfig is one measured run of a workload.
type runConfig struct {
	spec   spec
	seed   int64
	window time.Duration
	dir    string // scratch directory for the redo logs, removed after
	traced bool
	setups int // set-ups made; the median is reported, the last kept
}

// counters are the engine's own counts, read at the window's borders
// in a traced run.
type counters struct {
	l1Merges, mainMerges, mergeFailures uint64
	l1MergeSec, mainMergeSec            float64
	decodeHits, decodeMisses            uint64
	walSyncs                            uint64
	planHits, planMisses                uint64
	redoBytes                           int64
}

// runResult is what one run measured.
type runResult struct {
	setups            []time.Duration
	window            time.Duration
	secs              []second // OLTP work per second of the window
	read, write, scan samples  // whole window
	probe             bool     // scan samples come from the probe
	scanSeconds       float64
	commits, writes   int
	attempted, failed int
	memBytesPerRow    float64
	redoBytes         int64
	recoverySec       float64 // median time of recoveryRuns reopens
	recoveryRuns      int
	deltaRowsEnd      int
	before, after     counters
	tracers           []*tracer
	wrong             error // first wrong answer or oracle mismatch
}

// oltpOpsPerSec is the median over the window's seconds of the OLTP
// operations started in each. A median of seconds, not the window's
// mean: in htap the OLTP client now and then runs a burst of thousands
// of fast operations while the analyst waits to be rescheduled, and one
// burst would otherwise set the whole run's figure.
func (r *runResult) oltpOpsPerSec() float64 {
	xs := make([]float64, len(r.secs))
	for i, s := range r.secs {
		xs[i] = float64(s.oltpOps)
	}
	return median(xs)
}

// secondsPct returns the median over the window's seconds of each
// second's percentile p of the samples pick selects, using only the
// seconds whose sample supports p. It reports false when fewer than
// half the seconds do.
func (r *runResult) secondsPct(pick func(*second) *samples, p float64) (time.Duration, bool) {
	var xs []float64
	for i := range r.secs {
		if v, ok := pick(&r.secs[i]).pct(p); ok {
			xs = append(xs, float64(v))
		}
	}
	if len(xs) == 0 || 2*len(xs) < len(r.secs) {
		return 0, false
	}
	return time.Duration(median(xs)), true
}

// runOnce sets up, runs the workload's clients for the window, checks
// the end state against the clients' oracles, then reopens the
// database from its redo log and checks the recovered state too.
func runOnce(cfg runConfig) (*runResult, error) {
	pre := workload.NewOrderGen(cfg.seed, customers, products).Rows(preloadRows)
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.dir)

	res := &runResult{}
	var e *env
	for i := range cfg.setups {
		var reg *obs.Registry
		if cfg.traced {
			reg = obs.New()
		}
		next, d, err := setup(filepath.Join(cfg.dir, fmt.Sprintf("db%d", i)), pre, reg)
		if err != nil {
			if e != nil {
				e.db.Close()
			}
			return nil, err
		}
		res.setups = append(res.setups, d)
		if e != nil {
			e.db.Close()
			os.RemoveAll(e.dir)
		}
		e = next
	}
	defer func() {
		if e != nil {
			e.db.Close()
		}
	}()

	var eng *sqlfe.Engine
	if cfg.spec.sql {
		eng = sqlfe.NewEngine(e.db, tableConfig())
	}
	// Collect the set-up's garbage (the discarded set-ups' databases)
	// now, not during the window.
	runtime.GC()
	// A workload with no scans in its window gets its scan metrics from
	// a quiescent probe (not needed in the traced run).
	if !cfg.traced && !cfg.spec.analyst && !cfg.spec.sql {
		var failed int
		res.scan, res.scanSeconds, failed = probeScan(e)
		res.probe = true
		res.attempted, res.failed = probeWarmup+probeScans, failed
	}
	start := time.Now()
	windowStart := start.Add(warmup)
	stop := windowStart.Add(cfg.window)
	traceFor := func(c int) *tracer {
		if !cfg.traced {
			return nil
		}
		return newTracer(start, c)
	}

	var (
		wg      sync.WaitGroup
		states  []*oltpState
		tallies []*tally
	)
	scanPct := 0
	if cfg.spec.sql {
		scanPct = sqlScanPct
	}
	for w := range cfg.spec.oltpClients {
		st := newOLTPState(cfg.seed, w, cfg.spec.oltpClients, pre, scanPct)
		nc := nativeClient{db: e.db, t: e.table, tr: traceFor(len(tallies))}
		var ex executor = &nc
		if cfg.spec.sql {
			ex = &sqlClient{nativeClient: nc, eng: eng}
		}
		if nc.tr != nil {
			res.tracers = append(res.tracers, nc.tr)
		}
		t := newTally(cfg.window)
		states, tallies = append(states, st), append(tallies, t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(ex, st, st.next, cfg.spec.sql, windowStart, stop, t)
		}()
	}
	if cfg.spec.analyst {
		ac := &nativeClient{db: e.db, t: e.table, tr: traceFor(len(tallies))}
		if ac.tr != nil {
			res.tracers = append(res.tracers, ac.tr)
		}
		t := newTally(cfg.window)
		tallies = append(tallies, t)
		wg.Add(1)
		go func() {
			defer wg.Done()
			loop(ac, nil, func() op { return op{class: opScanAgg} }, false, windowStart, stop, t)
		}()
	}
	time.Sleep(time.Until(windowStart))
	res.before = readCounters(e, eng)
	var mem []float64
	for time.Until(stop) > 0 {
		time.Sleep(min(memEvery, time.Until(stop)))
		mem = append(mem, memPerRow(e.table, states))
	}
	res.memBytesPerRow = median(mem)
	wg.Wait()
	res.after = readCounters(e, eng)

	var last time.Time
	res.secs = make([]second, numSeconds(cfg.window))
	for _, t := range tallies {
		for i, s := range t.secs {
			sec := &res.secs[i]
			sec.read.d = append(sec.read.d, s.read.d...)
			sec.write.d = append(sec.write.d, s.write.d...)
			sec.oltpOps += s.oltpOps
			res.read.d = append(res.read.d, s.read.d...)
			res.write.d = append(res.write.d, s.write.d...)
		}
		res.scan.d = append(res.scan.d, t.scan.d...)
		res.commits += t.commits
		res.writes += t.writes
		res.attempted += t.attempted
		res.failed += t.failed
		if t.wrong != nil && res.wrong == nil {
			res.wrong = t.wrong
		}
		if t.last.After(last) {
			last = t.last
		}
	}
	res.window = last.Sub(windowStart)
	if !res.probe {
		res.scanSeconds = res.window.Seconds()
	}

	st := e.table.Stats()
	res.deltaRowsEnd = st.L1Rows + st.L2Rows + st.FrozenL2Rows
	if err := verify(e.table, states); err != nil && res.wrong == nil {
		res.wrong = fmt.Errorf("after the window: %w", err)
	}

	// Recovery: reopen the database from its directory, which replays
	// the redo log. A short replay is repeated, within recoveryBudget,
	// and the median reported; the first recovered table is checked
	// against the oracles.
	if err := e.db.Close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	// Drop the closed database so its memory is free before the replay.
	dir := e.dir
	e = nil
	res.redoBytes = dirBytes(dir)
	var times []float64
	budget := time.Now().Add(recoveryBudget)
	for i := 0; i < recoveryRepeats && (i == 0 || time.Now().Before(budget)); i++ {
		runtime.GC()
		t0 := time.Now()
		rdb, err := openDB(dir, nil, false)
		if err != nil {
			return nil, fmt.Errorf("recovery: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == 0 {
			if rt := rdb.Table(tableName); rt == nil {
				res.wrong = errors.New("after recovery: table missing")
			} else if err := verify(rt, states); err != nil && res.wrong == nil {
				res.wrong = fmt.Errorf("after recovery: %w", err)
			}
		}
		if err := rdb.Close(); err != nil {
			return nil, fmt.Errorf("recovery close: %w", err)
		}
	}
	res.recoveryRuns = len(times)
	res.recoverySec = median(times)
	return res, nil
}

// probeScan times probeScans back-to-back scan-aggregates on the
// freshly set-up table with nothing running beside them, after
// probeWarmup unrecorded ones, and returns their latencies, total time
// and failures. It gives a workload without an analyst its scan
// metrics: the scan kernels' speed on the preloaded table, unaffected
// by any latch, which is the quiescent reference for htap's scans.
func probeScan(e *env) (s samples, seconds float64, failed int) {
	c := &nativeClient{db: e.db, t: e.table}
	var start time.Time
	for i := range probeWarmup + probeScans {
		if i == probeWarmup {
			start = time.Now()
		}
		o := op{class: opScanAgg}
		t0 := time.Now()
		if err := c.do(&o); err != nil {
			failed++
			continue
		}
		if i >= probeWarmup {
			s.add(time.Since(t0))
		}
	}
	return s, time.Since(start).Seconds(), failed
}

// memPerRow is the table's L1+L2+main bytes over its visible rows,
// which the clients' oracles count.
func memPerRow(t *core.Table, states []*oltpState) float64 {
	st := t.Stats()
	var rows int64
	for _, s := range states {
		rows += s.liveN.Load()
	}
	return float64(st.L1Bytes+st.L2Bytes+st.MainBytes) / float64(max(rows, 1))
}

// readCounters snapshots the engine's counts. Untraced runs have no
// registry and only the table statistics are read.
func readCounters(e *env, eng *sqlfe.Engine) counters {
	st := e.table.Stats()
	c := counters{
		l1Merges:      st.L1Merges,
		mainMerges:    st.MainMerges,
		mergeFailures: st.MergeFailures,
		redoBytes:     dirBytes(e.dir),
	}
	if e.reg == nil {
		return c
	}
	tl := obs.L("table", tableName)
	c.l1MergeSec = e.reg.Histogram("hana_l1_merge_seconds", tl).Snapshot().Sum.Seconds()
	c.mainMergeSec = e.reg.Histogram("hana_main_merge_seconds", tl, obs.L("phase", "total")).Snapshot().Sum.Seconds()
	c.decodeHits = e.reg.Counter("hana_decode_cache_hits_total", tl).Value()
	c.decodeMisses = e.reg.Counter("hana_decode_cache_misses_total", tl).Value()
	c.walSyncs = e.reg.Counter("hana_wal_syncs_total").Value()
	if eng != nil {
		c.planHits, c.planMisses, _ = eng.CacheStats()
	}
	return c
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// verify diffs a table against the merged client oracles: the row
// count, the per-region COUNT and SUMs through the engine's aggregate
// path, and every row.
func verify(t *core.Table, states []*oltpState) error {
	want := map[int64][]types.Value{}
	for _, s := range states {
		for k, row := range s.oracle {
			want[k] = row
		}
	}
	v := t.View(nil)
	defer v.Close()
	if n := v.Count(); n != len(want) {
		return fmt.Errorf("count: engine %d, oracle %d", n, len(want))
	}

	type agg struct {
		count, qty int64
		amount     float64
	}
	wantAgg := map[string]*agg{}
	for _, row := range want {
		a := wantAgg[row[colRegion].S]
		if a == nil {
			a = &agg{}
			wantAgg[row[colRegion].S] = a
		}
		a.count++
		a.qty += row[colQuantity].I
		a.amount += row[colAmount].F
	}
	groups, err := v.AggregateNumeric(colRegion, []int{colQuantity, colAmount})
	if err != nil {
		return fmt.Errorf("aggregate: %w", err)
	}
	if len(groups) != len(wantAgg) {
		return fmt.Errorf("region groups: engine %d, oracle %d", len(groups), len(wantAgg))
	}
	for _, g := range groups {
		w := wantAgg[g.Key.S]
		if w == nil {
			return fmt.Errorf("region %q not in oracle", g.Key.S)
		}
		// The float sums add in different orders; allow rounding only.
		if g.Count != w.count || g.SumI[0] != w.qty || math.Abs(g.SumF[1]-w.amount) > 1e-9*(1+math.Abs(w.amount)) {
			return fmt.Errorf("region %q: engine count=%d sum(quantity)=%d sum(amount)=%v, oracle %d %d %v",
				g.Key.S, g.Count, g.SumI[0], g.SumF[1], w.count, w.qty, w.amount)
		}
	}

	seen := 0
	v.ScanAll(func(_ types.RowID, row []types.Value) bool {
		if w, ok := want[row[0].I]; !ok || !slices.Equal(row, w) {
			err = fmt.Errorf("row %d: engine %v, oracle %v", row[0].I, row, w)
			return false
		}
		seen++
		return true
	})
	if err != nil {
		return err
	}
	if seen != len(want) {
		return fmt.Errorf("row scan: engine %d rows, oracle %d", seen, len(want))
	}
	return nil
}
