package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/mvcc"
	"repro/internal/types"
	"repro/internal/workload"
)

func TestNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s.add(time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}, {12.3, 13}} {
		if got, _ := s.pct(c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %d, want %d", c.p, got, c.want)
		}
	}
	var empty samples
	if v, ok := empty.pct(50); v != 0 || ok {
		t.Errorf("empty sample: got (%d, %v), want (0, false)", v, ok)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestPercentileSupport(t *testing.T) {
	for _, c := range []struct {
		p    float64
		n    int
		want bool
	}{
		{99, 1000, true}, {99, 999, false}, {99, 5000, true},
		{50, 20, true}, {50, 19, false}, {50, 0, false},
	} {
		if got := supported(c.p, c.n); got != c.want {
			t.Errorf("supported(p%g, n=%d) = %v, want %v", c.p, c.n, got, c.want)
		}
	}
	var s samples
	for i := range 999 {
		s.add(time.Duration(i))
	}
	if v, note := pctNote(&s, 99, time.Nanosecond); v != 0 || !strings.Contains(note, "too few") {
		t.Errorf("p99 of 999 samples reported as %v (%s)", v, note)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{parent: -1, start: 0, end: 100},
		{parent: 0, start: 10, end: 30},
		{parent: 0, start: 20, end: 50},  // overlaps the first child
		{parent: 0, start: 90, end: 120}, // runs past its parent
		{parent: 2, start: 25, end: 35},
		{parent: -1, start: 200, end: 210},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10, 10}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestTracerSpans(t *testing.T) {
	tr := newTracer(time.Now(), 3)
	r := tr.begin(spClientInsert)
	c := tr.child(spCoreInsert)
	tr.end(c)
	tr.end(r)
	r2 := tr.begin(spClientPoint)
	tr.end(r2)
	if len(tr.spans) != 3 || tr.spans[1].parent != r || tr.spans[2].parent != -1 {
		t.Fatalf("spans = %+v", tr.spans)
	}
	if tr.spans[0].req == tr.spans[2].req || tr.spans[0].req != tr.spans[1].req || tr.spans[0].req>>56 != 3 {
		t.Errorf("request ids: %+v", tr.spans)
	}
	var none *tracer
	if none.begin(spClientInsert) != -1 || none.child(spCoreGet) != -1 {
		t.Error("nil tracer recorded a span")
	}
	none.end(-1)
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func checkDefs(t *testing.T, kind string, defs []metricDef, maxN int) {
	t.Helper()
	if len(defs) == 0 || len(defs) > maxN {
		t.Errorf("%s: %d metrics, want 1..%d", kind, len(defs), maxN)
	}
	seen := map[string]bool{}
	for _, d := range defs {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
			t.Errorf("%s: bad metric %+v", kind, d)
		}
		if seen[d.name] {
			t.Errorf("%s: %q listed twice", kind, d.name)
		}
		seen[d.name] = true
	}
}

func TestMetricNames(t *testing.T) {
	checkDefs(t, "end_to_end", endToEnd, 16)
	checkDefs(t, "per_layer", perLayer(), 128)
	for _, d := range perLayer() {
		if slices.ContainsFunc(endToEnd, func(e metricDef) bool { return e.name == d.name }) {
			t.Errorf("%q is both end-to-end and per-layer", d.name)
		}
	}
	if d := metricByName(endToEnd, "setup_s"); d.unit != "s" || d.better != "lower" {
		t.Errorf("setup_s = %+v", d)
	}
}

type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBenchmarkJSONAgrees(t *testing.T) {
	b := readBenchmarkJSON(t)
	if !slices.Equal(b.Paths, []string{"perfbench"}) || len(b.Command) < 2 || !strings.HasPrefix(b.Command[1], "perfbench/") {
		t.Errorf("command %v / paths %v", b.Command, b.Paths)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if _, ok := specByName(w.Name); !ok || w.Why == "" {
			t.Errorf("workload %+v", w)
		}
	}
	if len(names) != len(specs) {
		t.Errorf("BENCHMARK.json workloads %v, program has %d", names, len(specs))
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: json %d, program %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end_to_end[%d]: json %+v, program %+v", i, m, d)
		}
	}
	pl := perLayer()
	if len(b.PerLayer) != len(pl) {
		t.Fatalf("per_layer: json %d, program %d", len(b.PerLayer), len(pl))
	}
	for i, m := range b.PerLayer {
		d := pl[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d]: json %+v, program %+v", i, m, d)
		}
	}
}

// Each workload, on a second seed too, prints exactly the metrics
// BENCHMARK.json lists and passes its oracle checks.
func TestOutputAgrees(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	b := readBenchmarkJSON(t)
	want := map[bool][]string{}
	for _, m := range b.EndToEnd {
		want[false] = append(want[false], m.Name)
	}
	for _, m := range b.PerLayer {
		want[true] = append(want[true], m.Name)
	}
	for i, sp := range specs {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			sum, err := run(&out, sp, int64(2+i), 2*time.Second, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if !sum.Correct || sum.Failed != 0 || sum.Attempted == 0 {
				t.Errorf("%s traced=%v: %+v\n%s", sp.name, traced, sum, out.String())
			}
			var got []string
			for k := range sum.Metrics {
				got = append(got, k)
			}
			slices.Sort(got)
			w := slices.Sorted(slices.Values(want[traced]))
			if !slices.Equal(got, w) {
				t.Errorf("%s traced=%v: printed %v, BENCHMARK.json lists %v", sp.name, traced, got, w)
			}
		}
	}
}

// verify catches a wrong row, a missing row and an extra row.
func TestVerifyDetectsMismatch(t *testing.T) {
	pre := workload.NewOrderGen(5, customers, products).Rows(500)
	e, _, err := setup(t.TempDir(), pre, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer e.db.Close()
	st := newOLTPState(5, 0, 1, pre, 0)
	if err := verify(e.table, []*oltpState{st}); err != nil {
		t.Fatalf("clean table: %v", err)
	}

	changed := append([]types.Value(nil), pre[9]...)
	changed[colQuantity] = types.Int(changed[colQuantity].I + 1)
	st.oracle[10] = changed
	if err := verify(e.table, []*oltpState{st}); err == nil {
		t.Error("wrong quantity not detected")
	}
	st.oracle[10] = pre[9]

	tx := e.db.Begin(mvcc.TxnSnapshot)
	if _, err := e.table.DeleteKey(tx, types.Int(7)); err != nil {
		t.Fatal(err)
	}
	if err := e.db.Commit(tx); err != nil {
		t.Fatal(err)
	}
	if err := verify(e.table, []*oltpState{st}); err == nil {
		t.Error("missing row not detected")
	}
	st.remove(7)
	if err := verify(e.table, []*oltpState{st}); err != nil {
		t.Fatalf("after matching delete: %v", err)
	}
	st.remove(8)
	if err := verify(e.table, []*oltpState{st}); err == nil {
		t.Error("extra row not detected")
	}
}

// With L2MaxRows below the preload the scheduler starts main merges of
// its own while the drain runs; the drain must wait for them.
func TestDrainWaitsForSchedulerMerge(t *testing.T) {
	for i := range 5 {
		db, err := openDB(t.TempDir(), nil, true)
		if err != nil {
			t.Fatal(err)
		}
		cfg := tableConfig()
		cfg.L1MaxRows, cfg.L2MaxRows = 200, 1000
		tab, err := db.CreateTable(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rows := workload.NewOrderGen(int64(i), customers, products).Rows(20_000)
		tx := db.Begin(mvcc.TxnSnapshot)
		if _, err := tab.BulkInsert(tx, rows); err != nil {
			t.Fatal(err)
		}
		if err := db.Commit(tx); err != nil {
			t.Fatal(err)
		}
		if err := drainToMain(tab); err != nil {
			t.Fatalf("attempt %d: %v", i, err)
		}
		if st := tab.Stats(); st.MainRows != len(rows) || st.L1Rows+st.L2Rows+st.FrozenL2Rows != 0 {
			t.Errorf("attempt %d: not drained: %+v", i, st)
		}
		db.Close()
	}
}
