package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mvcc"
	"repro/internal/obs"
	sqlfe "repro/internal/sql"
	"repro/internal/types"
	"repro/internal/workload"
)

// Common set-up of every workload.
const (
	tableName   = "orders"
	preloadRows = 100_000
	l1MaxRows   = 2_000
	l2MaxRows   = 150_000
	customers   = 10_000
	products    = 2_000
	// warmup runs the clients unrecorded before the window opens.
	warmup = time.Second
	// probeScans is the size of the quiescent scan probe that gives a
	// workload without an analyst its scan metrics.
	probeScans = 100
	// probeWarmup scans run first, unrecorded, so the probe does not time
	// the first touches of memory the collector just returned.
	probeWarmup = 20
	// memEvery is how often the window samples memory per row.
	memEvery = 250 * time.Millisecond
	// A replay is repeated up to recoveryRepeats times while the reopens
	// so far took less than recoveryBudget.
	recoveryRepeats = 5
	recoveryBudget  = 3 * time.Second
	// sqlScanPct is the share of the sql client's statements that are
	// GROUP BY scan-aggregates.
	sqlScanPct = 1
)

// Order-schema columns the benchmark reads (workload.OrderSchema).
const (
	colRegion   = 3
	colQuantity = 5
	colAmount   = 6
)

// spec describes one workload. Every client is closed-loop.
type spec struct {
	name string
	// oltpClients run the OLTP mix; client w owns the keys with
	// (key-1) % oltpClients == w.
	oltpClients int
	// analyst adds one client running native scan-aggregates back to
	// back.
	analyst bool
	// sql sends the OLTP clients' statements as SQL text, plus
	// sqlScanPct% GROUP BY scan-aggregates.
	sql bool
}

var specs = []spec{
	{name: "htap", oltpClients: 1, analyst: true},
	{name: "oltp", oltpClients: 2},
	{name: "sql", oltpClients: 1, sql: true},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

func tableConfig() core.TableConfig {
	return core.TableConfig{
		Name:         tableName,
		Schema:       workload.OrderSchema(),
		L1MaxRows:    l1MaxRows,
		L2MaxRows:    l2MaxRows,
		CheckUnique:  true,
		Compress:     true,
		CompactDicts: true,
	}
}

// env is one database under test.
type env struct {
	dir   string
	db    *core.Database
	table *core.Table
	reg   *obs.Registry // nil in untraced runs
}

func openDB(dir string, reg *obs.Registry, autoMerge bool) (*core.Database, error) {
	return core.OpenDatabase(core.DBOptions{
		Dir:          dir,
		SyncOnCommit: true,
		FS:           pageCacheFS{},
		AutoMerge:    autoMerge,
		Obs:          reg,
	})
}

// setup opens a fresh database in dir, preloads rows and pushes them
// through L1 → L2 → main. It returns the environment and the time the
// preload and merges took.
func setup(dir string, rows [][]types.Value, reg *obs.Registry) (*env, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	db, err := openDB(dir, reg, true)
	if err != nil {
		return nil, 0, fmt.Errorf("open: %w", err)
	}
	t, err := db.CreateTable(tableConfig())
	if err != nil {
		db.Close()
		return nil, 0, fmt.Errorf("create table: %w", err)
	}
	start := time.Now()
	tx := db.Begin(mvcc.TxnSnapshot)
	if _, err := t.BulkInsert(tx, rows); err != nil {
		db.Abort(tx)
		db.Close()
		return nil, 0, fmt.Errorf("preload: %w", err)
	}
	if err := db.Commit(tx); err != nil {
		db.Close()
		return nil, 0, fmt.Errorf("preload commit: %w", err)
	}
	if err := drainToMain(t); err != nil {
		db.Close()
		return nil, 0, err
	}
	return &env{dir: dir, db: db, table: t, reg: reg}, time.Since(start), nil
}

// drainToMain merges every delta row into main. The background
// scheduler may already have a merge in flight; core reports that as
// an error without a sentinel, so the drain waits for it by message
// and retries instead of failing.
func drainToMain(t *core.Table) error {
	deadline := time.Now().Add(2 * time.Minute)
	for time.Now().Before(deadline) {
		st := t.Stats()
		switch {
		case st.L1Rows > 0:
			if _, err := t.MergeL1(); err != nil {
				return fmt.Errorf("setup MergeL1: %w", err)
			}
		case st.L2Rows+st.FrozenL2Rows > 0:
			if _, err := t.MergeMain(); err != nil {
				if !strings.Contains(err.Error(), "merge already in flight") {
					return fmt.Errorf("setup MergeMain: %w", err)
				}
				time.Sleep(time.Millisecond)
			}
		default:
			return nil
		}
	}
	return errors.New("setup: delta not drained within 2 minutes")
}

type opClass uint8

const (
	opInsert opClass = iota
	opUpdate
	opDelete
	opPoint
	opScanAgg
)

func (c opClass) isWrite() bool { return c <= opDelete }

// op is one generated operation. got carries a point read's answer
// back for checking.
type op struct {
	class opClass
	key   int64
	row   []types.Value
	got   []types.Value
}

// oltpState is one OLTP client's generator and oracle. The client
// owns a stride of the key space and is its only writer, so its
// oracle is exact whatever the interleaving with other clients.
type oltpState struct {
	w, stride int64
	gen       *workload.OrderGen
	rng       *rand.Rand
	keys      workload.KeyChooser
	live      []int64       // owned keys currently present
	liveN     atomic.Int64  // len(live), read by the memory sampler
	pos       map[int64]int // key → index in live
	nextID    int64         // next owned id to insert
	oracle    map[int64][]types.Value
	scanPct   int
}

func newOLTPState(seed int64, w, stride int, pre [][]types.Value, scanPct int) *oltpState {
	s := &oltpState{
		w: int64(w), stride: int64(stride),
		gen:     workload.NewOrderGen(seed+7919*int64(w+1), customers, products),
		rng:     rand.New(rand.NewSource(seed*31 + int64(w))),
		keys:    workload.NewZipfian(seed+104729*int64(w+1), uint64(len(pre)), workload.DefaultZipfS),
		pos:     map[int64]int{},
		nextID:  int64(len(pre) + w + 1),
		oracle:  map[int64][]types.Value{},
		scanPct: scanPct,
	}
	for id := int64(w + 1); id <= int64(len(pre)); id += int64(stride) {
		s.add(id, pre[id-1])
	}
	return s
}

func (s *oltpState) owns(key int64) bool { return (key-1)%s.stride == s.w }

func (s *oltpState) add(key int64, row []types.Value) {
	s.oracle[key] = row
	s.pos[key] = len(s.live)
	s.live = append(s.live, key)
	s.liveN.Add(1)
}

func (s *oltpState) remove(key int64) {
	delete(s.oracle, key)
	i := s.pos[key]
	last := s.live[len(s.live)-1]
	s.live[i] = last
	s.pos[last] = i
	s.live = s.live[:len(s.live)-1]
	delete(s.pos, key)
	s.liveN.Add(-1)
}

// next draws the next operation: scanPct% scan-aggregates, then the
// OLTP mix of 20% insert, 25% update, 5% delete by owned key and 50%
// zipfian point reads over the preloaded key range.
func (s *oltpState) next() op {
	if s.scanPct > 0 && s.rng.Intn(100) < s.scanPct {
		return op{class: opScanAgg}
	}
	p := s.rng.Intn(100)
	switch {
	case p < 20 || p < 50 && len(s.live) == 0:
		id := s.nextID
		s.nextID += s.stride
		row := s.gen.Row()
		row[0] = types.Int(id)
		return op{class: opInsert, key: id, row: row}
	case p < 45:
		id := s.live[s.rng.Intn(len(s.live))]
		row := s.gen.Row()
		row[0] = types.Int(id)
		return op{class: opUpdate, key: id, row: row}
	case p < 50:
		return op{class: opDelete, key: s.live[s.rng.Intn(len(s.live))]}
	default:
		return op{class: opPoint, key: 1 + int64(s.keys.Next())}
	}
}

// check verifies a point read of an owned key against the oracle.
func (s *oltpState) check(o *op) error {
	if o.class != opPoint || !s.owns(o.key) {
		return nil
	}
	want := s.oracle[o.key]
	if !slices.Equal(o.got, want) {
		return fmt.Errorf("point read of key %d: engine %v, oracle %v", o.key, o.got, want)
	}
	return nil
}

// observe folds a successful operation into the oracle.
func (s *oltpState) observe(o *op) {
	switch o.class {
	case opInsert:
		s.add(o.key, o.row)
	case opUpdate:
		s.oracle[o.key] = o.row
	case opDelete:
		s.remove(o.key)
	}
}

// executor runs one operation against the engine.
type executor interface {
	do(o *op) error
}

// nativeClient drives the core API directly.
type nativeClient struct {
	db *core.Database
	t  *core.Table
	tr *tracer
}

var rootSpan = [...]spanName{spClientInsert, spClientUpdate, spClientDelete, spClientPoint, spClientScanAgg}

func (c *nativeClient) begin() *mvcc.Txn {
	s := c.tr.child(spMvccBegin)
	tx := c.db.Begin(mvcc.TxnSnapshot)
	c.tr.end(s)
	return tx
}

// finish commits tx, or aborts it when the statement failed.
func (c *nativeClient) finish(tx *mvcc.Txn, err error) error {
	if err != nil {
		c.db.Abort(tx)
		return err
	}
	s := c.tr.child(spCoreCommit)
	err = c.db.Commit(tx)
	c.tr.end(s)
	return err
}

func (c *nativeClient) do(o *op) error {
	r := c.tr.begin(rootSpan[o.class])
	defer c.tr.end(r)
	switch o.class {
	case opPoint:
		s := c.tr.child(spCoreViewOpen)
		v := c.t.View(nil)
		c.tr.end(s)
		s = c.tr.child(spCoreGet)
		m := v.Get(types.Int(o.key))
		c.tr.end(s)
		if m != nil {
			o.got = slices.Clone(m.Row)
		}
		v.Close()
		return nil
	case opScanAgg:
		s := c.tr.child(spCoreViewOpen)
		v := c.t.View(nil)
		c.tr.end(s)
		s = c.tr.child(spCoreAggregate)
		groups, err := v.AggregateNumeric(colRegion, []int{colQuantity, colAmount})
		c.tr.end(s)
		v.Close()
		if err != nil {
			return err
		}
		return checkGroups(len(groups))
	}
	tx := c.begin()
	var err error
	switch o.class {
	case opInsert:
		s := c.tr.child(spCoreInsert)
		_, err = c.t.Insert(tx, o.row)
		c.tr.end(s)
	case opUpdate:
		s := c.tr.child(spCoreUpdate)
		_, err = c.t.UpdateKey(tx, types.Int(o.key), o.row)
		c.tr.end(s)
	case opDelete:
		s := c.tr.child(spCoreDelete)
		var n int
		n, err = c.t.DeleteKey(tx, types.Int(o.key))
		c.tr.end(s)
		if err == nil && n != 1 {
			err = fmt.Errorf("delete of owned key %d removed %d rows", o.key, n)
		}
	}
	return c.finish(tx, err)
}

func checkGroups(n int) error {
	if n != len(workload.Regions) {
		return fmt.Errorf("scan-aggregate returned %d region groups, want %d", n, len(workload.Regions))
	}
	return nil
}

// SQL texts of the OLTP mix and the scan-aggregate.
var sqlText = [...]string{
	opInsert:  "INSERT INTO orders VALUES (?, ?, ?, ?, ?, ?, ?)",
	opUpdate:  "UPDATE orders SET customer = ?, product = ?, region = ?, status = ?, quantity = ?, amount = ? WHERE id = ?",
	opDelete:  "DELETE FROM orders WHERE id = ?",
	opPoint:   "SELECT * FROM orders WHERE id = ?",
	opScanAgg: "SELECT region, COUNT(*), SUM(quantity), SUM(amount) FROM orders GROUP BY region",
}

var sqlExecSpan = [...]spanName{spSQLExecInsert, spSQLExecUpdate, spSQLExecDelete, spSQLExecPoint, spSQLExecScanAgg}

// sqlClient sends every operation as parameterized SQL text: each
// statement runs Engine.Prepare (normalization and plan-cache lookup)
// and Prepared.Exec inside an explicit transaction, Begin to Commit.
type sqlClient struct {
	nativeClient
	eng *sqlfe.Engine
}

func (c *sqlClient) do(o *op) error {
	r := c.tr.begin(rootSpan[o.class])
	defer c.tr.end(r)
	var params []types.Value
	switch o.class {
	case opInsert:
		params = o.row
	case opUpdate:
		params = append(slices.Clone(o.row[1:]), types.Int(o.key))
	case opDelete, opPoint:
		params = []types.Value{types.Int(o.key)}
	}
	tx := c.begin()
	s := c.tr.child(spSQLCompile)
	p, err := c.eng.Prepare(sqlText[o.class])
	c.tr.end(s)
	var res *sqlfe.Result
	if err == nil {
		s = c.tr.child(sqlExecSpan[o.class])
		res, err = p.Exec(tx, params...)
		c.tr.end(s)
	}
	if err = c.finish(tx, err); err != nil {
		return err
	}
	switch o.class {
	case opDelete:
		if res.Affected != 1 {
			return fmt.Errorf("delete of owned key %d affected %d rows", o.key, res.Affected)
		}
	case opPoint:
		switch len(res.Rows) {
		case 0:
		case 1:
			o.got = res.Rows[0]
		default:
			return fmt.Errorf("point select of key %d returned %d rows", o.key, len(res.Rows))
		}
	case opScanAgg:
		return checkGroups(len(res.Rows))
	}
	return nil
}

// second is what the OLTP clients completed in one second of the
// window, by the operation's start time.
type second struct {
	read, write samples
	oltpOps     int
}

// tally is one client's record of a run.
type tally struct {
	secs              []second // one per second of the window
	scan              samples
	commits, writes   int // in the window
	attempted, failed int // whole run, warm-up included
	wrong             error
	last              time.Time // completion of the client's last operation
}

func newTally(window time.Duration) *tally {
	return &tally{secs: make([]second, numSeconds(window))}
}

// numSeconds is how many whole seconds the window's per-second
// figures cover (at least one).
func numSeconds(window time.Duration) int { return max(1, int(window/time.Second)) }

// loop runs ops until stop, recording those that start at or after
// windowStart. st is nil for the analyst, whose scans have no oracle
// state; sqlCommits marks a client whose every statement commits.
func loop(ex executor, st *oltpState, next func() op, sqlCommits bool, windowStart, stop time.Time, t *tally) {
	for {
		o := next()
		t0 := time.Now()
		if !t0.Before(stop) {
			return
		}
		err := ex.do(&o)
		d := time.Since(t0)
		t.last = t0.Add(d)
		t.attempted++
		if err != nil {
			t.failed++
			continue
		}
		if st != nil {
			if err := st.check(&o); err != nil {
				t.failed++
				if t.wrong == nil {
					t.wrong = err
				}
				continue
			}
			st.observe(&o)
		}
		if t0.Before(windowStart) {
			continue
		}
		sec := &t.secs[min(int(t0.Sub(windowStart)/time.Second), len(t.secs)-1)]
		switch {
		case o.class == opScanAgg:
			t.scan.add(d)
		case o.class == opPoint:
			sec.oltpOps++
			sec.read.add(d)
		default:
			sec.oltpOps++
			t.writes++
			sec.write.add(d)
		}
		if o.class.isWrite() || sqlCommits {
			t.commits++
		}
	}
}
