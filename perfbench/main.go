// Command perfbench is the repository's benchmark of record. It runs
// one named workload against the unified table for a fixed window,
// checks every run against the clients' oracles (after the window and
// again after recovery from the redo log), and prints one metric per
// line followed by a JSON summary as the last line of standard output.
//
//	perfbench --workload htap|oltp|sql --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of an untraced run.
// With --trace 1 it splits the window between an untraced run and a
// traced one, reports per-layer metrics from the traced run's spans and
// the engine's counters, and writes the spans out. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// setupRepeats is how many set-ups an end-to-end run makes to report
// their median.
const setupRepeats = 3

// summary is the last line of standard output.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: htap, oltp or sql")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 20, "length of the measured window")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	out := flag.String("out", ".bench_build/perfbench", "directory for redo logs and span files")
	flag.Parse()

	sp, ok := specByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload htap|oltp|sql --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	fmt.Printf("# perfbench workload=%s seed=%d seconds=%d trace=%d\n", sp.name, *seed, *seconds, *trace)
	sum, err := run(os.Stdout, sp, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !sum.Correct {
		os.Exit(1)
	}
}

// run measures one workload, printing a line per metric to w, and
// returns the summary. A wrong answer is reported in the summary; an
// error means the run could not be made.
func run(w io.Writer, sp spec, seed int64, window time.Duration, traced bool, out string) (*summary, error) {
	rep := &report{w: w, values: map[string]value{}}
	base := filepath.Join(out, fmt.Sprintf("run-%d", os.Getpid()))
	cfg := runConfig{spec: sp, seed: seed, window: window, dir: base, setups: setupRepeats}
	results := []*runResult{}
	if !traced {
		res, err := runOnce(cfg)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
		reportEndToEnd(rep, res)
	} else {
		cfg.window, cfg.setups = window/2, 1
		untraced, err := runOnce(cfg)
		if err != nil {
			return nil, err
		}
		cfg.traced = true
		tr, err := runOnce(cfg)
		if err != nil {
			return nil, err
		}
		results = append(results, untraced, tr)
		reportPerLayer(rep, tr, untraced)
		path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.tsv.gz", sp.name, seed))
		if err := writeSpans(path, tr.tracers); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(w, "# spans written to %s\n", path)
	}
	sum := &summary{Correct: true, Metrics: rep.values}
	for _, r := range results {
		sum.Attempted += r.attempted
		sum.Failed += r.failed
		if r.wrong != nil {
			sum.Correct = false
			fmt.Fprintln(w, "# MISMATCH:", r.wrong)
		}
	}
	if sum.Correct {
		fmt.Fprintln(w, "# oracle checks passed after the window and after recovery")
	}
	return sum, nil
}
