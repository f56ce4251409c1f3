package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie strictly beyond a percentile
// before it is reported: a p99 needs at least 1,000 samples.
const minBeyond = 10

// samples keeps every latency of one operation class. Percentiles are
// exact nearest-rank values over the full sample, never histogram
// bucket bounds.
type samples struct {
	d      []time.Duration
	sorted bool
}

func (s *samples) add(d time.Duration) {
	s.d = append(s.d, d)
	s.sorted = false
}

func (s *samples) n() int { return len(s.d) }

// rank returns the 1-based nearest rank of percentile p (0 < p ≤ 100)
// in a sample of n: the smallest rank r with r/n ≥ p/100.
func rank(p float64, n int) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	return max(1, min(r, n))
}

// supported reports whether percentile p of an n-sample has at least
// minBeyond samples beyond it.
func supported(p float64, n int) bool {
	return n > 0 && n-rank(p, n) >= minBeyond
}

// pct returns the nearest-rank percentile p and whether the sample
// supports it (see supported). An empty sample returns (0, false).
func (s *samples) pct(p float64) (time.Duration, bool) {
	n := len(s.d)
	if n == 0 {
		return 0, false
	}
	if !s.sorted {
		slices.Sort(s.d)
		s.sorted = true
	}
	return s.d[rank(p, n)-1], supported(p, n)
}

// median returns the nearest-rank median of xs (xs is reordered).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	return xs[rank(50, len(xs))-1]
}
