package main

import (
	"fmt"
	"math"
	"sort"
)

// minTailSamples is the evidence rule for a reported percentile: at least
// this many samples must lie beyond it, or the number is one outlier's
// latency and not a property of the distribution.
const minTailSamples = 10

// percentile returns the q-quantile (0 < q < 1) of sorted, refusing a
// percentile with fewer than minTailSamples samples beyond it.
func percentile(sorted []int64, q float64) (int64, error) {
	n := len(sorted)
	if q <= 0 || q >= 1 {
		return 0, fmt.Errorf("percentile %v outside (0,1)", q)
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if beyond := n - 1 - idx; beyond < minTailSamples {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", q*100, n, beyond, minTailSamples)
	}
	return sorted[idx], nil
}

func sortInt64(v []int64) {
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
}

// median returns the middle value (mean of the middle two for an even
// count); an empty slice is 0.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is how much a metric's own samples disagree, as a share of
// their median: the min–max range of the three rounds, or the
// interquartile range when there are more samples than rounds (setup_s
// carries thirty). -compare holds it against the bound.
func spread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) > timedRounds {
		lo, hi = s[len(s)/4], s[len(s)*3/4]
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (hi - lo) / math.Abs(m)
}
