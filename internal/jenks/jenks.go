// Package jenks implements the Jenks natural breaks classification
// (Fisher's exact dynamic program): partition sorted values into k classes
// minimizing the total within-class sum of squared deviations. FURBYS uses
// it to group prediction windows into weight classes by their FLACK-profiled
// hit rates (paper Section V).
package jenks

import (
	"fmt"
	"sort"
)

// Breaks partitions values into k classes and returns the k-1 upper break
// boundaries (exclusive class upper bounds drawn from the data): class i
// contains values v with breaks[i-1] < v <= breaks[i] under the usual Jenks
// convention. Returned boundaries are the maxima of classes 0..k-2.
//
// Values need not be sorted. k must be >= 1; when k exceeds the number of
// distinct values, fewer effective classes result (duplicate boundaries).
func Breaks(values []float64, k int) ([]float64, error) {
	if k < 1 {
		return nil, fmt.Errorf("jenks: k = %d, want >= 1", k)
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("jenks: empty input")
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if k >= n {
		// Every value its own class; boundaries are the first k-1
		// values (padded with the max for excess classes).
		out := make([]float64, 0, k-1)
		for i := 0; i < k-1; i++ {
			if i < n-1 {
				out = append(out, v[i])
			} else {
				out = append(out, v[n-1])
			}
		}
		return out, nil
	}

	// Fisher's DP over prefix sums: cost(i,j) = SSE of v[i..j].
	prefix := make([]float64, n+1)
	prefixSq := make([]float64, n+1)
	for i, x := range v {
		prefix[i+1] = prefix[i] + x
		prefixSq[i+1] = prefixSq[i] + float64(x*x)
	}
	sse := func(i, j int) float64 { // inclusive i..j
		cnt := float64(j - i + 1)
		s := prefix[j+1] - prefix[i]
		sq := prefixSq[j+1] - prefixSq[i]
		return sq - s*s/cnt
	}

	const inf = 1e308
	// dp[c][j]: min cost partitioning v[0..j] into c+1 classes.
	dp := make([][]float64, k)
	cut := make([][]int, k)
	for c := range dp {
		dp[c] = make([]float64, n)
		cut[c] = make([]int, n)
	}
	for j := 0; j < n; j++ {
		dp[0][j] = sse(0, j)
	}
	for c := 1; c < k; c++ {
		for j := 0; j < n; j++ {
			dp[c][j] = inf
			if j < c {
				// Not enough points for c+1 non-empty classes.
				continue
			}
			for i := c; i <= j; i++ {
				if cost := dp[c-1][i-1] + sse(i, j); cost < dp[c][j] {
					dp[c][j] = cost
					cut[c][j] = i
				}
			}
		}
	}
	// Recover boundaries.
	breaks := make([]float64, k-1)
	j := n - 1
	for c := k - 1; c >= 1; c-- {
		i := cut[c][j]
		breaks[c-1] = v[i-1] // upper bound of class c-1
		j = i - 1
	}
	return breaks, nil
}

// Classify returns the class index (0..len(breaks)) of a value given the
// upper boundaries produced by Breaks: class i holds v <= breaks[i], with
// the last class holding everything above the final boundary.
func Classify(v float64, breaks []float64) int {
	for i, b := range breaks {
		if v <= b {
			return i
		}
	}
	return len(breaks)
}

// GroupCount returns the number of classes implied by a boundary slice.
func GroupCount(breaks []float64) int { return len(breaks) + 1 }
