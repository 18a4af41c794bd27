package main

import "sort"

// summary is the five numbers the steadiness rules are stated in: the
// median and quartiles of a sample, with its size.
type summary struct {
	N      int
	Q1     float64
	Median float64
	Q3     float64
}

// summarize computes the median and the quartiles of xs. The quartiles use
// the "exclusive" method of Python's statistics.quantiles(xs, n=4), which is
// the method the acceptance rules quote, so the two agree to the last digit.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return summary{}
	case 1:
		return summary{N: 1, Q1: s[0], Median: s[0], Q3: s[0]}
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return summary{N: n, Q1: q(1), Median: median(s), Q3: q(3)}
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread is the distance between the quartiles as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// failRatio is failed passes over attempted passes (0 when none ran).
func failRatio(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
