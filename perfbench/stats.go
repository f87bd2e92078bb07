package main

import (
	"math"
	"sort"
	"time"
)

// number is what quantile and median take.
type number interface{ ~int64 | ~float64 }

// quantile returns the q-quantile of xs by nearest rank (0 when empty).
func quantile[T number](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// median returns the median of xs (0 when empty).
func median[T number](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := append([]T(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// perRound takes one figure per round, leaving out the rounds whose
// figure is NaN.
func perRound(rounds []round, figure func(round) float64) []float64 {
	var fs []float64
	for _, r := range rounds {
		if f := figure(r); !math.IsNaN(f) {
			fs = append(fs, f)
		}
	}
	return fs
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }
