package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must rank above a reported percentile:
// with fewer, one slow op moves the figure. The report line leaves out a
// pooled percentile that has fewer.
const minBeyond = 10

// rank is the 1-based nearest rank of the p-th percentile among n samples:
// the smallest rank with at least p% of the samples at or below it.
func rank(n, p int) int {
	r := (p*n + 99) / 100
	if r < 1 {
		r = 1
	}
	return r
}

// beyond counts the samples ranked above the p-th percentile of n.
func beyond(n, p int) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// percentile returns the nearest-rank p-th percentile of xs (0 when empty).
func percentile(xs []time.Duration, p int) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rank(len(s), p)-1]
}

// mean sums in ascending order, so values gathered from a map average to
// the same bits on every run.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opSample is one successful op's wall time and CPU time, with its input
// and the program the input came from. A traced op has no CPU time.
type opSample struct {
	prog, input string
	lat, cpu    time.Duration
	traced      bool
}

func opWall(s opSample) time.Duration { return s.lat }
func opCPU(s opSample) time.Duration  { return s.cpu }

// tracingOverhead is the geometric mean, over the inputs with both traced
// and untraced ops, of the ratio of their mean latencies, less 1 (0 when
// no input has both). Comparing an input with itself keeps the mix of
// slow and fast inputs out of the figure.
func tracingOverhead(samples []opSample) float64 {
	type sums struct {
		sum [2]time.Duration
		n   [2]int
	}
	by := map[string]*sums{}
	for _, s := range samples {
		k := by[s.input]
		if k == nil {
			k = &sums{}
			by[s.input] = k
		}
		i := 0
		if s.traced {
			i = 1
		}
		k.sum[i] += s.lat
		k.n[i]++
	}
	var logs []float64
	for _, k := range by {
		if k.n[0] > 0 && k.n[1] > 0 && k.sum[0] > 0 {
			logs = append(logs, math.Log((float64(k.sum[1])/float64(k.n[1]))/(float64(k.sum[0])/float64(k.n[0]))))
		}
	}
	return math.Expm1(mean(logs))
}

// latencies returns the traced or untraced samples' latencies.
func latencies(samples []opSample, traced bool) []time.Duration {
	var out []time.Duration
	for _, s := range samples {
		if s.traced == traced {
			out = append(out, s.lat)
		}
	}
	return out
}

// gmean is the geometric mean, over programs, of each program's mean of
// the untraced ops' field (0 when there are none). The programs of one
// workload differ by up to two orders of magnitude, so a percentile of the
// pooled ops sits on the border between two programs' latency bands and
// moves with the share of slow recordings a seed happens to draw. The mean
// keeps every op's weight within a program, and the geometric mean gives
// each program the same say.
func gmean(samples []opSample, field func(opSample) time.Duration) time.Duration {
	sums := map[string]time.Duration{}
	counts := map[string]int{}
	for _, s := range samples {
		if !s.traced {
			sums[s.prog] += field(s)
			counts[s.prog]++
		}
	}
	if len(sums) == 0 {
		return 0
	}
	var logs []float64
	for p, sum := range sums {
		logs = append(logs, math.Log(float64(sum)/float64(counts[p])))
	}
	return time.Duration(math.Round(math.Exp(mean(logs))))
}
