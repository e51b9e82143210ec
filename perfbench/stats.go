package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"bstc/internal/obs"
)

// minTailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const minTailBeyond = 10

// tailPercentiles are the candidates for the reported tail, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile with at least
// minTailBeyond of n samples beyond it, and how many lie beyond it. ok is
// false when even the median lacks them.
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	for _, p := range tailPercentiles {
		beyond := n - rank(p, n)
		if beyond >= minTailBeyond {
			return p, beyond, true
		}
	}
	return 0, 0, false
}

// rank is the 1-based nearest rank of percentile p among n samples. The
// small offset keeps float error from pushing an exact rank up by one.
func rank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// percentile is the nearest-rank percentile p of sorted.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[max(rank(p, len(sorted))-1, 0)]
}

func sortedCopy(d []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), d...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (the mean of the middle two for an even
// count).
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

// schedule draws the due times of a Poisson arrival process at rate per
// second, from time zero to dur, extended past dur until it holds at least
// minN arrivals. Arrivals send the nrows request rows in seeded random
// order, every row once before any row again, so that a step's row mix
// does not depend on luck. The same generator state gives the same
// schedule.
func schedule(r *rand.Rand, rate float64, dur time.Duration, minN, nrows int) (due []time.Duration, rows []int) {
	t := 0.0
	var perm []int
	for {
		t += r.ExpFloat64() / rate
		d := time.Duration(t * float64(time.Second))
		if d >= dur && len(due) >= minN {
			return due, rows
		}
		if len(perm) == 0 {
			perm = r.Perm(nrows)
		}
		due = append(due, d)
		rows = append(rows, perm[0])
		perm = perm[1:]
	}
}

// stepSeed derives the schedule seed of one rate step from the workload
// seed, so every step of every run is reproducible on its own.
func stepSeed(seed int64, step string, rung int) int64 {
	h := int64(1469598103934665603)
	for _, c := range step {
		h = (h ^ int64(c)) * 1099511628211
	}
	return seed*1_000_003 ^ h ^ int64(rung)*7919
}

// ladderPerOctave is the ladder's resolution: rung k offers
// base·2^(k/ladderPerOctave) requests per second.
const ladderPerOctave = 16

// ladderCoarse is the rung stride of the first, upward scan.
const ladderCoarse = 4

func rungRate(base float64, k int) float64 {
	return base * math.Pow(2, float64(k)/ladderPerOctave)
}

// verdict is a probed ladder rung's outcome.
type verdict int

const (
	verdictPass    verdict = iota // met the latency limit with nothing failed or left over
	verdictMiss                   // the server missed: tail over the limit, failures, or a backlog
	verdictInvalid                // the generator fell behind its own schedule
)

func (v verdict) String() string {
	return [...]string{"pass", "miss", "invalid"}[v]
}

// climbLadder finds the highest rung that passes. It probes rung 0, climbs
// in strides of ladderCoarse until a rung misses, or descends from a
// missing rung 0 until one passes, then bisects the last gap down to one
// rung. It probes at most maxProbes rungs and never goes below minRung. An
// invalid rung ends the search, since a generator that cannot keep up at
// one rate cannot at a higher one; the rungs already judged stand. ok is
// false when no rung passed.
func climbLadder(minRung, maxProbes int, probe func(k int) verdict) (best int, ok bool) {
	lo, hi := 0, 0 // highest passing rung, lowest missing rung
	loOK, hiOK := false, false
	for probes := 0; probes < maxProbes; probes++ {
		var k int
		switch {
		case !loOK && !hiOK:
			k = 0
		case loOK && !hiOK:
			k = lo + ladderCoarse
		case hiOK && !loOK:
			if hi <= minRung {
				return 0, false
			}
			k = max(hi-ladderCoarse, minRung)
		case hi-lo > 1:
			k = (lo + hi) / 2
		default:
			return lo, true
		}
		switch probe(k) {
		case verdictPass:
			lo, loOK = k, true
		case verdictMiss:
			hi, hiOK = k, true
		default:
			return lo, loOK
		}
	}
	return lo, loOK
}

// serveTotals are the serve layer's sums and counts over one or more rate
// steps, each taken as the difference of two /metrics snapshots around the
// step. The serve histograms bucket by powers of two, so means come from
// their exact sums and counts, never from bucket quantiles.
type serveTotals struct {
	queueWait, batchSize, latency, discretize obs.HistSummary // Count and Sum only
	classifyNS, samples, failed               int64
}

// serveDelta is the serve layer's activity between two snapshots.
func serveDelta(before, after obs.Snapshot) serveTotals {
	d := after.DeltaFrom(before)
	return serveTotals{
		queueWait:  d.Hists["serve.queue_wait_ns"],
		batchSize:  d.Hists["serve.batch_size"],
		latency:    d.Hists["serve.latency_ns"],
		discretize: d.Hists["phase.serve/discretize"],
		classifyNS: d.Hists["phase.serve/classify"].Sum,
		samples:    d.Counters["serve.batch_samples"],
		failed:     d.Counters["serve.shed"] + d.Counters["serve.deadline_exceeded"],
	}
}

func (t *serveTotals) add(o serveTotals) {
	for _, p := range []struct{ dst, src *obs.HistSummary }{
		{&t.queueWait, &o.queueWait}, {&t.batchSize, &o.batchSize},
		{&t.latency, &o.latency}, {&t.discretize, &o.discretize},
	} {
		p.dst.Count += p.src.Count
		p.dst.Sum += p.src.Sum
	}
	t.classifyNS += o.classifyNS
	t.samples += o.samples
	t.failed += o.failed
}

// layerMeans are the serve layer's per-request means.
type layerMeans struct {
	QueueWaitMS   float64 // serve.queue_wait_ns mean
	BatchSize     float64 // serve.batch_size mean
	ServerMS      float64 // serve.latency_ns mean
	DiscretizeMS  float64 // phase.serve/discretize mean
	ClassifyRowMS float64 // phase.serve/classify sum per classified sample
	Failed        int64   // shed and deadline responses
}

func mean(h obs.HistSummary, scale float64) float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count) / scale
}

func (t serveTotals) means() layerMeans {
	m := layerMeans{
		QueueWaitMS:  mean(t.queueWait, 1e6),
		BatchSize:    mean(t.batchSize, 1),
		ServerMS:     mean(t.latency, 1e6),
		DiscretizeMS: mean(t.discretize, 1e6),
		Failed:       t.failed,
	}
	if t.samples > 0 {
		m.ClassifyRowMS = float64(t.classifyNS) / float64(t.samples) / 1e6
	}
	return m
}

func (m layerMeans) String() string {
	return fmt.Sprintf("queue_wait=%.3fms batch=%.2f server=%.3fms discretize=%.3fms classify_row=%.3fms failed=%d",
		m.QueueWaitMS, m.BatchSize, m.ServerMS, m.DiscretizeMS, m.ClassifyRowMS, m.Failed)
}
