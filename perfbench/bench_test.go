package main

import (
	"context"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"bstc/internal/obs"
	"bstc/internal/serve"
)

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{10000, 99.9, 10, true},
		{1000, 99, 10, true},
		{999, 95, 49, true},
		{200, 95, 10, true},
		{100, 90, 10, true},
		{99, 75, 24, true},
		{40, 75, 10, true},
		{20, 50, 10, true},
		{19, 0, 0, false},
	}
	for _, c := range cases {
		p, beyond, ok := tailPercentile(c.n)
		if p != c.p || beyond != c.beyond || ok != c.ok {
			t.Errorf("tailPercentile(%d) = p%g, %d beyond, %v; want p%g, %d, %v", c.n, p, beyond, ok, c.p, c.beyond, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 100; i++ {
		d = append(d, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(d, c.p); got != c.want {
			t.Errorf("p%g = %d, want %d", c.p, got, c.want)
		}
	}
}

func TestScheduleIsSeeded(t *testing.T) {
	draw := func(seed int64) ([]time.Duration, []int) {
		return schedule(rand.New(rand.NewSource(seed)), 50, 2*time.Second, 100, 7)
	}
	a, ra := draw(3)
	b, rb := draw(3)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(ra, rb) {
		t.Fatal("same seed gave different schedules")
	}
	c, _ := draw(4)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) < 100 {
		t.Fatalf("schedule has %d arrivals, want at least 100", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i] < a[i-1] {
			t.Fatalf("arrival %d at %v precedes %v", i, a[i], a[i-1])
		}
	}
	// Every row is sent once per cycle of seven.
	for start := 0; start+7 <= len(ra); start += 7 {
		seen := map[int]bool{}
		for _, r := range ra[start : start+7] {
			if r < 0 || r >= 7 || seen[r] {
				t.Fatalf("rows %v: cycle at %d is not a permutation of 0..6", ra, start)
			}
			seen[r] = true
		}
	}
	// A long schedule keeps to its rate: 20 000 arrivals at 1000/s.
	long, _ := schedule(rand.New(rand.NewSource(1)), 1000, 20*time.Second, 0, 1)
	if n := len(long); n < 19000 || n > 21000 {
		t.Fatalf("20 s at 1000/s drew %d arrivals", n)
	}
	if stepSeed(1, "light", 0) == stepSeed(1, "heavy", 0) || stepSeed(1, "rung", 1) == stepSeed(1, "rung", 2) ||
		stepSeed(1, "light", 0) == stepSeed(2, "light", 0) {
		t.Fatal("step seeds collide")
	}
}

func TestServeMeansFromDeltas(t *testing.T) {
	before := obs.Snapshot{
		Counters: map[string]int64{"serve.batch_samples": 10, "serve.shed": 1},
		Hists: map[string]obs.HistSummary{
			"serve.queue_wait_ns":    {Count: 10, Sum: 20e6},
			"serve.batch_size":       {Count: 5, Sum: 10},
			"serve.latency_ns":       {Count: 10, Sum: 30e6},
			"phase.serve/discretize": {Count: 10, Sum: 1e6},
			"phase.serve/classify":   {Count: 5, Sum: 50e6},
		},
	}
	after := obs.Snapshot{
		Counters: map[string]int64{"serve.batch_samples": 40, "serve.shed": 3, "serve.deadline_exceeded": 1},
		Hists: map[string]obs.HistSummary{
			"serve.queue_wait_ns":    {Count: 40, Sum: 80e6},  // +30 waits, 60 ms
			"serve.batch_size":       {Count: 15, Sum: 40},    // +10 batches, 30 samples
			"serve.latency_ns":       {Count: 40, Sum: 120e6}, // +30 requests, 90 ms
			"phase.serve/discretize": {Count: 40, Sum: 4e6},   // +30, 3 ms
			"phase.serve/classify":   {Count: 15, Sum: 110e6}, // +10 batches, 60 ms for 30 rows
		},
	}
	d := serveDelta(before, after)
	want := layerMeans{QueueWaitMS: 2, BatchSize: 3, ServerMS: 3, DiscretizeMS: 0.1, ClassifyRowMS: 2, Failed: 3}
	if got := d.means(); got != want {
		t.Fatalf("means = %+v, want %+v", got, want)
	}
	if z := serveDelta(before, before).means(); z != (layerMeans{}) {
		t.Fatalf("an idle step gave %+v, want zeros", z)
	}
	// Pooling a second step weights each by its counts, not by step.
	later := serveTotals{
		queueWait: obs.HistSummary{Count: 10, Sum: 100e6}, batchSize: obs.HistSummary{Count: 10, Sum: 10},
		latency: obs.HistSummary{Count: 10, Sum: 10e6}, discretize: obs.HistSummary{Count: 10, Sum: 1e6},
		classifyNS: 20e6, samples: 10,
	}
	d.add(later)
	want = layerMeans{QueueWaitMS: 4, BatchSize: 2, ServerMS: 2.5, DiscretizeMS: 0.1, ClassifyRowMS: 2, Failed: 3}
	if got := d.means(); got != want {
		t.Fatalf("pooled means = %+v, want %+v", got, want)
	}
	st := &stepResult{serve: d, non200: 2}
	if got := st.means().Failed; got != 5 {
		t.Fatalf("failed = %d, want shed + deadline + non-200 = 5", got)
	}
}

// ladderProbe passes every rung up to capacity, records what it probed,
// and reports rungs from invalidFrom upward as invalid.
func ladderProbe(capacity, invalidFrom int, probed *[]int) func(int) verdict {
	return func(k int) verdict {
		*probed = append(*probed, k)
		switch {
		case k >= invalidFrom:
			return verdictInvalid
		case k <= capacity:
			return verdictPass
		}
		return verdictMiss
	}
}

func TestClimbLadder(t *testing.T) {
	const never = 1 << 30
	cases := []struct {
		name        string
		capacity    int
		invalidFrom int
		maxProbes   int
		best        int
		ok          bool
		probed      []int
	}{
		{"up then bisect", 9, never, 6, 9, true, []int{0, 4, 8, 12, 10, 9}},
		{"exact coarse rung", 8, never, 6, 8, true, []int{0, 4, 8, 12, 10, 9}},
		{"probe budget caps the bisection", 9, never, 5, 8, true, []int{0, 4, 8, 12, 10}},
		{"below rung 0", -3, never, 6, -3, true, []int{0, -4, -2, -3}},
		{"nothing passes above the floor", -30, never, 9, 0, false, []int{0, -4, -8, -12, -16}},
		{"an invalid rung stops the climb", 20, 8, 6, 4, true, []int{0, 4, 8}},
		{"an invalid rung 0", 20, 0, 6, 0, false, []int{0}},
	}
	for _, c := range cases {
		var probed []int
		best, ok := climbLadder(-16, c.maxProbes, ladderProbe(c.capacity, c.invalidFrom, &probed))
		if best != c.best || ok != c.ok || !reflect.DeepEqual(probed, c.probed) {
			t.Errorf("%s: got best %d ok %v probed %v; want %d %v %v", c.name, best, ok, probed, c.best, c.ok, c.probed)
		}
	}
}

func TestJudge(t *testing.T) {
	limit := 10 * time.Millisecond
	step := func(p90, late time.Duration, unfinished int) *stepResult {
		s := &stepResult{unfinished: unfinished}
		for i := 0; i < 100; i++ {
			lat := time.Millisecond
			if i >= 89 {
				lat = p90
			}
			s.latency = append(s.latency, lat)
			s.late = append(s.late, late)
		}
		return s
	}
	cases := []struct {
		name string
		s    *stepResult
		want verdict
	}{
		{"within the limit", step(9*time.Millisecond, time.Millisecond, 0), verdictPass},
		{"tail over the limit", step(11*time.Millisecond, time.Millisecond, 0), verdictMiss},
		{"backlog left unsent", step(time.Millisecond, time.Millisecond, 1), verdictMiss},
		{"generator behind", step(time.Millisecond, 3*time.Millisecond, 0), verdictInvalid},
	}
	for _, c := range cases {
		if got := c.s.judge(limit); got != c.want {
			t.Errorf("%s: %v, want %v", c.name, got, c.want)
		}
	}
}

// fakeServer answers classify requests with class 1 after delay and
// tracks the most requests it ever held at once.
func fakeServer(t *testing.T, delay time.Duration, peak *atomic.Int64) *httptest.Server {
	var inflight atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(obs.Snapshot{}) //nolint:errcheck
	})
	mux.HandleFunc("/v1/classify", func(w http.ResponseWriter, r *http.Request) {
		n := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(delay)
		json.NewEncoder(w).Encode(serve.Response{ClassIndex: 1, Confidence: 0.5}) //nolint:errcheck
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestRunStepCapsConnectionsAndChecksAnswers(t *testing.T) {
	var peak atomic.Int64
	srv := fakeServer(t, 2*time.Millisecond, &peak)
	tg := &target{url: srv.URL, client: newClient(2), conns: 2, bodies: [][]byte{[]byte(`{}`), []byte(`{}`)},
		oracle: []answer{{1, 0.5}, {0, 0.5}}}
	st, err := tg.runStep(context.Background(), "t", 400, 200*time.Millisecond, 60, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 2 {
		t.Fatalf("server saw %d requests at once through 2 connections", p)
	}
	if st.sent < 60 || st.unfinished != 0 {
		t.Fatalf("sent %d, %d unfinished", st.sent, st.unfinished)
	}
	// Row 1's oracle disagrees with the server, so its requests are wrong.
	if st.wrong == 0 || st.wrong == st.sent {
		t.Fatalf("%d of %d answers wrong; want only row 1's", st.wrong, st.sent)
	}
	if st.judge(time.Second) != verdictMiss {
		t.Fatal("a step with wrong answers passed")
	}
}

func TestRunStepDropsGrowingBacklog(t *testing.T) {
	var peak atomic.Int64
	srv := fakeServer(t, 20*time.Millisecond, &peak)
	tg := &target{url: srv.URL, client: newClient(1), conns: 1, bodies: [][]byte{[]byte(`{}`)}, oracle: []answer{{1, 0.5}}}
	// 200 requests per second against one connection that takes 20 ms
	// each: the queue grows by about 150 a second.
	st, err := tg.runStep(context.Background(), "t", 200, 300*time.Millisecond, 0, 1, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if st.unfinished == 0 {
		t.Fatal("no request was left unsent behind a growing backlog")
	}
	if got := st.judge(30 * time.Millisecond); got != verdictMiss {
		t.Fatalf("backlogged step judged %v", got)
	}
	if st.p(90) != failedLatency {
		t.Fatal("unsent requests did not count as missing the limit")
	}
}

func TestSelfTimes(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{name: "root", id: 1, start: at(0), end: at(100)},
		{name: "a", id: 2, parent: 1, start: at(10), end: at(40)},
		{name: "b", id: 3, parent: 1, start: at(30), end: at(60)},  // overlaps a
		{name: "a", id: 4, parent: 1, start: at(90), end: at(120)}, // runs past the parent
		{name: "c", id: 5, parent: 3, start: at(35), end: at(45)},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"root": 40 * time.Millisecond, // 100 − [10,60] − [90,100]
		"a":    60 * time.Millisecond,
		"b":    20 * time.Millisecond,
		"c":    10 * time.Millisecond,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	var nilRec *recorder
	if id := nilRec.start("x", 0, 0); id != 0 {
		t.Fatal("nil recorder recorded a span")
	}
	nilRec.end(0)
}

func TestWorkloadConfigs(t *testing.T) {
	names := map[string]bool{}
	studies := 0
	for _, w := range workloads() {
		if names[w.name] {
			t.Fatalf("workload %q twice", w.name)
		}
		names[w.name] = true
		if w.light >= w.heavy || w.light >= w.ladderBase || w.limit <= 0 || w.setupBatch < 1 || w.maxProbes < 1 {
			t.Errorf("workload %q is misconfigured: %+v", w.name, w)
		}
		if len(w.study.profiles) > 0 {
			studies++
		}
		for _, p := range w.study.profiles {
			if p.Name == "LC" {
				t.Errorf("workload %q studies LC, whose lower-bound mining can exhaust memory", w.name)
			}
		}
	}
	if studies == 0 {
		t.Error("no workload runs the cross-validation study")
	}
}
