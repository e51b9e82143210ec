package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"bstc/internal/obs"
	"bstc/internal/serve"
)

// answer is one row's expected classification.
type answer struct {
	class int
	conf  float64
}

// target is a running server plus the request rows the generator sends it
// and the answer each row must get.
type target struct {
	url    string
	client *http.Client
	conns  int
	bodies [][]byte
	oracle []answer
}

// newClient returns a client holding at most conns keep-alive connections.
func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
}

// failedLatency stands in for the latency of a request that failed or was
// never sent, so that it counts as missing every latency limit.
const failedLatency = time.Duration(math.MaxInt64)

// reqRecord is one scheduled request's timeline.
type reqRecord struct {
	due, dispatched, sent, done time.Time
	status                      int
	wrong, unsent               bool
}

// stepResult summarises one open-loop rate step.
type stepResult struct {
	name       string
	rate       float64
	sent       int
	non200     int
	wrong      int
	unfinished int
	latency    []time.Duration // sorted; failed and unsent requests are failedLatency
	late       []time.Duration // sorted dispatch lateness against the schedule
	ok         int             // 200s with the right answer
	clientSum  time.Duration   // their summed send-to-response times
	serve      serveTotals
}

// merge pools another step at the same rate into s.
func (s *stepResult) merge(o *stepResult) {
	s.sent += o.sent
	s.non200 += o.non200
	s.wrong += o.wrong
	s.unfinished += o.unfinished
	s.latency = sortedCopy(append(s.latency, o.latency...))
	s.late = sortedCopy(append(s.late, o.late...))
	s.ok += o.ok
	s.clientSum += o.clientSum
	s.serve.add(o.serve)
}

// means are the serve layer's means over the step; failures the client saw
// as non-200 responses count too.
func (s *stepResult) means() layerMeans {
	m := s.serve.means()
	m.Failed += int64(s.non200)
	return m
}

func (s *stepResult) p(q float64) time.Duration { return percentile(s.latency, q) }

func (s *stepResult) failures() int { return s.non200 + s.wrong + s.unfinished }

// unattributedMS is the client's mean send-to-response time minus the
// server's own mean: HTTP, JSON and loopback.
func (s *stepResult) unattributedMS() float64 {
	if s.ok == 0 {
		return 0
	}
	return ms(s.clientSum/time.Duration(s.ok)) - s.means().ServerMS
}

// judge rates the step against a p90 latency limit. A generator whose
// dispatch ran more than a quarter of the limit late at p90 did not offer
// the scheduled rate, so the step is invalid rather than a server miss.
// Go's timers wake up to about a millisecond late even on an idle machine,
// so a tighter rule would reject sound steps.
func (s *stepResult) judge(limit time.Duration) verdict {
	switch {
	case percentile(s.late, 90) > limit/4:
		return verdictInvalid
	case s.failures() > 0 || s.p(90) > limit:
		return verdictMiss
	}
	return verdictPass
}

func (s *stepResult) report(limit time.Duration) string {
	tail := "tail n/a"
	if p, beyond, ok := tailPercentile(len(s.latency)); ok {
		tail = fmt.Sprintf("tail p%g=%.3fms (%d beyond)", p, ms(s.p(p)), beyond)
	}
	return fmt.Sprintf("%-8s rate=%7.2f/s n=%d p50=%.3fms p90=%.3fms %s gen.late p90=%.3fms max=%.3fms failures=%d verdict=%s | %s unattributed=%.3fms",
		s.name, s.rate, len(s.latency), ms(s.p(50)), ms(s.p(90)), tail,
		ms(percentile(s.late, 90)), ms(percentile(s.late, 100)), s.failures(), s.judge(limit),
		s.means(), s.unattributedMS())
}

// metricsSnapshot reads the server's /metrics document.
func (t *target) metricsSnapshot(ctx context.Context) (obs.Snapshot, error) {
	var snap obs.Snapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, t.url+"/metrics", nil)
	if err != nil {
		return snap, err
	}
	resp, err := t.client.Do(req)
	if err != nil {
		return snap, fmt.Errorf("read /metrics: %w", err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("decode /metrics: %w", err)
	}
	return snap, nil
}

// runStep drives one open-loop step: a seeded Poisson schedule at rate,
// over at least dur and minN arrivals, sent through t.conns connections.
// Each request is timed from its due time, so waiting for a free
// connection counts. Requests still unsent dropAfter past the end of the
// schedule are dropped and count as unfinished: the backlog grew.
func (t *target) runStep(ctx context.Context, name string, rate float64, dur time.Duration, minN int, seed int64, dropAfter time.Duration) (*stepResult, error) {
	due, rows := schedule(rand.New(rand.NewSource(seed)), rate, dur, minN, len(t.bodies))
	recs := make([]reqRecord, len(due))
	before, err := t.metricsSnapshot(ctx)
	if err != nil {
		return nil, err
	}

	queue := make(chan int, len(due)) // holds the whole schedule: the dispatcher never blocks
	var drop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < t.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				if drop.Load() {
					recs[i].unsent = true
					continue
				}
				t.send(ctx, &recs[i], rows[i])
			}
		}()
	}
	start := time.Now().Add(time.Millisecond)
	end := start.Add(max(dur, due[len(due)-1]))
	stopper := time.AfterFunc(time.Until(end.Add(dropAfter)), func() { drop.Store(true) })
	for i, d := range due {
		recs[i].due = start.Add(d)
		if wait := time.Until(recs[i].due); wait > 0 {
			time.Sleep(wait)
		}
		recs[i].dispatched = time.Now()
		queue <- i
	}
	close(queue)
	wg.Wait()
	stopper.Stop()
	after, err := t.metricsSnapshot(ctx)
	if err != nil {
		return nil, err
	}

	res := &stepResult{name: name, rate: rate, serve: serveDelta(before, after)}
	for i := range recs {
		r := &recs[i]
		res.late = append(res.late, r.dispatched.Sub(r.due))
		switch {
		case r.unsent:
			res.unfinished++
			res.latency = append(res.latency, failedLatency)
			continue
		case r.status != http.StatusOK:
			res.non200++
		case r.wrong:
			res.wrong++
		}
		res.sent++
		if r.status != http.StatusOK || r.wrong {
			res.latency = append(res.latency, failedLatency)
			continue
		}
		res.ok++
		res.clientSum += r.done.Sub(r.sent)
		res.latency = append(res.latency, r.done.Sub(r.due))
	}
	res.latency = sortedCopy(res.latency)
	res.late = sortedCopy(res.late)
	return res, nil
}

// send posts one request row and checks the answer against the oracle.
func (t *target) send(ctx context.Context, r *reqRecord, row int) {
	r.sent = time.Now()
	defer func() { r.done = time.Now() }()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, t.url+"/v1/classify", bytes.NewReader(t.bodies[row]))
	if err != nil {
		return
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := t.client.Do(req)
	if err != nil {
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return
	}
	r.status = resp.StatusCode
	if r.status != http.StatusOK {
		return
	}
	var got serve.Response
	if err := json.Unmarshal(body, &got); err != nil {
		r.wrong = true
		return
	}
	want := t.oracle[row]
	r.wrong = got.ClassIndex != want.class || got.Confidence != want.conf
}
