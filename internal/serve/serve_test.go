package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"bstc/internal/dataset"
	"bstc/internal/eval"
	"bstc/internal/obs"
)

// testArtifact trains a small deterministic artifact: one cleanly separating
// gene, one constant gene (dropped by discretization), one noisy-but-cut gene.
func testArtifact(t testing.TB) *eval.Artifact {
	t.Helper()
	c := &dataset.Continuous{
		GeneNames:  []string{"sep", "flat", "wide"},
		ClassNames: []string{"A", "B"},
		Classes:    []int{0, 0, 0, 0, 1, 1, 1, 1},
		Values: [][]float64{
			{1.0, 7, 0.1}, {1.2, 7, 0.2}, {1.4, 7, 0.3}, {1.6, 7, 0.35},
			{8.0, 7, 0.9}, {8.2, 7, 0.95}, {8.4, 7, 1.0}, {8.6, 7, 1.1},
		},
	}
	art, err := eval.TrainArtifact(c, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// testSamples are the continuous rows the tests classify, including points
// not in the training set.
func testSamples() [][]float64 {
	return [][]float64{
		{1.0, 7, 0.1}, {1.6, 7, 0.35}, {8.0, 7, 0.9}, {8.6, 7, 1.1},
		{0.5, 3, 0.0}, {4.7, 9, 0.6}, {12.0, 7, 2.0}, {1.3, 7, 0.95},
	}
}

// expectedBody renders the exact bytes the server must produce for a sample:
// the JSON encoding of Response as written by writeJSON (trailing newline
// included), derived from the direct single-row classify path.
func expectedBody(t testing.TB, art *eval.Artifact, row []float64) []byte {
	t.Helper()
	class, conf, err := art.ClassifyRow(row)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(Response{
		Class:        art.Classifier.ClassNames[class],
		ClassIndex:   class,
		Confidence:   conf,
		ModelVersion: "v1", // the default version New installs
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postClassify(t testing.TB, url string, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/classify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

func valuesBody(t testing.TB, row []float64) string {
	t.Helper()
	b, err := json.Marshal(Request{Values: row})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestBatchingDeterminism is the core serving guarantee: across batch sizes,
// under concurrency, every response body is byte-identical to what the
// direct core classify path produces for that sample, and /runlogz must
// account for every row in batches no larger than BatchSize.
func TestBatchingDeterminism(t *testing.T) {
	art := testArtifact(t)
	samples := testSamples()
	want := make([][]byte, len(samples))
	for i, row := range samples {
		want[i] = expectedBody(t, art, row)
	}

	for _, batchSize := range []int{1, 3, 8, 64} {
		t.Run(fmt.Sprintf("batch=%d", batchSize), func(t *testing.T) {
			s := New(art, Config{BatchSize: batchSize, MaxInFlight: 64})
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			defer s.Close()

			const reps = 4
			var wg sync.WaitGroup
			errs := make(chan error, reps*len(samples))
			for r := 0; r < reps; r++ {
				for i := range samples {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						status, body := postClassify(t, ts.URL, valuesBody(t, samples[i]))
						if status != http.StatusOK {
							errs <- fmt.Errorf("sample %d: status %d: %s", i, status, body)
							return
						}
						if !bytes.Equal(body, want[i]) {
							errs <- fmt.Errorf("sample %d: body %q, want %q", i, body, want[i])
						}
					}(i)
				}
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}

			var recs []BatchRecord
			getJSON(t, ts.URL+"/runlogz", &recs)
			total, largest := 0, 0
			for _, r := range recs {
				total += r.Size
				largest = max(largest, r.Size)
			}
			if total != reps*len(samples) {
				t.Errorf("/runlogz batch sizes sum to %d, want %d", total, reps*len(samples))
			}
			if largest > batchSize {
				t.Errorf("a batch of %d rows exceeded BatchSize %d", largest, batchSize)
			}
		})
	}
}

// TestNextBatch pins batch formation: the batcher's request plus whatever
// is already queued, capped at the limit, without waiting for more and
// without tripping over a closed queue.
func TestNextBatch(t *testing.T) {
	queue := make(chan *pending, 8)
	for i := 0; i < 5; i++ {
		queue <- &pending{}
	}
	if got := len(nextBatch(&pending{}, queue, 4)); got != 4 {
		t.Errorf("5 queued, limit 4: batch of %d, want 4", got)
	}
	if got := len(queue); got != 2 {
		t.Errorf("%d requests left queued, want 2", got)
	}
	if got := len(nextBatch(&pending{}, queue, 32)); got != 3 {
		t.Errorf("2 queued, limit 32: batch of %d, want 3", got)
	}
	if got := len(nextBatch(&pending{}, queue, 32)); got != 1 {
		t.Errorf("empty queue: batch of %d, want 1", got)
	}
	queue <- &pending{}
	close(queue)
	if got := len(nextBatch(&pending{}, queue, 32)); got != 2 {
		t.Errorf("1 queued then closed: batch of %d, want 2", got)
	}
}

// TestItemsRequestMatchesValues checks the pre-discretized request form: the
// item names of a transformed row must classify byte-identically to sending
// the raw values.
func TestItemsRequestMatchesValues(t *testing.T) {
	art := testArtifact(t)
	s := New(art, Config{BatchSize: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	for i, row := range testSamples() {
		q, err := art.TransformRow(row)
		if err != nil {
			t.Fatal(err)
		}
		var items []string
		for _, idx := range q.Indices() {
			items = append(items, art.Disc.ItemNames[idx])
		}
		b, err := json.Marshal(Request{Items: items})
		if err != nil {
			t.Fatal(err)
		}
		status, body := postClassify(t, ts.URL, string(b))
		if status != http.StatusOK {
			t.Fatalf("sample %d: status %d: %s", i, status, body)
		}
		if want := expectedBody(t, art, row); !bytes.Equal(body, want) {
			t.Fatalf("sample %d: items body %q, values body %q", i, body, want)
		}
	}
}

// TestDeadlineExceeded504 pins the deadline path: a request whose batch is
// parked past the request deadline must answer 504, and the server must
// still shut down cleanly afterwards (the abandoned row classifies when
// the batch resumes).
func TestDeadlineExceeded504(t *testing.T) {
	parkBatches(t, 1, 150*time.Millisecond)
	reg := obs.NewRegistry()
	art := testArtifact(t)
	s := New(art, Config{
		RequestTimeout: 50 * time.Millisecond,
		Registry:       reg,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	status, body := postClassify(t, ts.URL, valuesBody(t, testSamples()[0]))
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", status, body)
	}
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return after a deadline-abandoned request")
	}
	snap := reg.Snapshot()
	if snap.Counters["serve.deadline_exceeded"] == 0 {
		t.Error("serve.deadline_exceeded counter not incremented")
	}
}

// TestSheddingAndDrain exercises admission control end to end: with
// MaxInFlight=2 occupied (both requests' batches parked), a third request
// is shed with 429; Shutdown then answers the two waiting requests with
// correct bodies as soon as the parked batches resume, and post-drain
// traffic gets 503.
func TestSheddingAndDrain(t *testing.T) {
	parkBatches(t, 2, 500*time.Millisecond)
	reg := obs.NewRegistry()
	art := testArtifact(t)
	s := New(art, Config{
		MaxInFlight:    2,
		RequestTimeout: 30 * time.Second,
		Registry:       reg,
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	samples := testSamples()
	type reply struct {
		status int
		body   []byte
	}
	replies := make(chan reply, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			status, body := postClassify(t, ts.URL, valuesBody(t, samples[i]))
			replies <- reply{status, body}
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.InFlight() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("two requests never became in-flight")
		}
		time.Sleep(time.Millisecond)
	}

	status, body := postClassify(t, ts.URL, valuesBody(t, samples[2]))
	if status != http.StatusTooManyRequests {
		t.Fatalf("third request: status %d (%s), want 429", status, body)
	}

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("drain took %s; the requests should answer as soon as the parked batches resume", elapsed)
	}
	wantBodies := map[string]bool{
		string(expectedBody(t, art, samples[0])): true,
		string(expectedBody(t, art, samples[1])): true,
	}
	for i := 0; i < 2; i++ {
		r := <-replies
		if r.status != http.StatusOK {
			t.Fatalf("in-flight request answered %d (%s) during drain, want 200", r.status, r.body)
		}
		if !wantBodies[string(r.body)] {
			t.Fatalf("in-flight request body %q does not match any expected sample", r.body)
		}
	}

	status, body = postClassify(t, ts.URL, valuesBody(t, samples[0]))
	if status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d (%s), want 503", status, body)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
	snap := reg.Snapshot()
	if snap.Counters["serve.shed"] == 0 {
		t.Error("serve.shed counter not incremented")
	}
	if snap.Counters["serve.rejected_draining"] == 0 {
		t.Error("serve.rejected_draining counter not incremented")
	}
}

// TestEndpointsAndMetrics covers the observability surface: /v1/model,
// /healthz, /metrics (counters and phase histograms present), /runlogz
// (batch records whose sizes sum to the answered requests).
func TestEndpointsAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	var logBuf bytes.Buffer
	rl := obs.NewRunLog(&logBuf)
	art := testArtifact(t)
	s := New(art, Config{BatchSize: 4, Registry: reg, RunLog: rl})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	samples := testSamples()
	for _, row := range samples {
		if status, body := postClassify(t, ts.URL, valuesBody(t, row)); status != http.StatusOK {
			t.Fatalf("status %d: %s", status, body)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	var model map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&model); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := model["genes"].(float64); got != 3 {
		t.Errorf("model genes = %v, want 3", got)
	}
	classes, ok := model["classes"].([]any)
	if !ok || len(classes) != 2 {
		t.Errorf("model classes = %v, want [A B]", model["classes"])
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := snap.Counters["serve.requests"]; got != int64(len(samples)) {
		t.Errorf("serve.requests = %d, want %d", got, len(samples))
	}
	if got := snap.Counters["serve.ok"]; got != int64(len(samples)) {
		t.Errorf("serve.ok = %d, want %d", got, len(samples))
	}
	if snap.Counters["serve.batches"] == 0 {
		t.Error("serve.batches = 0")
	}
	for _, h := range []string{"serve.batch_size", "serve.latency_ns", "serve.queue_wait_ns",
		"phase.serve/decode", "phase.serve/classify"} {
		if _, ok := snap.Hists[h]; !ok {
			t.Errorf("histogram %q missing from /metrics", h)
		}
	}

	resp, err = http.Get(ts.URL + "/runlogz")
	if err != nil {
		t.Fatal(err)
	}
	var recs []BatchRecord
	if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	total := 0
	for _, r := range recs {
		total += r.Size
		sum := 0
		for _, n := range r.Classes {
			sum += n
		}
		if sum != r.Size {
			t.Errorf("batch %d: class counts sum %d != size %d", r.Seq, sum, r.Size)
		}
	}
	if total != len(samples) {
		t.Errorf("/runlogz batch sizes sum to %d, want %d", total, len(samples))
	}
	if !bytes.Contains(logBuf.Bytes(), []byte(`"serve.batch"`)) {
		t.Error("run log did not receive serve.batch records")
	}
}

// TestBadRequests pins the 4xx surface.
func TestBadRequests(t *testing.T) {
	art := testArtifact(t)
	reg := obs.NewRegistry()
	s := New(art, Config{BatchSize: 1, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Close()

	cases := []struct {
		name string
		body string
		want int
	}{
		{"invalid JSON", "{nope", http.StatusBadRequest},
		{"neither field", "{}", http.StatusBadRequest},
		{"both fields", `{"values":[1,2,3],"items":["sep[1]"]}`, http.StatusBadRequest},
		{"wrong length", `{"values":[1,2]}`, http.StatusBadRequest},
		{"unknown item", `{"items":["nope[9]"]}`, http.StatusBadRequest},
		{"empty item", `{"items":[""]}`, http.StatusBadRequest},
		{"oversized body", `{"values":[` + strings.Repeat("1,", maxRequestBody/2) + `1]}`,
			http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		if status, body := postClassify(t, ts.URL, tc.body); status != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, status, body, tc.want)
		}
	}
	if got := counterValue(reg, "serve.bad_request"); got != int64(len(cases)) {
		t.Errorf("serve.bad_request = %d, want %d", got, len(cases))
	}

	resp, err := http.Get(ts.URL + "/v1/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/classify: %d, want 405", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/model", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/model: %d, want 405", resp.StatusCode)
	}
}

// TestDrainBeforeDecode pins the status order of the request path: the
// body is decoded after admission, so a draining server answers even a
// malformed body with 503, and only admitted requests count as bad ones.
func TestDrainBeforeDecode(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(testArtifact(t), Config{BatchSize: 1, Registry: reg})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, body := postClassify(t, ts.URL, "{nope"); status != http.StatusBadRequest {
		t.Fatalf("malformed body while serving: status %d (%s), want 400", status, body)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{"{nope", `{"values":[1,2]}`, valuesBody(t, testSamples()[0])} {
		if status, resp := postClassify(t, ts.URL, body); status != http.StatusServiceUnavailable {
			t.Errorf("body %q while draining: status %d (%s), want 503", body, status, resp)
		}
	}
	if got := counterValue(reg, "serve.bad_request"); got != 1 {
		t.Errorf("serve.bad_request = %d, want 1 (the request before the drain)", got)
	}
	if got := counterValue(reg, "serve.rejected_draining"); got != 3 {
		t.Errorf("serve.rejected_draining = %d, want 3", got)
	}
}

// TestReadBody: a declared length reads the body in one allocation, a
// chunked body (length -1) or one longer than declared still reads whole,
// and either stops one byte past maxRequestBody so the caller can 413.
func TestReadBody(t *testing.T) {
	body := bytes.Repeat([]byte("0123456789"), 30000)
	big := make([]byte, maxRequestBody+10)
	cases := []struct {
		name   string
		body   []byte
		length int64
		want   int
	}{
		{"declared", body, int64(len(body)), len(body)},
		{"chunked", body, -1, len(body)},
		{"longer than declared", body, 100, len(body)},
		{"empty", nil, 0, 0},
		{"oversized declared", big, int64(len(big)), maxRequestBody + 1},
		{"oversized chunked", big, -1, maxRequestBody + 1},
	}
	for _, tc := range cases {
		got, err := readBody(bytes.NewReader(tc.body), tc.length)
		if err != nil || len(got) != tc.want || !bytes.Equal(got, tc.body[:tc.want]) {
			t.Errorf("%s: read %d bytes (err %v), want the first %d", tc.name, len(got), err, tc.want)
		}
	}
	r := bytes.NewReader(body)
	if allocs := testing.AllocsPerRun(10, func() {
		r.Reset(body)
		if _, err := readBody(r, int64(len(body))); err != nil {
			t.Fatal(err)
		}
	}); allocs != 1 {
		t.Errorf("readBody with a declared length: %v allocs, want 1", allocs)
	}
}

// TestShutdownIdempotent: Close after Shutdown (and concurrent Shutdowns)
// must not panic or hang.
func TestShutdownIdempotent(t *testing.T) {
	s := New(testArtifact(t), Config{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Close(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBatchRingWraparound pins the /runlogz ring ordering across overwrite.
func TestBatchRingWraparound(t *testing.T) {
	r := newBatchRing(3)
	for i := 1; i <= 7; i++ {
		if seq := r.add(BatchRecord{Size: i}); seq != int64(i) {
			t.Fatalf("add %d returned seq %d", i, seq)
		}
	}
	recs := r.records()
	if len(recs) != 3 {
		t.Fatalf("ring holds %d records, want 3", len(recs))
	}
	for i, want := range []int64{5, 6, 7} {
		if recs[i].Seq != want || recs[i].Size != int(want) {
			t.Fatalf("ring[%d] = seq %d size %d, want seq %d", i, recs[i].Seq, recs[i].Size, want)
		}
	}
}
