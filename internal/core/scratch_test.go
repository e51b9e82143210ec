package core

import (
	"math/rand"
	"testing"
)

// allocsWithRetry measures steady-state allocations, retrying a few times
// because the GC may clear the scratch sync.Pool mid-measurement and charge
// the rebuild to the run. Any clean attempt proves the path is alloc-free.
func allocsWithRetry(t *testing.T, want float64, f func()) float64 {
	t.Helper()
	var got float64
	for attempt := 0; attempt < 3; attempt++ {
		got = testing.AllocsPerRun(100, f)
		if got <= want {
			return got
		}
	}
	return got
}

// TestEvaluateSteadyStateAllocs pins the BSTCE hot path at zero steady-state
// allocations: EvaluateValue, Classify, ClassifyWithConfidence and
// ValuesInto must all run entirely out of pooled scratch once warm, on a
// table the cost model evaluates with the scalar walk and on one it
// evaluates with the min-cover.
func TestEvaluateSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector, so pooled paths allocate")
	}
	r := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		name         string
		genes        int
		wantCoverCol bool
	}{
		{"scalar", 30, false},
		{"cover", 400, true},
	} {
		d := randomBoolDataset(r, 20, tc.genes, 2, 0)
		cl, err := Train(d, nil)
		if err != nil {
			t.Fatal(err)
		}
		q := randomRow(r, d.NumGenes())
		tb := cl.Tables[0]
		if got := int64(q.IntersectionCount(tb.colGenes[0])) >= tb.coverMin; got != tc.wantCoverCol {
			t.Fatalf("%s: cost model picks the cover = %v, want %v", tc.name, got, tc.wantCoverCol)
		}
		vals := make([]float64, len(cl.Tables))

		// Warm the pools before measuring.
		_ = tb.EvaluateValue(q, cl.Opts)
		_ = cl.Classify(q)

		if got := allocsWithRetry(t, 0, func() { _ = tb.EvaluateValue(q, cl.Opts) }); got != 0 {
			t.Errorf("%s: EvaluateValue allocates %v per run, want 0", tc.name, got)
		}
		if got := allocsWithRetry(t, 0, func() { _ = cl.Classify(q) }); got != 0 {
			t.Errorf("%s: Classify allocates %v per run, want 0", tc.name, got)
		}
		if got := allocsWithRetry(t, 0, func() { _, _ = cl.ClassifyWithConfidence(q) }); got != 0 {
			t.Errorf("%s: ClassifyWithConfidence allocates %v per run, want 0", tc.name, got)
		}
		if got := allocsWithRetry(t, 0, func() { cl.ValuesInto(vals, q) }); got != 0 {
			t.Errorf("%s: ValuesInto allocates %v per run, want 0", tc.name, got)
		}
		// Evaluate keeps exactly one allocation: the ColumnValues slice it
		// hands to the caller.
		if got := allocsWithRetry(t, 1, func() { _ = tb.Evaluate(q, cl.Opts) }); got > 1 {
			t.Errorf("%s: Evaluate allocates %v per run, want <= 1", tc.name, got)
		}
	}
}
