package core

import (
	"runtime"
	"sync"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
)

// ClassifyBatchParallel classifies every row of a test dataset using up to
// workers goroutines (≤ 0 means GOMAXPROCS). Evaluation is read-only on the
// trained tables and each query draws its scratch state from the per-table
// pool — a worker classifying a contiguous chunk keeps getting its own
// scratch back — so queries parallelize without locking or steady-state
// allocation. Results are returned in input order.
func (cl *Classifier) ClassifyBatchParallel(test *dataset.Bool, workers int) []int {
	out := make([]int, len(test.Rows))
	forEachRow(len(test.Rows), workers, func(i int) { out[i] = cl.Classify(test.Rows[i]) })
	return out
}

// ClassifyRowsWithConfidence is ClassifyBatchParallel over bare rows that
// also returns each row's confidence, both from one evaluation per row
// (ClassifyWithConfidence).
func (cl *Classifier) ClassifyRowsWithConfidence(rows []*bitset.Set, workers int) (classes []int, confidences []float64) {
	classes, confidences = make([]int, len(rows)), make([]float64, len(rows))
	forEachRow(len(rows), workers, func(i int) {
		classes[i], confidences[i] = cl.ClassifyWithConfidence(rows[i])
	})
	return classes, confidences
}

// forEachRow calls fn(i) for every i in [0, n), splitting the range into
// one contiguous chunk per worker (≤ 0 workers means GOMAXPROCS). The
// calling goroutine works the last chunk itself, so a single worker runs
// inline, without a goroutine.
func forEachRow(n, workers int, fn func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = max(1, min(workers, n))
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	lo := 0
	for ; lo+chunk < n; lo += chunk {
		first, end := lo, lo+chunk
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := first; i < end; i++ {
				fn(i)
			}
		}()
	}
	for i := lo; i < n; i++ {
		fn(i)
	}
	wg.Wait()
}
