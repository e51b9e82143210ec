package core

import (
	"math"

	"bstc/internal/bitset"
)

// evalScratch holds every piece of per-query state BSTCE needs, so that
// steady-state evaluation allocates nothing. The pair-value cache pairV is
// backed by one flat slab (one |outside|-sized stripe per column),
// materialized lazily per column exactly like the old per-call allocation;
// touched remembers which stripes were handed out so reset stays
// proportional to the work actually done, not the table size. q is the
// query, outQ[h] caches |H∩q| per outside sample (-1 until first needed),
// and qAndCol / qcCount hold q∩C of the column being evaluated;
// pairFraction derives every pair value from them. geneVal and order are
// the min-cover's per-gene values and outside-row heap (see coverColumn);
// they share the allocations of slab and outQ.
type evalScratch struct {
	pairV   [][]float64
	slab    []float64
	touched []int
	colVals []float64
	q       *bitset.Set
	outQ    []int32
	qAndCol *bitset.Set
	qcCount int
	hits    int64 // pair-value cache hits, added to met by putScratch

	geneVal []float64
	order   []int32
}

// reset prepares the scratch for a fresh query.
func (s *evalScratch) reset() {
	for _, c := range s.touched {
		s.pairV[c] = nil
	}
	s.touched = s.touched[:0]
	for c := range s.colVals {
		s.colVals[c] = math.NaN()
	}
	for h := range s.outQ {
		s.outQ[h] = -1
	}
}

// setColumn makes q the query and column gene set col the current column:
// qAndCol = q∩col. It returns |q∩col|.
func (s *evalScratch) setColumn(q, col *bitset.Set) int {
	s.q = q
	q.IntersectInto(s.qAndCol, col)
	s.qcCount = s.qAndCol.Count()
	return s.qcCount
}

// column returns the pair-value cache stripe of column c, materializing it
// NaN-filled on first use.
func (s *evalScratch) column(c, outs int) []float64 {
	pv := s.pairV[c]
	if pv == nil {
		pv = s.slab[c*outs : (c+1)*outs]
		for h := range pv {
			pv[h] = math.NaN()
		}
		s.pairV[c] = pv
		s.touched = append(s.touched, c)
	}
	return pv
}

// getScratch takes a scratch sized for t from its pool, building one on
// first use. The pool is never serialized, so classifiers loaded from disk
// warm up lazily exactly like freshly trained ones.
func (t *BST) getScratch() *evalScratch {
	if s, ok := t.scratch.Get().(*evalScratch); ok {
		return s
	}
	cols, outs := len(t.ClassSamples), len(t.OutsideSamples)
	floats := make([]float64, cols*outs+t.numGenes)
	ints := make([]int32, 2*outs)
	return &evalScratch{
		pairV:   make([][]float64, cols),
		slab:    floats[: cols*outs : cols*outs],
		geneVal: floats[cols*outs:],
		touched: make([]int, 0, cols),
		colVals: make([]float64, cols),
		outQ:    ints[:outs:outs],
		order:   ints[outs:],
		qAndCol: bitset.New(t.numGenes),
	}
}

// putScratch publishes the query's cache hits and returns s to the pool,
// dropping its reference to the query.
func (t *BST) putScratch(s *evalScratch) {
	met.clauseCacheHits.Add(s.hits)
	s.hits, s.q = 0, nil
	t.scratch.Put(s)
}
