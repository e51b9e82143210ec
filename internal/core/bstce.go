package core

import (
	"math"
	"math/bits"
	"sort"

	"bstc/internal/bitset"
)

// Arithmetization selects how BSTCE combines the satisfaction fractions of a
// cell's exclusion lists into one cell value. The paper's Algorithm 5 uses
// the minimum (line 10, "we don't assume independence and use a min");
// §8 proposes experimenting with alternatives, of which the natural one is
// the independence-assuming product discussed in §5.2.
type Arithmetization int

// Supported arithmetizations.
const (
	// MinCombine is the paper's choice: the cell value is the weakest
	// exclusion list's satisfaction fraction.
	MinCombine Arithmetization = iota
	// ProductCombine multiplies the fractions, assuming the lists exclude
	// independently.
	ProductCombine
)

func (a Arithmetization) String() string {
	switch a {
	case MinCombine:
		return "min"
	case ProductCombine:
		return "product"
	}
	return "unknown"
}

// EvalOptions tunes BSTCE evaluation.
type EvalOptions struct {
	// Arithmetization combines a cell's list fractions (default MinCombine).
	Arithmetization Arithmetization
	// CullListsTo, when > 0, considers only that many exclusion lists per
	// cell — the ones with the shortest (most discriminating) clauses — as
	// §8's proposed per-query cost reduction. 0 means no culling.
	CullListsTo int
}

// Evaluation is the result of running BSTCE against one BST.
type Evaluation struct {
	// Value is Algorithm 5's final return: the mean over non-blank columns
	// of the per-column mean cell value; 0 when every column is blank.
	Value float64
	// ColumnValues[c] is the per-column mean (Algorithm 5 line 14), or NaN
	// for blank columns.
	ColumnValues []float64
}

// Evaluate runs BSTCE (Algorithm 5): it quantizes how well query q satisfies
// the table's atomic cell rules and returns the expectation described in
// §5.2. q is the query's expressed-gene set over the same gene universe.
// The returned ColumnValues are the caller's to keep, so this allocates one
// slice; EvaluateValue is the allocation-free variant for callers that only
// need the scalar.
func (t *BST) Evaluate(q *bitset.Set, opts EvalOptions) Evaluation {
	s := t.getScratch()
	ev := Evaluation{Value: t.evaluate(q, opts, s)}
	ev.ColumnValues = append([]float64(nil), s.colVals...)
	t.putScratch(s)
	return ev
}

// EvaluateValue is Evaluate without the per-column breakdown: the scratch
// state comes from the table's pool, so steady-state calls do not allocate.
// This is the path Classify and batch classification run on.
func (t *BST) EvaluateValue(q *bitset.Set, opts EvalOptions) float64 {
	s := t.getScratch()
	v := t.evaluate(q, opts, s)
	t.putScratch(s)
	return v
}

// evaluate is Algorithm 5 against caller-provided scratch. s.colVals holds
// the per-column means on return.
func (t *BST) evaluate(q *bitset.Set, opts EvalOptions, s *evalScratch) float64 {
	if q.Len() != t.numGenes {
		panic("core: query gene universe does not match BST")
	}
	met.evals.Inc()
	s.reset()

	minOnly := opts.Arithmetization == MinCombine && opts.CullListsTo <= 0
	var colSum float64
	nonBlank := 0
	for c := range t.ClassSamples {
		// Genes considered in this column: expressed by both q and the
		// column sample (Algorithm 5 line 6; Figure 3 keeps only Q's genes).
		n := s.setColumn(q, t.colGenes[c])
		if n == 0 {
			continue
		}
		var sum float64
		if minOnly && int64(n) >= t.coverMin {
			sum = t.coverColumn(s, c)
		} else {
			s.qAndCol.ForEach(func(g int) bool {
				sum += t.cellValue(s, g, c, opts)
				return true
			})
		}
		v := sum / float64(n)
		s.colVals[c] = v
		colSum += v
		nonBlank++
	}
	if nonBlank > 0 {
		return colSum / float64(nonBlank)
	}
	return 0
}

// coverMinQC is the per-column cost model choosing coverColumn over the
// scalar cellValue walk, as the least |q∩C| at which the cover pays. The
// scalar walk visits every outside expresser of every cell: about
// |q∩C|·Σ|H|/|G| steps. The cover derives |O| pair values, heap-orders
// them and takes up to |O| outside rows of `words` words each:
// |O|·(words + log|O| + 8), the 8 standing for the per-row pair fraction
// and loop overhead. Timed on the synthetic profiles (EXPERIMENTS.md,
// "BSTCE min-cover"), the cover breaks even when the scalar estimate is
// 0.35-0.5 of the cover's, so it is taken when 2·|q∩C|·Σ|H| > |G|·|O|·
// (words + log|O| + 8), from the returned |q∩C| on. It works in int64: at
// paper scale the right-hand side alone passes 1e7, and it grows with
// |G|²·|O|. A table without outside expressers never takes the cover.
func coverMinQC(genes, outs int, outTotal int64) int64 {
	if outTotal == 0 {
		return math.MaxInt64
	}
	o := int64(outs)
	words := int64((genes + 63) / 64)
	return int64(genes)*o*(words+int64(bits.Len64(uint64(o)))+8)/(2*outTotal) + 1
}

// coverColumn returns the sum of column c's cell values under MinCombine
// without culling, turning the per-cell min around into a greedy cover:
// a cell's value is the least pv[h] over the outside rows H expressing its
// gene, so visiting the outside rows in ascending pv order hands each gene
// of q∩C its value the first time a row covers it. Every pair fraction is
// derived once, up front, into the column's pair-cache stripe. Rows with
// pv = 1 are never visited: the genes they alone would cover, black dots
// included, score 1. The per-gene values are summed in ascending gene
// order, the scalar path's order, so the sum is bit-identical to it.
func (t *BST) coverColumn(s *evalScratch, c int) float64 {
	pv := s.column(c, len(t.outRows))
	order := s.order[:0]
	for h := range t.outRows {
		if pv[h] = t.pairFraction(s, c, h); pv[h] < 1 {
			order = append(order, int32(h))
		}
	}
	// A min-heap, not a sort: the walk usually ends after a third of the
	// rows, so only the rows it visits pay for their place in the order.
	for i := len(order)/2 - 1; i >= 0; i-- {
		siftDown(order, pv, i)
	}

	// qAndCol doubles as the set of still-uncovered genes: its only other
	// reader, pairFraction, is done with this column.
	u, val := s.qAndCol, s.geneVal
	done := false
	for len(order) > 0 {
		h := order[0]
		last := len(order) - 1
		order[0] = order[last]
		order = order[:last]
		siftDown(order, pv, 0)
		if u.Take(t.outRows[h], func(g int) { val[g] = pv[h] }) {
			done = true
			break
		}
	}
	if !done {
		u.ForEach(func(g int) bool {
			val[g] = 1
			return true
		})
	}
	s.q.IntersectInto(u, t.colGenes[c]) // q∩C again, to sum in gene order
	var sum float64
	u.ForEach(func(g int) bool {
		sum += val[g]
		return true
	})
	return sum
}

// siftDown restores the min-heap order, by pv, of the outside positions h
// below position i.
func siftDown(h []int32, pv []float64, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if r := c + 1; r < len(h) && pv[h[r]] < pv[h[c]] {
			c = r
		}
		if pv[h[i]] <= pv[h[c]] {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// cellValue computes Algorithm 5 lines 7-11 for cell (g, c): 1 for black
// dots, otherwise the combination of the cell's exclusion-list satisfaction
// fractions. The pair-value cache lives in s, whose current column must be
// c (see evalScratch.setColumn).
func (t *BST) cellValue(s *evalScratch, g, c int, opts EvalOptions) float64 {
	if t.exclusive[g] {
		return 1
	}
	pv := s.column(c, len(t.OutsideSamples))
	// pair returns pair h's fraction, computing it on the column's first
	// use. It inlines into the loops below; a call per cache hit cost about
	// a quarter of the evaluation time on the paper-scale OC profile.
	pair := func(h int) float64 {
		if f := pv[h]; !math.IsNaN(f) {
			s.hits++
			return f
		}
		return t.pairMiss(pv, s, c, h)
	}

	outs := t.geneOutside[g]
	// The rank directory answers the covering check in O(1); the scan-based
	// outs.Count() here used to cost a full word pass per cell per query.
	if k := opts.CullListsTo; k > 0 && t.cullIdx()[g].Count() > k {
		// §8's list culling: consider only the cell's k shortest (most
		// discriminating) exclusion lists. The per-column shortest-first
		// order is precomputed on the first culled query, so culling
		// genuinely reduces per-query work instead of adding sorting
		// overhead.
		v := 1.0
		taken := 0
		for _, h := range t.cullOrder(c) {
			if !outs.Contains(h) {
				continue
			}
			f := pair(h)
			if opts.Arithmetization == ProductCombine {
				v *= f
			} else if f < v {
				v = f
			}
			taken++
			if taken >= k || v == 0 {
				break
			}
		}
		return v
	}

	v := 1.0
	if opts.Arithmetization == ProductCombine {
		outs.ForEach(func(h int) bool {
			v *= pair(h)
			return v > 0
		})
		return v
	}
	outs.ForEach(func(h int) bool { // MinCombine
		if f := pair(h); f < v {
			v = f
		}
		return v > 0
	})
	return v
}

// pairMiss computes pair h's fraction for column c and caches it in pv.
func (t *BST) pairMiss(pv []float64, s *evalScratch, c, h int) float64 {
	met.clauseCacheMiss.Inc()
	pv[h] = t.pairFraction(s, c, h)
	return pv[h]
}

// pairFraction is the satisfaction fraction of the exclusion list of column
// c and outside position h (rules.Clause.SatisfactionFraction), derived
// from popcounts instead of a stored list: with x = |H∩q| (kept per query
// in s) and the current column's q∩C in s,
//
//	H\C negated:  |(H\C)∩q| = x − |(q∩C)∩H|, over |H| − |H∩C| literals;
//	C\H positive: |(C\H)∩q| = |q∩C| − x, over |C| − |H| literals.
//
// The integer numerator and denominator are the ones the stored list gave,
// so the value is bit-identical. An empty list scores 0.
func (t *BST) pairFraction(s *evalScratch, c, h int) float64 {
	x := s.outQ[h]
	if x < 0 {
		x = int32(t.outRows[h].IntersectionCount(s.q))
		s.outQ[h] = x
	}
	n, neg := t.pairLen(c, h)
	if n == 0 {
		return 0
	}
	if neg {
		in := int(x) - s.qAndCol.IntersectionCount(t.outRows[h])
		return float64(n-in) / float64(n)
	}
	return float64(s.qcCount-int(x)) / float64(n)
}

// cullOrder returns column c's outside positions ordered by ascending
// exclusion-list length. Only valid after cullIdx (or buildCullState) ran.
func (t *BST) cullOrder(c int) []int { return t.cullOrders[c] }

// cullIdx returns the per-gene rank directories, building the whole culling
// state on first use. sync.Once keeps the build safe under concurrent
// queries, and tables evaluated without CullListsTo never pay for it — the
// lazy build is what keeps artifact cold start proportional to the metadata
// actually needed on the default path.
func (t *BST) cullIdx() []*bitset.Index {
	t.cullOnce.Do(t.buildCullState)
	return t.outsideIdx
}

// buildCullState materializes §8's culling accelerators: per-gene rank
// directories over the outside-expresser sets (O(1) covering checks) and
// per-column outside positions sorted by exclusion-list length. The sort
// compares lengths derived from the cached sizes, not live popcounts, so
// building the orders is O(columns · outside log outside) regardless of the
// gene universe width.
func (t *BST) buildCullState() {
	t.outsideIdx = make([]*bitset.Index, len(t.geneOutside))
	for g, outs := range t.geneOutside {
		t.outsideIdx[g] = outs.BuildIndex()
	}
	t.cullOrders = make([][]int, len(t.ClassSamples))
	for c := range t.ClassSamples {
		order := make([]int, len(t.OutsideSamples))
		for h := range order {
			order[h] = h
		}
		sort.SliceStable(order, func(a, b int) bool {
			na, _ := t.pairLen(c, order[a])
			nb, _ := t.pairLen(c, order[b])
			return na < nb
		})
		t.cullOrders[c] = order
	}
}

// CellSatisfaction returns the BSTCE value of one cell for query q: 1 for a
// black dot, NaN for a blank cell, otherwise the combined satisfaction of
// the cell's exclusion lists. Used for §5.3.2 explanations.
func (t *BST) CellSatisfaction(q *bitset.Set, g, c int, opts EvalOptions) float64 {
	if !t.colGenes[c].Contains(g) {
		return math.NaN()
	}
	s := t.getScratch()
	s.reset()
	s.setColumn(q, t.colGenes[c])
	v := t.cellValue(s, g, c, opts)
	t.putScratch(s)
	return v
}
