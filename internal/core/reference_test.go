package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
	"bstc/internal/rules"
)

// referenceEvaluate is a naive, cell-by-cell transliteration of Algorithm 5
// that reads the training rows directly: for every cell it builds each
// exclusion list with bitset.Difference (Algorithm 1 lines 13-18),
// computes its satisfaction fraction independently, culls to the
// opts.CullListsTo shortest lists, combines with min (or product), and
// averages down columns and across non-blank columns. The optimized
// Evaluate (derived pair values, shared lazy computation, culling fast
// paths) must agree with it exactly.
func referenceEvaluate(d *dataset.Bool, t *BST, q *bitset.Set, opts EvalOptions) Evaluation {
	colVals := make([]float64, t.NumColumns())
	for c := range colVals {
		colVals[c] = math.NaN()
	}
	var colSum float64
	nonBlank := 0
	for c, ci := range t.ClassSamples {
		col := d.Rows[ci]
		var sum float64
		n := 0
		for g := 0; g < t.NumGenes(); g++ {
			if !q.Contains(g) || !col.Contains(g) {
				continue
			}
			n++
			var lists []rules.Clause
			for _, hi := range t.OutsideSamples {
				h := d.Rows[hi]
				if !h.Contains(g) {
					continue
				}
				l := rules.Clause{Genes: bitset.Difference(h, col), Neg: true}
				if l.Genes.IsEmpty() {
					l = rules.Clause{Genes: bitset.Difference(col, h)}
				}
				lists = append(lists, l)
			}
			if len(lists) == 0 { // black dot
				sum++
				continue
			}
			if k := opts.CullListsTo; k > 0 && len(lists) > k {
				sort.SliceStable(lists, func(a, b int) bool {
					return lists[a].Genes.Count() < lists[b].Genes.Count()
				})
				lists = lists[:k]
			}
			v := 1.0
			for _, l := range lists {
				f := l.SatisfactionFraction(q)
				if opts.Arithmetization == ProductCombine {
					v *= f
				} else if f < v {
					v = f
				}
			}
			sum += v
		}
		if n == 0 {
			continue
		}
		colVals[c] = sum / float64(n)
		colSum += colVals[c]
		nonBlank++
	}
	ev := Evaluation{ColumnValues: colVals}
	if nonBlank > 0 {
		ev.Value = colSum / float64(nonBlank)
	}
	return ev
}

func TestEvaluateMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	var positive, empty int
	for trial := 0; trial < 60; trial++ {
		// Odd trials derive rows from earlier ones, so their tables hold
		// H ⊂ C pairs (positive lists) and H = C pairs (empty lists).
		nested := float64(trial%2) / 2
		d := randomBoolDataset(r, 3+r.Intn(10), 3+r.Intn(12), 2+r.Intn(2), nested)
		for ci := 0; ci < d.NumClasses(); ci++ {
			bst, err := NewBST(d, ci)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range bst.ClassSamples {
				for _, h := range bst.OutsideSamples {
					if d.Rows[h].Equal(d.Rows[c]) {
						empty++
					} else if d.Rows[h].SubsetOf(d.Rows[c]) {
						positive++
					}
				}
			}
			for qn := 0; qn < 4; qn++ {
				q := randomRow(r, d.NumGenes())
				for _, opts := range []EvalOptions{
					{Arithmetization: MinCombine},
					{Arithmetization: ProductCombine},
					{Arithmetization: MinCombine, CullListsTo: 2},
					{Arithmetization: ProductCombine, CullListsTo: 1},
				} {
					got := bst.Evaluate(q, opts)
					want := referenceEvaluate(d, bst, q, opts)
					if math.Abs(got.Value-want.Value) > 1e-12 {
						t.Fatalf("trial %d class %d opts %+v: value %v, reference %v",
							trial, ci, opts, got.Value, want.Value)
					}
					for c := range want.ColumnValues {
						g, w := got.ColumnValues[c], want.ColumnValues[c]
						if math.IsNaN(g) != math.IsNaN(w) ||
							(!math.IsNaN(g) && math.Abs(g-w) > 1e-12) {
							t.Fatalf("trial %d class %d opts %+v col %d: %v vs reference %v",
								trial, ci, opts, c, g, w)
						}
					}
				}
			}
		}
	}
	if positive == 0 || empty == 0 {
		t.Fatalf("generator produced %d H ⊂ C pairs and %d H = C pairs; want both", positive, empty)
	}
}

// TestCellAccessorsConsistent cross-checks the derived Cell view against
// the pair-list storage: every list a cell reports must be the shared
// (c, h) pair list, and cells must report exactly the outside expressers
// of their gene.
func TestCellAccessorsConsistent(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < 30; trial++ {
		d := randomBoolDataset(r, 8, 10, 2, 0)
		bst, err := NewBST(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < bst.NumColumns(); c++ {
			for g := 0; g < bst.NumGenes(); g++ {
				kind, cls := bst.Cell(g, c)
				inSample := d.Rows[bst.ClassSamples[c]].Contains(g)
				if (kind == CellBlank) == inSample {
					t.Fatalf("cell (g%d, col%d) blankness disagrees with sample contents", g+1, c)
				}
				if kind != CellLists {
					continue
				}
				for _, cc := range cls {
					hRow := d.Rows[bst.OutsideSamples[cc.Outside]]
					if !hRow.Contains(g) {
						t.Fatalf("cell (g%d, col%d) lists non-expresser h=%d", g+1, c, cc.Outside)
					}
					pair := bst.PairClause(c, cc.Outside)
					if pair.Neg != cc.Clause.Neg || !pair.Genes.Equal(cc.Clause.Genes) {
						t.Fatalf("cell (g%d, col%d) clause differs from shared pair list", g+1, c)
					}
				}
			}
		}
	}
}

// TestPairClauseSemantics verifies Algorithm 1 lines 13-18 directly: the
// pair list is h\c negated when non-empty, else c\h positive.
func TestPairClauseSemantics(t *testing.T) {
	r := rand.New(rand.NewSource(79))
	for trial := 0; trial < 30; trial++ {
		d := randomBoolDataset(r, 7, 9, 2, 0)
		bst, err := NewBST(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		for c, ci := range bst.ClassSamples {
			for h, hi := range bst.OutsideSamples {
				clause := bst.PairClause(c, h)
				hMinusC := bitset.Difference(d.Rows[hi], d.Rows[ci])
				cMinusH := bitset.Difference(d.Rows[ci], d.Rows[hi])
				if !hMinusC.IsEmpty() {
					if !clause.Neg || !clause.Genes.Equal(hMinusC) {
						t.Fatalf("pair (%d,%d): want negated h\\c list", c, h)
					}
				} else if clause.Neg || !clause.Genes.Equal(cMinusH) {
					t.Fatalf("pair (%d,%d): want positive c\\h list", c, h)
				}
			}
		}
	}
}
