// Package core implements the BSTC paper's primary contribution: Boolean
// Structure Tables (Algorithm 1), gene-row BAR generation (Algorithm 2),
// (MC)²BAR mining (Algorithms 3 and 4), BST cell-rule quantized evaluation
// (Algorithm 5, BSTCE) and the BSTC classifier itself (Algorithm 6).
package core

import (
	"fmt"
	"strings"
	"sync"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
	"bstc/internal/rules"
)

// BST is the Boolean Structure Table T(i) of §3.1 for one class C_i: a
// |G| × |C_i| table whose (g, c) cell is blank when sample c does not
// express g, a black dot when no sample outside C_i expresses g, and
// otherwise a set of exclusion lists — one per outside sample h that also
// expresses g.
//
// Algorithm 1's pointer-sharing trick means the table holds only one list
// per (c, h) pair; cells reference the pair lists of the outside samples
// expressing their gene. A pair list is fixed by the two rows alone — H\C,
// or C\H when H ⊆ C — so the table does not store it: it keeps the outside
// rows (aliases of the other tables' column rows) and |H∩C| per pair, and
// derives each list's satisfaction fraction from popcounts (see pairFraction).
// Consumers that need the clause itself build it on demand (PairClause).
type BST struct {
	// Class is the class index C_i this table was built for.
	Class int
	// ClassSamples[c] is the dataset sample index of table column c.
	ClassSamples []int
	// OutsideSamples[h] is the dataset sample index of outside sample h.
	OutsideSamples []int

	numGenes int

	// colGenes[c] is the gene set of column sample c (shared with dataset).
	colGenes []*bitset.Set
	// exclusive[g] reports the black dot condition: g is expressed by some
	// class sample and by no outside sample.
	exclusive []bool
	// geneOutside[g] is the set of outside positions h expressing gene g
	// (universe = len(OutsideSamples)).
	geneOutside []*bitset.Set
	// outRows[h] is the gene set of outside sample h, aliasing the dataset
	// row (or, after a load, the owning table's column set).
	outRows []*bitset.Set
	// colSize[c] = |C| and outSize[h] = |H|.
	colSize, outSize []int32
	// coverMin is the least |q∩C| for which BSTCE scores a column with
	// the min-cover instead of per-cell walks (see coverMinQC).
	coverMin int64
	// pairInter[c*len(OutsideSamples)+h] = |H∩C|: with the two sizes it
	// fixes the pair list's sign and length.
	pairInter []int32
	// cullOnce guards the lazy culling state below: it is only needed when
	// a query evaluates with CullListsTo > 0, so it is built on the first
	// such query (concurrency-safe) instead of at construction or load —
	// default-path cold starts skip it entirely.
	cullOnce sync.Once
	// cullOrders holds, per column, the outside positions ordered by
	// ascending list length, for §8's list culling.
	cullOrders [][]int
	// outsideIdx[g] is geneOutside[g]'s rank/select directory. Its O(1)
	// Count replaces the per-cell popcount scan in the BSTCE culling check;
	// Rank/Select stay available for covering diagnostics. Built once per
	// table, never after a mutation.
	outsideIdx []*bitset.Index
	// pairExpr lazily caches PairClause(c, h).Expr() for the rule-mining
	// paths, which revisit the same pair clauses across many rules. Mining
	// methods are not safe for concurrent use because of this cache;
	// classification never touches it and stays concurrency-safe.
	pairExpr [][]rules.Expr

	// scratch pools evalScratch values sized for this table (see
	// scratch.go), keeping steady-state evaluation allocation-free while
	// staying safe for concurrent queries — parallel batch classification
	// effectively gives each worker its own scratch. The zero value is
	// ready to use, so loaded classifiers need no extra wiring.
	scratch sync.Pool
}

// NewBST runs Algorithm 1 (Create-BST) for class ci over d. It requires at
// least one sample of the class. Construction is O((|S|-|C_i|)·|G|·|C_i|)
// time and space, as in §3.1.1.
func NewBST(d *dataset.Bool, ci int) (*BST, error) {
	if ci < 0 || ci >= d.NumClasses() {
		return nil, fmt.Errorf("core: class index %d outside [0,%d)", ci, d.NumClasses())
	}
	t := &BST{Class: ci, numGenes: d.NumGenes()}
	for i, cl := range d.Classes {
		if cl == ci {
			t.ClassSamples = append(t.ClassSamples, i)
		} else {
			t.OutsideSamples = append(t.OutsideSamples, i)
		}
	}
	if len(t.ClassSamples) == 0 {
		return nil, fmt.Errorf("core: class %d has no samples", ci)
	}

	t.colGenes = make([]*bitset.Set, len(t.ClassSamples))
	for c, si := range t.ClassSamples {
		t.colGenes[c] = d.Rows[si]
	}

	// Genes expressed anywhere outside the class, and the per-gene outside
	// expresser index.
	t.geneOutside = make([]*bitset.Set, t.numGenes)
	for g := range t.geneOutside {
		t.geneOutside[g] = bitset.New(len(t.OutsideSamples))
	}
	for h, si := range t.OutsideSamples {
		d.Rows[si].ForEach(func(g int) bool {
			t.geneOutside[g].Add(h)
			return true
		})
	}
	t.exclusive = make([]bool, t.numGenes)
	expressedInClass := bitset.New(t.numGenes)
	for _, cg := range t.colGenes {
		expressedInClass.Or(cg)
	}
	for g := 0; g < t.numGenes; g++ {
		t.exclusive[g] = expressedInClass.Contains(g) && t.geneOutside[g].IsEmpty()
	}

	// Algorithm 1 lines 13-18 share one exclusion list per (c, h) pair;
	// linkOutside keeps only what fixes it.
	if err := t.linkOutside(d.Rows); err != nil {
		return nil, err
	}

	met.bstBuilds.Inc()
	if met.bstCells != nil {
		// Non-blank cells: each column sample contributes one cell per
		// expressed gene. The exclusion-list size accounting visits every
		// pair once, so it only runs when instrumented.
		cells := int64(0)
		for _, n := range t.colSize {
			cells += int64(n)
		}
		met.bstCells.Add(cells)
		met.pairClauses.Add(int64(len(t.ClassSamples)) * int64(len(t.OutsideSamples)))
		genes := int64(0)
		for c := range t.ClassSamples {
			for h := range t.OutsideSamples {
				n, _ := t.pairLen(c, h)
				genes += int64(n)
			}
		}
		met.exclGenes.Add(genes)
	}
	return t, nil
}

// NumGenes returns |G|.
func (t *BST) NumGenes() int { return t.numGenes }

// NumColumns returns |C_i|.
func (t *BST) NumColumns() int { return len(t.ClassSamples) }

// NumOutside returns |S| - |C_i|.
func (t *BST) NumOutside() int { return len(t.OutsideSamples) }

// ColumnGenes returns the gene set of table column c.
func (t *BST) ColumnGenes(c int) *bitset.Set { return t.colGenes[c] }

// CellKind describes the content of a BST cell.
type CellKind int

// Cell kinds, in the order a reader of Figure 1 encounters them.
const (
	CellBlank CellKind = iota // sample does not express the gene
	CellDot                   // black dot: gene expressed only inside the class
	CellLists                 // one exclusion list per outside expresser
)

// Cell returns the kind of cell (g, c) and, for CellLists cells, the pairs
// (outside position, clause) in outside order.
func (t *BST) Cell(g, c int) (CellKind, []CellClause) {
	if !t.colGenes[c].Contains(g) {
		return CellBlank, nil
	}
	if t.exclusive[g] {
		return CellDot, nil
	}
	var out []CellClause
	t.geneOutside[g].ForEach(func(h int) bool {
		out = append(out, CellClause{Outside: h, Clause: t.PairClause(c, h)})
		return true
	})
	return CellLists, out
}

// CellClause is one exclusion list of a cell, tagged with the outside sample
// position it excludes.
type CellClause struct {
	Outside int
	Clause  rules.Clause
}

// linkOutside points the table's outside rows at rows, indexed by dataset
// sample, and derives the state that stands in for stored pair lists: the
// row sizes and |H∩C| per pair. OutsideSamples must be exactly the
// complement of the table's own ClassSamples. It runs at construction and
// on every load path.
func (t *BST) linkOutside(rows []*bitset.Set) error {
	if len(t.OutsideSamples) != len(rows)-len(t.ClassSamples) {
		return fmt.Errorf("core: model table %d has %d outside samples, want %d",
			t.Class, len(t.OutsideSamples), len(rows)-len(t.ClassSamples))
	}
	seen := bitset.New(len(rows))
	for _, si := range t.ClassSamples {
		seen.Add(si)
	}
	t.outRows = make([]*bitset.Set, len(t.OutsideSamples))
	for h, si := range t.OutsideSamples {
		if si < 0 || si >= len(rows) || seen.Contains(si) {
			return fmt.Errorf("core: model table %d outside samples are not the complement of its class samples", t.Class)
		}
		seen.Add(si)
		t.outRows[h] = rows[si]
	}
	t.colSize = rowSizes(t.colGenes)
	t.outSize = rowSizes(t.outRows)
	var outTotal int64
	for _, n := range t.outSize {
		outTotal += int64(n)
	}
	t.coverMin = coverMinQC(t.numGenes, len(t.outRows), outTotal)
	nh := len(t.outRows)
	t.pairInter = make([]int32, len(t.colGenes)*nh)
	for c, cg := range t.colGenes {
		for h, hg := range t.outRows {
			t.pairInter[c*nh+h] = int32(cg.IntersectionCount(hg))
		}
	}
	return nil
}

func rowSizes(rows []*bitset.Set) []int32 {
	out := make([]int32, len(rows))
	for i, r := range rows {
		out[i] = int32(r.Count())
	}
	return out
}

// pairLen returns the length of the exclusion list of column c and outside
// position h, and whether it is the negated list H\C (otherwise H ⊆ C and
// it is the positive list C\H).
func (t *BST) pairLen(c, h int) (n int, neg bool) {
	hc := t.pairInter[c*len(t.outRows)+h]
	if d := t.outSize[h] - hc; d > 0 {
		return int(d), true
	}
	return int(t.colSize[c] - t.outSize[h]), false
}

// PairClause returns the shared exclusion list of column c and outside
// position h, regardless of any particular gene row: the paper's
// (h: -g_l1 … -g_lm) with genes h\c, or, when h ⊆ c, the positive list
// (h: g_l1 … g_lm) with genes c\h. If both are empty the samples are
// identical (excluded by Theorem 2's hypothesis) and the clause is empty,
// hence unsatisfiable. The clause is built on each call.
func (t *BST) PairClause(c, h int) rules.Clause {
	_, neg := t.pairLen(c, h)
	return rules.Clause{Genes: t.pairGenesInto(bitset.New(t.numGenes), c, h), Neg: neg}
}

// pairGenesInto writes the gene set of PairClause(c, h) into dst and
// returns it.
func (t *BST) pairGenesInto(dst *bitset.Set, c, h int) *bitset.Set {
	if _, neg := t.pairLen(c, h); neg {
		return t.outRows[h].AndNotInto(dst, t.colGenes[c])
	}
	return t.colGenes[c].AndNotInto(dst, t.outRows[h])
}

// pairClauseExpr returns the cached expression form of a pair clause.
func (t *BST) pairClauseExpr(c, h int) rules.Expr {
	if t.pairExpr == nil {
		t.pairExpr = make([][]rules.Expr, len(t.ClassSamples))
	}
	if t.pairExpr[c] == nil {
		t.pairExpr[c] = make([]rules.Expr, len(t.OutsideSamples))
	}
	if t.pairExpr[c][h] == nil {
		met.clauseExprMisses.Inc()
		t.pairExpr[c][h] = t.PairClause(c, h).Expr()
	} else {
		met.clauseExprHits.Inc()
	}
	return t.pairExpr[c][h]
}

// CellRule returns the atomic 100%-confident BAR of cell (g, c) (§3.2):
// "g expressed AND every exclusion-list clause" ⇒ C_i. It returns false for
// blank cells.
func (t *BST) CellRule(g, c int) rules.BAR {
	kind, cls := t.Cell(g, c)
	switch kind {
	case CellBlank:
		return rules.BAR{Antecedent: rules.Const(false), Class: t.Class}
	case CellDot:
		return rules.BAR{Antecedent: rules.Lit{Gene: g}, Class: t.Class}
	}
	ops := []rules.Expr{rules.Lit{Gene: g}}
	for _, cc := range cls {
		ops = append(ops, cc.Clause.Expr())
	}
	return rules.BAR{Antecedent: rules.NewAnd(ops...), Class: t.Class}
}

// RowSupport returns the columns whose (g, ·) cells are non-blank — i.e. the
// class samples expressing g — as a set over column positions. This is the
// support of the g-row BAR (§4.1).
func (t *BST) RowSupport(g int) *bitset.Set {
	s := bitset.New(len(t.ClassSamples))
	for c, cg := range t.colGenes {
		if cg.Contains(g) {
			s.Add(c)
		}
	}
	return s
}

// String renders the table in the style of Figure 1, using the provided
// sample and gene names (falling back to positional names when nil). Only
// gene rows with at least one non-blank cell are printed.
func (t *BST) String() string { return t.Render(nil, nil) }

// Render renders the table with explicit gene and sample names.
func (t *BST) Render(geneNames, sampleNames []string) string {
	name := func(names []string, i int, prefix string) string {
		if i < len(names) {
			return names[i]
		}
		return fmt.Sprintf("%s%d", prefix, i+1)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "BST class %d (%d genes x %d samples)\n", t.Class, t.numGenes, len(t.ClassSamples))
	for g := 0; g < t.numGenes; g++ {
		nonblank := false
		row := fmt.Sprintf("%-6s", name(geneNames, g, "g"))
		for c := range t.ClassSamples {
			kind, cls := t.Cell(g, c)
			cell := ""
			switch kind {
			case CellDot:
				cell = "*"
				nonblank = true
			case CellLists:
				nonblank = true
				var parts []string
				for _, cc := range cls {
					var lits []string
					cc.Clause.Genes.ForEach(func(lg int) bool {
						ln := name(geneNames, lg, "g")
						if cc.Clause.Neg {
							ln = "-" + ln
						}
						lits = append(lits, ln)
						return true
					})
					parts = append(parts, fmt.Sprintf("(%s: %s)",
						name(sampleNames, t.OutsideSamples[cc.Outside], "s"), strings.Join(lits, ",")))
				}
				cell = strings.Join(parts, " ")
			}
			row += fmt.Sprintf(" | %-30s", cell)
		}
		if nonblank {
			b.WriteString(row)
			b.WriteByte('\n')
		}
	}
	return b.String()
}
