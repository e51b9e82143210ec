package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
	"bstc/internal/rules"
)

// cancerBST builds the paper's Figure 1 BST: T(Cancer) over Table 1.
func cancerBST(t *testing.T) *BST {
	t.Helper()
	bst, err := NewBST(dataset.PaperTable1(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return bst
}

func healthyBST(t *testing.T) *BST {
	t.Helper()
	bst, err := NewBST(dataset.PaperTable1(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return bst
}

func TestNewBSTShape(t *testing.T) {
	bst := cancerBST(t)
	if got := bst.ClassSamples; !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Errorf("ClassSamples = %v, want [0 1 2]", got)
	}
	if got := bst.OutsideSamples; !reflect.DeepEqual(got, []int{3, 4}) {
		t.Errorf("OutsideSamples = %v, want [3 4]", got)
	}
	if bst.NumGenes() != 6 || bst.NumColumns() != 3 || bst.NumOutside() != 2 {
		t.Errorf("shape: genes=%d cols=%d outside=%d", bst.NumGenes(), bst.NumColumns(), bst.NumOutside())
	}
}

func TestNewBSTErrors(t *testing.T) {
	d := dataset.PaperTable1()
	if _, err := NewBST(d, -1); err == nil {
		t.Error("negative class should error")
	}
	if _, err := NewBST(d, 2); err == nil {
		t.Error("out-of-range class should error")
	}
}

// wantClause checks an exclusion list against (outside sample index, neg,
// gene indices).
type wantClause struct {
	outside int
	neg     bool
	genes   []int
}

func checkCell(t *testing.T, bst *BST, g, c int, wantKind CellKind, want []wantClause) {
	t.Helper()
	kind, cls := bst.Cell(g, c)
	if kind != wantKind {
		t.Errorf("cell (g%d, col%d) kind = %v, want %v", g+1, c, kind, wantKind)
		return
	}
	if len(cls) != len(want) {
		t.Errorf("cell (g%d, col%d) has %d lists, want %d", g+1, c, len(cls), len(want))
		return
	}
	for i, w := range want {
		got := cls[i]
		if bst.OutsideSamples[got.Outside] != w.outside {
			t.Errorf("cell (g%d, col%d) list %d excludes sample %d, want %d",
				g+1, c, i, bst.OutsideSamples[got.Outside], w.outside)
		}
		if got.Clause.Neg != w.neg {
			t.Errorf("cell (g%d, col%d) list %d neg = %v, want %v", g+1, c, i, got.Clause.Neg, w.neg)
		}
		if idx := got.Clause.Genes.Indices(); !reflect.DeepEqual(idx, w.genes) {
			t.Errorf("cell (g%d, col%d) list %d genes = %v, want %v", g+1, c, i, idx, w.genes)
		}
	}
}

// TestFigure1BST verifies every non-blank cell of the paper's Figure 1.
func TestFigure1BST(t *testing.T) {
	bst := cancerBST(t)
	// Gene/sample indices are 0-based: g1=0 … g6=5; s1=0 … s5=4.

	// g1 row: black dots at s1 and s2 (g1 expressed by no Healthy sample).
	checkCell(t, bst, 0, 0, CellDot, nil)
	checkCell(t, bst, 0, 1, CellDot, nil)
	checkCell(t, bst, 0, 2, CellBlank, nil)

	// g2 row: (g2,s1) = (s4: g1) positive list; (g2,s3) = (s4: -g3,-g5).
	checkCell(t, bst, 1, 0, CellLists, []wantClause{{outside: 3, neg: false, genes: []int{0}}})
	checkCell(t, bst, 1, 1, CellBlank, nil)
	checkCell(t, bst, 1, 2, CellLists, []wantClause{{outside: 3, neg: true, genes: []int{2, 4}}})

	// g3 row: (g3,s1) = (s4: g1), (s5: -g4,-g6); (g3,s2) = (s4: -g2,-g5), (s5: -g4,-g5).
	checkCell(t, bst, 2, 0, CellLists, []wantClause{
		{outside: 3, neg: false, genes: []int{0}},
		{outside: 4, neg: true, genes: []int{3, 5}},
	})
	checkCell(t, bst, 2, 1, CellLists, []wantClause{
		{outside: 3, neg: true, genes: []int{1, 4}},
		{outside: 4, neg: true, genes: []int{3, 4}},
	})
	checkCell(t, bst, 2, 2, CellBlank, nil)

	// g4 row: (g4,s3) = (s5: -g3,-g5).
	checkCell(t, bst, 3, 0, CellBlank, nil)
	checkCell(t, bst, 3, 1, CellBlank, nil)
	checkCell(t, bst, 3, 2, CellLists, []wantClause{{outside: 4, neg: true, genes: []int{2, 4}}})

	// g5 row: (g5,s1) = (s4: g1), (s5: -g4,-g6).
	checkCell(t, bst, 4, 0, CellLists, []wantClause{
		{outside: 3, neg: false, genes: []int{0}},
		{outside: 4, neg: true, genes: []int{3, 5}},
	})
	checkCell(t, bst, 4, 1, CellBlank, nil)
	checkCell(t, bst, 4, 2, CellBlank, nil)

	// g6 row: (g6,s2) = (s5: -g4,-g5); (g6,s3) = (s5: -g3,-g5).
	checkCell(t, bst, 5, 0, CellBlank, nil)
	checkCell(t, bst, 5, 1, CellLists, []wantClause{{outside: 4, neg: true, genes: []int{3, 4}}})
	checkCell(t, bst, 5, 2, CellLists, []wantClause{{outside: 4, neg: true, genes: []int{2, 4}}})
}

// TestFigure1CellRuleG3S1 checks §3.2's example: the (g3, s1)-cell rule is
// "g3 AND g1 AND (-g4 OR -g6) ⇒ Cancer", 100% confident and supported by s1.
func TestFigure1CellRuleG3S1(t *testing.T) {
	bst := cancerBST(t)
	d := dataset.PaperTable1()
	rule := bst.CellRule(2, 0)
	want := rules.NewAnd(
		rules.Lit{Gene: 2},
		rules.Lit{Gene: 0},
		rules.NewOr(rules.Lit{Gene: 3, Neg: true}, rules.Lit{Gene: 5, Neg: true}),
	)
	if !rules.Equivalent(rule.Antecedent, want, 6) {
		t.Errorf("cell rule = %s, want equivalent of %s",
			rules.Render(rule.Antecedent, d.GeneNames), rules.Render(want, d.GeneNames))
	}
	if got := rule.Confidence(d); got != 1 {
		t.Errorf("confidence = %v, want 1", got)
	}
	if !rule.Support(d).Contains(0) {
		t.Error("cell rule must be supported by s1")
	}
}

func TestCellRuleBlank(t *testing.T) {
	bst := cancerBST(t)
	rule := bst.CellRule(0, 2) // g1 not expressed by s3
	if rule.Antecedent != rules.Const(false) {
		t.Errorf("blank cell rule = %v, want false", rule.Antecedent)
	}
}

// TestFigure2RowBARs verifies Algorithm 2 against all six gene-row BARs of
// Figure 2, by logical equivalence over all 2^6 gene assignments.
func TestFigure2RowBARs(t *testing.T) {
	bst := cancerBST(t)
	g := func(i int) rules.Expr { return rules.Lit{Gene: i - 1} }
	ng := func(i int) rules.Expr { return rules.Lit{Gene: i - 1, Neg: true} }
	want := map[int]rules.Expr{
		// Gene g1: (g1 expressed).
		0: g(1),
		// Gene g2: g2 AND [ g1 OR (-g5 OR -g3) ].
		1: rules.NewAnd(g(2), rules.NewOr(g(1), rules.NewOr(ng(5), ng(3)))),
		// Gene g3: g3 AND [ {g1 AND (-g4 OR -g6)} OR {(-g2 OR -g5) AND (-g4 OR -g5)} ].
		2: rules.NewAnd(g(3), rules.NewOr(
			rules.NewAnd(g(1), rules.NewOr(ng(4), ng(6))),
			rules.NewAnd(rules.NewOr(ng(2), ng(5)), rules.NewOr(ng(4), ng(5))),
		)),
		// Gene g4: g4 AND [-g5 OR -g3].
		3: rules.NewAnd(g(4), rules.NewOr(ng(5), ng(3))),
		// Gene g5: g5 AND [ g1 AND (-g4 OR -g6) ].
		4: rules.NewAnd(g(5), rules.NewAnd(g(1), rules.NewOr(ng(4), ng(6)))),
		// Gene g6: g6 AND [ (-g4 OR -g5) OR (-g3 OR -g5) ].
		5: rules.NewAnd(g(6), rules.NewOr(rules.NewOr(ng(4), ng(5)), rules.NewOr(ng(3), ng(5)))),
	}
	d := dataset.PaperTable1()
	for gi, w := range want {
		got := bst.RowBAR(gi)
		if !rules.Equivalent(got.Antecedent, w, 6) {
			t.Errorf("g%d row BAR = %s, want equivalent of %s",
				gi+1, rules.Render(got.Antecedent, d.GeneNames), rules.Render(w, d.GeneNames))
		}
		if conf := got.Confidence(d); conf != 1 {
			t.Errorf("g%d row BAR confidence = %v, want 1", gi+1, conf)
		}
	}
}

func TestRowBAREmptyRow(t *testing.T) {
	// A gene expressed by no Cancer sample yields a constant-false rule.
	d := dataset.PaperTable1()
	bst := healthyBST(t)
	// g1 (index 0) is expressed by no Healthy sample.
	rule := bst.RowBAR(0)
	if rule.Antecedent != rules.Const(false) {
		t.Errorf("empty row BAR = %v, want false", rules.Render(rule.Antecedent, d.GeneNames))
	}
}

func TestRowBAREqualsCellRuleDisjunction(t *testing.T) {
	// §3.2.1: the row BAR is logically equivalent to the disjunction of the
	// row's cell rules.
	for _, class := range []int{0, 1} {
		bst, err := NewBST(dataset.PaperTable1(), class)
		if err != nil {
			t.Fatal(err)
		}
		for g := 0; g < 6; g++ {
			var cells []rules.Expr
			for c := 0; c < bst.NumColumns(); c++ {
				if kind, _ := bst.Cell(g, c); kind != CellBlank {
					cells = append(cells, bst.CellRule(g, c).Antecedent)
				}
			}
			row := bst.RowBAR(g).Antecedent
			if !rules.Equivalent(row, rules.NewOr(cells...), 6) {
				t.Errorf("class %d g%d: row BAR not equivalent to cell-rule disjunction", class, g+1)
			}
		}
	}
}

func TestRowSupport(t *testing.T) {
	bst := cancerBST(t)
	wants := map[int][]int{
		0: {0, 1}, // g1 in s1, s2
		1: {0, 2}, // g2 in s1, s3
		2: {0, 1}, // g3 in s1, s2
		3: {2},    // g4 in s3
		4: {0},    // g5 in s1
		5: {1, 2}, // g6 in s2, s3
	}
	for g, want := range wants {
		if got := bst.RowSupport(g).Indices(); !reflect.DeepEqual(got, want) {
			t.Errorf("RowSupport(g%d) = %v, want %v", g+1, got, want)
		}
	}
}

// TestPaperWorkedExample reproduces §5.4 end to end: Q = {g1, g4, g5}
// evaluates to 3/4 against T(Cancer) with the Figure 3 column values, 3/8
// against T(Healthy), and is classified Cancer.
func TestPaperWorkedExample(t *testing.T) {
	d := dataset.PaperTable1()
	q := bitset.FromIndices(6, 0, 3, 4) // g1, g4, g5 expressed

	cancer := cancerBST(t).Evaluate(q, EvalOptions{})
	if cancer.Value != 0.75 {
		t.Errorf("BSTCE(T(Cancer), Q) = %v, want 0.75", cancer.Value)
	}
	wantCols := []float64{0.75, 1, 0.5}
	for c, want := range wantCols {
		if got := cancer.ColumnValues[c]; got != want {
			t.Errorf("Cancer column %s value = %v, want %v", d.SampleNames[c], got, want)
		}
	}

	healthy := healthyBST(t).Evaluate(q, EvalOptions{})
	if healthy.Value != 0.375 {
		t.Errorf("BSTCE(T(Healthy), Q) = %v, want 3/8", healthy.Value)
	}
	if healthy.ColumnValues[0] != 0 || healthy.ColumnValues[1] != 0.75 {
		t.Errorf("Healthy column values = %v, want [0 0.75]", healthy.ColumnValues)
	}

	cl, err := Train(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.Classify(q); got != 0 {
		t.Errorf("Classify(Q) = %s, want Cancer", d.ClassNames[got])
	}
	if got := cl.Values(q); got[0] != 0.75 || got[1] != 0.375 {
		t.Errorf("Values(Q) = %v, want [0.75 0.375]", got)
	}
}

func TestEvaluateBlankColumns(t *testing.T) {
	// A query sharing no genes with any class sample yields value 0 and all
	// columns NaN.
	bst := cancerBST(t)
	q := bitset.New(6) // expresses nothing
	ev := bst.Evaluate(q, EvalOptions{})
	if ev.Value != 0 {
		t.Errorf("empty query value = %v, want 0", ev.Value)
	}
	for c, v := range ev.ColumnValues {
		if !math.IsNaN(v) {
			t.Errorf("column %d = %v, want NaN", c, v)
		}
	}
}

func TestEvaluateUniverseMismatchPanics(t *testing.T) {
	bst := cancerBST(t)
	defer func() {
		if recover() == nil {
			t.Error("mismatched query universe should panic")
		}
	}()
	bst.Evaluate(bitset.New(5), EvalOptions{})
}

func TestEvaluateValueInUnitInterval(t *testing.T) {
	// Property: BSTCE values and column values are always in [0, 1].
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		d := randomBoolDataset(r, 8, 10, 2, 0)
		for ci := 0; ci < d.NumClasses(); ci++ {
			bst, err := NewBST(d, ci)
			if err != nil {
				t.Fatal(err)
			}
			for q := 0; q < 5; q++ {
				query := randomRow(r, d.NumGenes())
				for _, arith := range []Arithmetization{MinCombine, ProductCombine} {
					ev := bst.Evaluate(query, EvalOptions{Arithmetization: arith})
					if ev.Value < 0 || ev.Value > 1 {
						t.Fatalf("value %v outside [0,1] (arith=%v)", ev.Value, arith)
					}
					for _, cv := range ev.ColumnValues {
						if !math.IsNaN(cv) && (cv < 0 || cv > 1) {
							t.Fatalf("column value %v outside [0,1]", cv)
						}
					}
				}
			}
		}
	}
}

func TestProductNeverExceedsMin(t *testing.T) {
	// The product of values in [0,1] is ≤ their min, so ProductCombine cell
	// values can never exceed MinCombine's.
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		d := randomBoolDataset(r, 8, 10, 2, 0)
		bst, err := NewBST(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		q := randomRow(r, d.NumGenes())
		for c := 0; c < bst.NumColumns(); c++ {
			for g := 0; g < d.NumGenes(); g++ {
				minV := bst.CellSatisfaction(q, g, c, EvalOptions{Arithmetization: MinCombine})
				prodV := bst.CellSatisfaction(q, g, c, EvalOptions{Arithmetization: ProductCombine})
				if math.IsNaN(minV) != math.IsNaN(prodV) {
					t.Fatalf("blank-cell disagreement at (g%d, col%d)", g+1, c)
				}
				if !math.IsNaN(minV) && prodV > minV+1e-12 {
					t.Fatalf("product %v > min %v at (g%d, col%d)", prodV, minV, g+1, c)
				}
			}
		}
	}
}

func TestCullListsToMatchesUnculledWhenLarge(t *testing.T) {
	// Culling to at least the number of outside samples changes nothing.
	d := dataset.PaperTable1()
	bst := cancerBST(t)
	q := bitset.FromIndices(6, 0, 3, 4)
	full := bst.Evaluate(q, EvalOptions{})
	culled := bst.Evaluate(q, EvalOptions{CullListsTo: d.NumSamples()})
	if full.Value != culled.Value {
		t.Errorf("culling beyond list count changed value: %v vs %v", full.Value, culled.Value)
	}
	// Culling to 1 keeps values in range and raises (or keeps) cell minima,
	// since dropped lists can only have lowered the min.
	one := bst.Evaluate(q, EvalOptions{CullListsTo: 1})
	if one.Value < 0 || one.Value > 1 {
		t.Errorf("culled value %v outside [0,1]", one.Value)
	}
}

func TestCellRulesAre100Confident(t *testing.T) {
	// Property (§3.2): every non-blank cell rule has 100% confidence and is
	// supported by its own sample.
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		d := randomBoolDataset(r, 7, 9, 2, 0)
		for ci := 0; ci < d.NumClasses(); ci++ {
			bst, err := NewBST(d, ci)
			if err != nil {
				t.Fatal(err)
			}
			for c := 0; c < bst.NumColumns(); c++ {
				si := bst.ClassSamples[c]
				d.Rows[si].ForEach(func(g int) bool {
					rule := bst.CellRule(g, c)
					if conf := rule.Confidence(d); conf != 1 {
						t.Fatalf("trial %d class %d cell (g%d,s%d): confidence %v != 1",
							trial, ci, g+1, si+1, conf)
					}
					if !rule.Support(d).Contains(si) {
						t.Fatalf("trial %d class %d cell (g%d,s%d): not supported by own sample",
							trial, ci, g+1, si+1)
					}
					return true
				})
			}
		}
	}
}

func TestRowBARs100ConfidentRandom(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	for trial := 0; trial < 40; trial++ {
		d := randomBoolDataset(r, 7, 9, 3, 0)
		for ci := 0; ci < d.NumClasses(); ci++ {
			bst, err := NewBST(d, ci)
			if err != nil {
				t.Fatal(err)
			}
			for g := 0; g < d.NumGenes(); g++ {
				rule := bst.RowBAR(g)
				if rule.Antecedent == rules.Const(false) {
					continue
				}
				if conf := rule.Confidence(d); conf != 1 {
					t.Fatalf("trial %d class %d g%d: row BAR confidence %v != 1", trial, ci, g+1, conf)
				}
				// Support equals the class samples expressing g.
				want := bitset.New(d.NumSamples())
				for i, row := range d.Rows {
					if d.Classes[i] == ci && row.Contains(g) {
						want.Add(i)
					}
				}
				if got := rule.Support(d); !got.Equal(want) {
					t.Fatalf("trial %d class %d g%d: support %v, want %v", trial, ci, g+1, got, want)
				}
			}
		}
	}
}

func TestRenderContainsPaperCells(t *testing.T) {
	d := dataset.PaperTable1()
	bst := cancerBST(t)
	s := bst.Render(d.GeneNames, d.SampleNames)
	for _, want := range []string{"(s4: g1)", "(s5: -g4,-g6)", "(s4: -g2,-g5)", "*"} {
		if !contains(s, want) {
			t.Errorf("rendered BST missing %q:\n%s", want, s)
		}
	}
	if bst.String() == "" {
		t.Error("String() should render")
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// randomBoolDataset generates a random discretized dataset with no
// duplicate samples across classes (Theorem 2's hypothesis) and at least
// one sample per class.
// randomBoolDataset draws a dataset with no empty class. With nested > 0,
// that share of the rows after the first is derived from an earlier row —
// an exact copy, a subset or a superset — so its tables hold pairs with
// H ⊆ C, including duplicate samples across classes (which Theorem 2's
// hypothesis excludes, and which are then kept). With nested == 0 the rows
// are independent and duplicates across classes are redrawn.
func randomBoolDataset(r *rand.Rand, samples, genes, classes int, nested float64) *dataset.Bool {
	for {
		d := &dataset.Bool{
			GeneNames:  make([]string, genes),
			ClassNames: make([]string, classes),
		}
		for g := range d.GeneNames {
			d.GeneNames[g] = "g" + itoa(g+1)
		}
		for c := range d.ClassNames {
			d.ClassNames[c] = "C" + itoa(c+1)
		}
		counts := make([]int, classes)
		for i := 0; i < samples; i++ {
			cl := i % classes // guarantee non-empty classes
			if i >= classes {
				cl = r.Intn(classes)
			}
			counts[cl]++
			d.Classes = append(d.Classes, cl)
			row := randomRow(r, genes)
			if nested > 0 && i > 0 && r.Float64() < nested {
				row = d.Rows[r.Intn(i)].Clone()
				switch r.Intn(3) {
				case 1: // subset
					row.And(randomRow(r, genes))
				case 2: // superset
					row.Or(randomRow(r, genes))
				}
			}
			d.Rows = append(d.Rows, row)
		}
		if nested > 0 || len(d.DuplicateSamplePairs()) == 0 {
			return d
		}
	}
}

func randomRow(r *rand.Rand, genes int) *bitset.Set {
	row := bitset.New(genes)
	for g := 0; g < genes; g++ {
		if r.Intn(2) == 0 {
			row.Add(g)
		}
	}
	return row
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var b []byte
	for i > 0 {
		b = append([]byte{byte('0' + i%10)}, b...)
		i /= 10
	}
	return string(b)
}
