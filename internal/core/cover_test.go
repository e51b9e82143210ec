package core

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
	"bstc/internal/discretize"
	"bstc/internal/synth"
)

// evaluateForced runs Algorithm 5 for q with every column scored by the
// min-cover (cover) or by the per-cell walk, whatever the cost model would
// pick.
func evaluateForced(t *BST, q *bitset.Set, opts EvalOptions, cover bool) Evaluation {
	saved := t.coverMin
	t.coverMin = math.MaxInt64
	if cover {
		t.coverMin = 0
	}
	defer func() { t.coverMin = saved }()
	return t.Evaluate(q, opts)
}

// requireSameBits fails unless the cover and scalar evaluations agree bit
// for bit, column means included.
func requireSameBits(t *testing.T, label string, cover, scalar Evaluation) {
	t.Helper()
	if math.Float64bits(cover.Value) != math.Float64bits(scalar.Value) {
		t.Fatalf("%s: cover value %v, scalar %v", label, cover.Value, scalar.Value)
	}
	for c, w := range scalar.ColumnValues {
		if g := cover.ColumnValues[c]; math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s col %d: cover %v, scalar %v", label, c, g, w)
		}
	}
}

// coverCases counts the column shapes the cover must get right, so the
// differential test can insist it met each of them.
type coverCases struct {
	emptyList, positive, tie, tail, blackDot int
}

// record classifies column c of t under query q.
func (k *coverCases) record(t *BST, q *bitset.Set, c int) {
	s := t.getScratch()
	s.reset()
	if s.setColumn(q, t.colGenes[c]) > 0 {
		seen := make(map[float64]bool)
		for h, row := range t.outRows {
			if !s.qAndCol.Intersects(row) {
				continue
			}
			switch n, neg := t.pairLen(c, h); {
			case n == 0:
				k.emptyList++ // H = C: pv = 0, and the first row taken covers all
			case !neg:
				k.positive++ // H ⊂ C
			}
			v := t.pairFraction(s, c, h)
			if v == 1 {
				k.tail++
			} else if seen[v] {
				k.tie++
			}
			seen[v] = true
		}
		s.qAndCol.ForEach(func(g int) bool {
			if t.exclusive[g] {
				k.blackDot++
			}
			return true
		})
	}
	t.putScratch(s)
}

// TestCoverMatchesScalar is the differential test of the min-cover against
// the per-cell scalar walk: on random tables, nested ones included, every
// column value must come out bit-identical whichever path computes it.
func TestCoverMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	var k coverCases
	opts := EvalOptions{Arithmetization: MinCombine}
	for trial := 0; trial < 80; trial++ {
		nested := float64(trial%3) / 3
		// Gene universes up to 200 cross word boundaries and leave tails.
		d := randomBoolDataset(r, 3+r.Intn(14), 3+r.Intn(200), 2+r.Intn(2), nested)
		for ci := 0; ci < d.NumClasses(); ci++ {
			bst, err := NewBST(d, ci)
			if err != nil {
				t.Fatal(err)
			}
			for qn := 0; qn < 4; qn++ {
				q := randomRow(r, d.NumGenes())
				if qn == 0 {
					q = d.Rows[bst.ClassSamples[0]] // a training row: q∩C = C
				}
				for c := range bst.ClassSamples {
					k.record(bst, q, c)
				}
				requireSameBits(t, "random table",
					evaluateForced(bst, q, opts, true),
					evaluateForced(bst, q, opts, false))
			}
		}
	}
	if k.emptyList == 0 || k.positive == 0 || k.tie == 0 || k.tail == 0 || k.blackDot == 0 {
		t.Fatalf("generator missed a case: %+v", k)
	}
}

// TestCoverAllBlackDots covers a column whose query genes are all black
// dots (no outside row to take) and one where the only outside rows
// score pv = 1: every cell scores 1 with nothing covered.
func TestCoverAllBlackDots(t *testing.T) {
	d := &dataset.Bool{
		GeneNames:  []string{"g1", "g2", "g3", "g4", "g5", "g6"},
		ClassNames: []string{"A", "B"},
		Classes:    []int{0, 0, 1},
		Rows: []*bitset.Set{
			bitset.FromIndices(6, 0, 1, 2),
			bitset.FromIndices(6, 2, 3),
			bitset.FromIndices(6, 3, 4, 5),
		},
	}
	bst, err := NewBST(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	opts := EvalOptions{Arithmetization: MinCombine}
	for _, q := range []*bitset.Set{
		bitset.FromIndices(6, 0, 1, 2), // column 0: black dots g1-g3
		bitset.FromIndices(6, 2, 3),    // column 1: g4's only list is {g5, g6}, unsatisfied by q: pv = 1
	} {
		cover := evaluateForced(bst, q, opts, true)
		requireSameBits(t, q.String(), cover, evaluateForced(bst, q, opts, false))
		if cover.Value != 1 {
			t.Fatalf("query %v: value %v, want 1", q, cover.Value)
		}
	}
}

// trainProfile generates a synthetic profile, discretizes it and trains
// BSTC on all of it.
func trainProfile(t *testing.T, p synth.Profile) (*Classifier, *dataset.Bool) {
	t.Helper()
	c, err := p.Generate()
	if err != nil {
		t.Fatal(err)
	}
	m, err := discretize.FitWithWorkers(context.Background(), c, discretize.EntropyMDL, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := m.Transform(c)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := Train(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cl, d
}

// TestCoverPaperScaleOC runs the differential test on the paper-scale OC
// profile's tables, the shape the cover exists for, and pins the cost
// model to pick the cover on every one of their columns.
func TestCoverPaperScaleOC(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale profile")
	}
	cl, d := trainProfile(t, synth.PaperProfiles(synth.Paper)[3])
	for i := 0; i < len(d.Rows); i += 50 {
		q := d.Rows[i]
		for _, bst := range cl.Tables {
			requireSameBits(t, "OC row",
				evaluateForced(bst, q, cl.Opts, true),
				evaluateForced(bst, q, cl.Opts, false))
			for col, cg := range bst.colGenes {
				if n := int64(q.IntersectionCount(cg)); n > 0 && n < bst.coverMin {
					t.Fatalf("OC row %d table %d column %d (|q∩C| = %d): cost model picked the scalar walk",
						i, bst.Class, col, n)
				}
			}
		}
	}
}

// TestCoverMinQCKeepsSmallTablesScalar pins the cost model on the
// small-scale ALL profile (20 genes per table, one word), where the cover
// is measured about 1.4x slower than the scalar walk: no column may take
// the cover.
func TestCoverMinQCKeepsSmallTablesScalar(t *testing.T) {
	cl, d := trainProfile(t, synth.PaperProfiles(synth.Small)[0])
	for i, q := range d.Rows {
		for _, bst := range cl.Tables {
			for col, cg := range bst.colGenes {
				if n := int64(q.IntersectionCount(cg)); n >= bst.coverMin {
					t.Fatalf("ALL row %d table %d column %d (|q∩C| = %d): cost model picked the cover",
						i, bst.Class, col, n)
				}
			}
		}
	}
}

// TestCoverMinQCWide pins the cost model on a shape whose products
// overflow a 32-bit int (|G|·|O|·(words+…) ≈ 1.1e10 against
// 2·|q∩C|·Σ|H| ≈ 3.6e11 at |q∩C| = 30000); the 386 test run is what makes
// this bite. Cover pays from |q∩C| = 955.
func TestCoverMinQCWide(t *testing.T) {
	const genes, outs = 60000, 200
	outTotal := int64(outs * 30000)
	rhs := int64(genes) * outs * (938 + 8 + 8) // words = 938, bits.Len(200) = 8
	want := rhs/(2*outTotal) + 1
	if got := coverMinQC(genes, outs, outTotal); got != want || want != 955 {
		t.Fatalf("coverMinQC = %d, want %d (955)", got, want)
	}
	if got := coverMinQC(genes, outs, 0); got != math.MaxInt64 {
		t.Fatalf("coverMinQC without outside expressers = %d, want MaxInt64", got)
	}
}
