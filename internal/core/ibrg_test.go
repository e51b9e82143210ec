package core

import (
	"math/rand"
	"testing"

	"bstc/internal/bitset"
	"bstc/internal/rules"
)

// TestIBRGLowerBoundsPaperExample checks the §4.2 example exactly: the
// boolean rule group with consequent Cancer and support {s2} has lower
// bounds g1 AND g6 and g3 AND g6 (and upper bound g1 AND g3 AND g6).
func TestIBRGLowerBoundsPaperExample(t *testing.T) {
	bst := cancerBST(t)
	support := bitset.FromIndices(3, 1) // column position of s2
	lbs := bst.MineIBRGLowerBounds(support, 10)
	if len(lbs) != 2 {
		t.Fatalf("got %d lower bounds, want 2: %v", len(lbs), lbs)
	}
	wantA := bitset.FromIndices(6, 0, 5) // g1, g6
	wantB := bitset.FromIndices(6, 2, 5) // g3, g6
	okA := lbs[0].Equal(wantA) || lbs[1].Equal(wantA)
	okB := lbs[0].Equal(wantB) || lbs[1].Equal(wantB)
	if !okA || !okB {
		t.Errorf("lower bounds = %v, %v; want {g1,g6} and {g3,g6}", lbs[0].Indices(), lbs[1].Indices())
	}
}

func TestIBRGLowerBoundsEdgeCases(t *testing.T) {
	bst := cancerBST(t)
	if got := bst.MineIBRGLowerBounds(bitset.New(3), 5); got != nil {
		t.Error("empty support should mine nothing")
	}
	if got := bst.MineIBRGLowerBounds(bitset.FromIndices(3, 1), 0); got != nil {
		t.Error("nl=0 should mine nothing")
	}
	// nl caps the result count.
	if got := bst.MineIBRGLowerBounds(bitset.FromIndices(3, 1), 1); len(got) != 1 {
		t.Errorf("nl=1 returned %d bounds", len(got))
	}
}

func TestIBRGLowerBoundsProperties(t *testing.T) {
	// For mined groups on random data: every lower bound's row-support
	// intersection equals the group support; no proper subset achieves it;
	// and each lower bound is within the upper bound's CAR genes.
	r := rand.New(rand.NewSource(109))
	for trial := 0; trial < 15; trial++ {
		d := randomBoolDataset(r, 8, 8, 2, 0)
		bst, err := NewBST(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range bst.MineMCMCBAR(10, MineOptions{}) {
			lbs := bst.MineIBRGLowerBounds(m.Support, 100)
			if len(lbs) == 0 {
				t.Fatalf("trial %d: group %v has no lower bounds", trial, m.Support.Indices())
			}
			for _, lb := range lbs {
				if !lb.SubsetOf(m.CARGenes) {
					t.Fatalf("trial %d: lower bound %v outside upper bound %v",
						trial, lb.Indices(), m.CARGenes.Indices())
				}
				if !rowIntersection(bst, lb).Equal(m.Support) {
					t.Fatalf("trial %d: lower bound %v support differs from group", trial, lb.Indices())
				}
				lb.ForEach(func(g int) bool {
					sub := lb.Clone()
					sub.Remove(g)
					if !sub.IsEmpty() && rowIntersection(bst, sub).Equal(m.Support) {
						t.Fatalf("trial %d: lower bound %v not minimal", trial, lb.Indices())
					}
					return true
				})
				// §4.2: the lower bound's CAR is in the group, so ANDing it
				// with the group's exclusion structure is 100% confident;
				// here we check the weaker, directly-stated property that
				// its support within the class equals the group support.
				car := rules.CAR{Genes: lb, Class: 0}
				b := rules.BAR{Antecedent: car.Expr(), Class: 0}
				supp := b.Support(d)
				wantSupp := bitset.New(d.NumSamples())
				m.Support.ForEach(func(c int) bool {
					wantSupp.Add(bst.ClassSamples[c])
					return true
				})
				if !supp.Equal(wantSupp) {
					t.Fatalf("trial %d: lower bound class support %v, want %v",
						trial, supp.Indices(), wantSupp.Indices())
				}
			}
		}
	}
}

func rowIntersection(t *BST, genes *bitset.Set) *bitset.Set {
	rows := bitset.New(t.NumColumns())
	rows.Fill()
	genes.ForEach(func(g int) bool {
		rows.And(t.RowSupport(g))
		return true
	})
	return rows
}
