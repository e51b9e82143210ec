package core

import (
	"math/rand"
	"reflect"
	"testing"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
	"bstc/internal/rules"
)

func TestMineMCMCBARTopSupports(t *testing.T) {
	// Over Table 1's Cancer BST, the distinct gene-row supports are
	// {s1,s2}, {s1,s3}, {s2,s3}, {s1}, {s3}; the intersection closure adds
	// {s2}. Top-3 by support are exactly the three 2-sets.
	bst := cancerBST(t)
	got := bst.MineMCMCBAR(3, MineOptions{})
	if len(got) != 3 {
		t.Fatalf("got %d rules, want 3", len(got))
	}
	var keys [][]int
	for _, r := range got {
		keys = append(keys, r.Support.Indices())
		if r.Support.Count() != 2 {
			t.Errorf("rule support %v should have size 2", r.Support.Indices())
		}
	}
	want := [][]int{{0, 1}, {0, 2}, {1, 2}}
	if !reflect.DeepEqual(keys, want) {
		t.Errorf("top-3 supports = %v, want %v", keys, want)
	}
}

func TestMineMCMCBARAllSupports(t *testing.T) {
	// Asking for more rules than the lattice holds returns the full
	// closure: 6 closed sets for Table 1's Cancer class.
	bst := cancerBST(t)
	got := bst.MineMCMCBAR(100, MineOptions{})
	if len(got) != 6 {
		t.Fatalf("got %d rules, want 6 (full closure)", len(got))
	}
	// Sizes are non-increasing.
	for i := 1; i < len(got); i++ {
		if got[i].Support.Count() > got[i-1].Support.Count() {
			t.Errorf("supports not ordered by size: %v after %v",
				got[i].Support.Indices(), got[i-1].Support.Indices())
		}
	}
}

func TestMineMCMCBARKZero(t *testing.T) {
	if got := cancerBST(t).MineMCMCBAR(0, MineOptions{}); got != nil {
		t.Errorf("k=0 should mine nothing, got %d rules", len(got))
	}
}

func TestMCMCBARCARPortionS1S2(t *testing.T) {
	// §4.1: the {s1,s2} support's maximal CAR portion is {g1, g3}, with no
	// actively excluded Healthy samples, so the (MC)²BAR collapses to the
	// pure CAR g1 AND g3 ⇒ Cancer.
	bst := cancerBST(t)
	d := dataset.PaperTable1()
	for _, r := range bst.MineMCMCBAR(10, MineOptions{}) {
		if !reflect.DeepEqual(r.Support.Indices(), []int{0, 1}) {
			continue
		}
		if got := r.CARGenes.Indices(); !reflect.DeepEqual(got, []int{0, 2}) {
			t.Errorf("CAR genes = %v, want [0 2] (g1, g3)", got)
		}
		if !r.Excluded.IsEmpty() {
			t.Errorf("excluded = %v, want empty", r.Excluded.Indices())
		}
		want := rules.NewAnd(rules.Lit{Gene: 0}, rules.Lit{Gene: 2})
		if !rules.Equivalent(r.Rule.Antecedent, want, 6) {
			t.Errorf("rule = %s, want g1 AND g3", rules.Render(r.Rule.Antecedent, d.GeneNames))
		}
		return
	}
	t.Fatal("no rule with support {s1,s2} mined")
}

func TestMCMCBARUpperBoundS2(t *testing.T) {
	// §4.2: the IBRG with support {s2} has upper bound g1 AND g3 AND g6.
	bst := cancerBST(t)
	for _, r := range bst.MineMCMCBAR(10, MineOptions{}) {
		if !reflect.DeepEqual(r.Support.Indices(), []int{1}) {
			continue
		}
		if got := r.CARGenes.Indices(); !reflect.DeepEqual(got, []int{0, 2, 5}) {
			t.Errorf("upper bound CAR genes = %v, want [0 2 5] (g1,g3,g6)", got)
		}
		return
	}
	t.Fatal("no rule with support {s2} mined")
}

func TestMineMCMCBARPerSampleCoversAll(t *testing.T) {
	bst := cancerBST(t)
	got := bst.MineMCMCBARPerSample(2, MineOptions{})
	covered := bitset.New(bst.NumColumns())
	for _, r := range got {
		covered.Or(r.Support)
	}
	if covered.Count() != bst.NumColumns() {
		t.Errorf("per-sample mining covered %v, want all %d columns",
			covered.Indices(), bst.NumColumns())
	}
	// No duplicate supports.
	seen := map[string]bool{}
	for _, r := range got {
		k := r.Support.Key()
		if seen[k] {
			t.Errorf("duplicate support %v", r.Support.Indices())
		}
		seen[k] = true
	}
	// Sorted by decreasing support size.
	for i := 1; i < len(got); i++ {
		if got[i].Support.Count() > got[i-1].Support.Count() {
			t.Error("per-sample results not sorted by support size")
		}
	}
}

func TestMCMCBARProperties(t *testing.T) {
	// Properties on random datasets:
	//  1. mined rules are 100% confident;
	//  2. the rule's dataset support equals SupportSamples;
	//  3. maximal complexity: no gene outside CARGenes is expressed by all
	//     supporting samples;
	//  4. Theorem 2: the stripped CAR has confidence
	//     |Support| / (|Support| + |Excluded|).
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 25; trial++ {
		d := randomBoolDataset(r, 8, 8, 2, 0)
		for ci := 0; ci < 2; ci++ {
			bst, err := NewBST(d, ci)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range bst.MineMCMCBAR(20, MineOptions{}) {
				if conf := m.Rule.Confidence(d); conf != 1 {
					t.Fatalf("trial %d: mined rule confidence %v != 1 (rule %s)",
						trial, conf, rules.Render(m.Rule.Antecedent, d.GeneNames))
				}
				supp := m.Rule.Support(d)
				if got := supp.Indices(); !reflect.DeepEqual(got, m.SupportSamples) {
					t.Fatalf("trial %d: dataset support %v != declared %v", trial, got, m.SupportSamples)
				}
				// Maximal complexity.
				for g := 0; g < d.NumGenes(); g++ {
					if m.CARGenes.Contains(g) {
						continue
					}
					all := true
					for _, si := range m.SupportSamples {
						if !d.Rows[si].Contains(g) {
							all = false
							break
						}
					}
					if all {
						t.Fatalf("trial %d: gene g%d could extend CAR without shrinking support", trial, g+1)
					}
				}
				// Theorem 2 confidence relation.
				car := m.StripExclusions()
				suppN, conf := rules.CARSupportConfidence(d, car)
				if suppN != m.Support.Count() {
					t.Fatalf("trial %d: stripped CAR support %d != %d", trial, suppN, m.Support.Count())
				}
				wantConf := float64(m.Support.Count()) / float64(m.Support.Count()+m.Excluded.Count())
				if diff := conf - wantConf; diff > 1e-12 || diff < -1e-12 {
					t.Fatalf("trial %d: stripped CAR confidence %v, want %v", trial, conf, wantConf)
				}
			}
		}
	}
}

func TestMineTieBreakFewerExcluded(t *testing.T) {
	// With the secondary ordering enabled, same-size supports are emitted
	// with smaller excluded sets first.
	r := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		d := randomBoolDataset(r, 9, 8, 2, 0)
		bst, err := NewBST(d, 0)
		if err != nil {
			t.Fatal(err)
		}
		got := bst.MineMCMCBAR(50, MineOptions{TieBreakFewerExcluded: true})
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if a.Support.Count() == b.Support.Count() && a.Excluded.Count() > b.Excluded.Count() {
				// Ties may straddle mining rounds; only adjacent rules from
				// the same round are strictly ordered. Verify the weaker
				// global invariant: within one round (same support size,
				// contiguous block), ordering is by excluded count.
				t.Errorf("trial %d: tie-break violated: size %d excl %d before excl %d",
					trial, a.Support.Count(), a.Excluded.Count(), b.Excluded.Count())
			}
		}
	}
}

func TestPerSampleSupersetOfPlain(t *testing.T) {
	// Every support mined by plain top-k also appears in per-sample mining
	// with the same k (per-sample only adds coverage).
	bst := cancerBST(t)
	plain := bst.MineMCMCBAR(3, MineOptions{})
	per := bst.MineMCMCBARPerSample(3, MineOptions{})
	perKeys := map[string]bool{}
	for _, r := range per {
		perKeys[r.Support.Key()] = true
	}
	for _, r := range plain {
		if !perKeys[r.Support.Key()] {
			t.Errorf("support %v mined by top-k missing from per-sample results", r.Support.Indices())
		}
	}
}
