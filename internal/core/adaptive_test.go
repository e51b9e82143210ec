package core

import (
	"math"
	"math/rand"
	"testing"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
)

func TestTrainAdaptiveDefaults(t *testing.T) {
	d := dataset.PaperTable1()
	a, err := TrainAdaptive(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Procedures) != 2 {
		t.Fatalf("default procedures = %d, want min + product", len(a.Procedures))
	}
	if a.String() == "" {
		t.Error("String empty")
	}
}

func TestAdaptiveWorkedExample(t *testing.T) {
	d := dataset.PaperTable1()
	a, err := TrainAdaptive(d)
	if err != nil {
		t.Fatal(err)
	}
	q := bitset.FromIndices(6, 0, 3, 4)
	decisions, selected := a.Decide(q)
	if len(decisions) != 2 {
		t.Fatalf("got %d decisions", len(decisions))
	}
	// The min procedure sees [0.75, 0.375] — confidence 0.5.
	if decisions[0].Values[0] != 0.75 || decisions[0].Values[1] != 0.375 {
		t.Errorf("min values = %v", decisions[0].Values)
	}
	if decisions[0].Confidence != 0.5 {
		t.Errorf("min confidence = %v", decisions[0].Confidence)
	}
	if got := a.Classify(q); got != 0 {
		t.Errorf("classified %s, want Cancer", d.ClassNames[got])
	}
	if selected < 0 || selected >= len(decisions) {
		t.Errorf("selected index %d out of range", selected)
	}
}

func TestAdaptiveAgreesWithBaseWhenSingleProcedure(t *testing.T) {
	r := rand.New(rand.NewSource(103))
	d := randomBoolDataset(r, 12, 10, 2, 0)
	a, err := TrainAdaptive(d, EvalOptions{Arithmetization: MinCombine})
	if err != nil {
		t.Fatal(err)
	}
	base, err := Train(d, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		q := randomRow(r, d.NumGenes())
		if a.Classify(q) != base.Classify(q) {
			t.Fatal("single-procedure adaptive must match plain BSTC")
		}
	}
}

func TestAdaptiveBatchAndConfidenceBounds(t *testing.T) {
	r := rand.New(rand.NewSource(107))
	d := randomBoolDataset(r, 14, 10, 3, 0)
	a, err := TrainAdaptive(d)
	if err != nil {
		t.Fatal(err)
	}
	test := randomBoolDataset(r, 10, 10, 3, 0)
	preds := a.ClassifyBatch(test)
	if len(preds) != 10 {
		t.Fatalf("batch size %d", len(preds))
	}
	for i := 0; i < 10; i++ {
		decisions, _ := a.Decide(test.Rows[i])
		for _, dec := range decisions {
			if dec.Confidence < 0 || dec.Confidence > 1 {
				t.Fatalf("confidence %v outside [0,1]", dec.Confidence)
			}
		}
	}
}

func TestArgmaxWithConfidence(t *testing.T) {
	cases := []struct {
		vals     []float64
		wantIdx  int
		wantConf float64
	}{
		{[]float64{0.75, 0.375}, 0, 0.5},
		{[]float64{0.375, 0.75}, 1, 0.5},
		{[]float64{0.5, 0.5}, 0, 0},
		{[]float64{0, 0}, 0, 0},
		{[]float64{0.9}, 0, 1},
	}
	for _, tc := range cases {
		idx, conf := argmaxWithConfidence(tc.vals)
		if idx != tc.wantIdx || math.Abs(conf-tc.wantConf) > 1e-12 {
			t.Errorf("argmaxWithConfidence(%v) = %d, %v; want %d, %v",
				tc.vals, idx, conf, tc.wantIdx, tc.wantConf)
		}
	}
}
