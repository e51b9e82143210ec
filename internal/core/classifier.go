package core

import (
	"fmt"
	"sort"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
	"bstc/internal/rules"
)

// Classifier is the Boolean Structure Table Classifier (BSTC, Algorithm 6):
// one BST per class plus the BSTCE evaluation options. It is parameter-free
// (the options default to the paper's choices) and handles any number of
// classes (§5.3).
type Classifier struct {
	Tables     []*BST
	ClassNames []string
	GeneNames  []string
	Opts       EvalOptions
}

// Train builds a BSTC classifier from discretized training data. Training is
// O(|S|²·|G|) time and space (§5.3.1). A nil opts uses the paper's defaults
// (min arithmetization, no exclusion-list culling).
func Train(d *dataset.Bool, opts *EvalOptions) (*Classifier, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	cl := &Classifier{
		ClassNames: d.ClassNames,
		GeneNames:  d.GeneNames,
	}
	if opts != nil {
		cl.Opts = *opts
	}
	counts := d.ClassCounts()
	for ci := range d.ClassNames {
		if counts[ci] == 0 {
			return nil, fmt.Errorf("core: class %q has no training samples", d.ClassNames[ci])
		}
		t, err := NewBST(d, ci)
		if err != nil {
			return nil, err
		}
		cl.Tables = append(cl.Tables, t)
	}
	return cl, nil
}

// Values returns the classification value CV(i) = BSTCE(T(i), Q) for every
// class.
func (cl *Classifier) Values(q *bitset.Set) []float64 {
	return cl.ValuesInto(make([]float64, len(cl.Tables)), q)
}

// ValuesInto writes the classification values into dst (which must have one
// slot per class) and returns it, allocating nothing itself.
func (cl *Classifier) ValuesInto(dst []float64, q *bitset.Set) []float64 {
	for i, t := range cl.Tables {
		dst[i] = t.EvaluateValue(q, cl.Opts)
	}
	return dst
}

// Classify implements Algorithm 6: it returns the smallest class index whose
// classification value is maximal.
func (cl *Classifier) Classify(q *bitset.Set) int {
	met.queries.Inc()
	class, _ := cl.decide(q)
	return class
}

// ClassifyWithConfidence returns Classify's class and Confidence's
// heuristic from one evaluation of every table.
func (cl *Classifier) ClassifyWithConfidence(q *bitset.Set) (class int, confidence float64) {
	met.queries.Inc()
	return cl.decide(q)
}

// ClassifyBatch classifies every row of a test dataset (which must share the
// training gene universe) and returns the predicted class indices.
func (cl *Classifier) ClassifyBatch(test *dataset.Bool) []int {
	return cl.ClassifyBatchParallel(test, 1)
}

// Confidence returns §8's proposed classification confidence heuristic: the
// normalized difference between the highest and second-highest BST
// satisfaction levels, in [0, 1]. Single-class classifiers return 1.
func (cl *Classifier) Confidence(q *bitset.Set) float64 {
	_, confidence := cl.decide(q)
	return confidence
}

// decide evaluates every table once, into a stack buffer for up to
// maxStackClasses classes, and returns the smallest maximizing class with
// its confidence (1 for a single class, as Confidence documents).
func (cl *Classifier) decide(q *bitset.Set) (int, float64) {
	var buf [maxStackClasses]float64
	var vals []float64
	if n := len(cl.Tables); n <= maxStackClasses {
		vals = buf[:n]
	} else {
		vals = make([]float64, n)
	}
	class, confidence := argmaxWithConfidence(cl.ValuesInto(vals, q))
	if len(vals) < 2 {
		confidence = 1
	}
	return class, confidence
}

// maxStackClasses bounds the class count decide evaluates without
// allocating; every paper dataset has two classes.
const maxStackClasses = 16

// Explanation is one atomic cell rule supporting a classification (§5.3.2):
// the cell's gene and supporting training sample, the query's satisfaction
// level for the cell, and the full cell rule.
type Explanation struct {
	Gene         int     // gene row of the cell
	SampleIndex  int     // dataset index of the supporting class sample
	Satisfaction float64 // BSTCE cell value for the query
	Rule         rules.BAR
}

// Explain justifies classifying q as class ci by returning all T(ci) atomic
// cell rules with satisfaction level ≥ minSat, strongest first (§5.3.2).
// Only cells whose gene the query expresses are reported, mirroring BSTCE.
func (cl *Classifier) Explain(q *bitset.Set, ci int, minSat float64) []Explanation {
	t := cl.Tables[ci]
	var out []Explanation
	s := t.getScratch()
	defer t.putScratch(s)
	s.reset()
	for c := range t.ClassSamples {
		s.setColumn(q, t.colGenes[c])
		s.qAndCol.ForEach(func(g int) bool {
			v := t.cellValue(s, g, c, cl.Opts)
			if v >= minSat {
				out = append(out, Explanation{
					Gene:         g,
					SampleIndex:  t.ClassSamples[c],
					Satisfaction: v,
					Rule:         t.CellRule(g, c),
				})
			}
			return true
		})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Satisfaction > out[j].Satisfaction })
	return out
}
