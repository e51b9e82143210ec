package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"bstc/internal/carminer"
	"bstc/internal/core"
	"bstc/internal/dataset"
	"bstc/internal/eval"
	"bstc/internal/obs"
	"bstc/internal/rcbt"
	"bstc/internal/stats"
	"bstc/internal/synth"
)

// studySpec is a cross-validation study: tests random splits of each
// dataset at one training fraction, with both the BSTC and the Top-k/RCBT
// arm.
type studySpec struct {
	profiles []synth.Profile
	frac     float64
	tests    int
}

// studySeed draws every study's splits, whatever the workload seed. One
// OC test's Top-k mining takes 2.6 s on one split and 10 s on another, so
// splits drawn from the workload seed made study_s spread by 0.31 of its
// median over five seeds, even with five tests per dataset; a fixed test
// list leaves only run-to-run noise.
const studySeed = 1

// studyData is one generated dataset of a study.
type studyData struct {
	name string
	data *dataset.Continuous
}

func (s studySpec) generate() ([]studyData, error) {
	var out []studyData
	for _, p := range s.profiles {
		c, err := p.Generate()
		if err != nil {
			return nil, err
		}
		out = append(out, studyData{p.Name, c})
	}
	return out, nil
}

// testResult is one CV test's outcome.
type testResult struct {
	dataset      string
	test         int
	failed       bool
	bstcAcc      float64
	rcbtFinished bool
	rcbtAcc      float64
}

// done reports whether the test finished both arms.
func (tr testResult) done() bool { return !tr.failed && tr.rcbtFinished }

// runStudy runs eval.RunCV on every dataset in turn, as bstcbench does,
// and returns the summed wall time of the RunCV calls.
func runStudy(ctx context.Context, spec studySpec, data []studyData, workers int) (time.Duration, []testResult, error) {
	var wall time.Duration
	var out []testResult
	for _, d := range data {
		start := time.Now()
		res, err := eval.RunCV(ctx, eval.CVConfig{
			Data:    d.data,
			Sizes:   []eval.TrainSize{{Label: fmt.Sprintf("%g%%", spec.frac*100), Frac: spec.frac}},
			Tests:   spec.tests,
			Seed:    studySeed,
			RunRCBT: true,
			RCBT:    rcbt.DefaultConfig(),
			Workers: workers,
			Dataset: d.name,
		})
		wall += time.Since(start)
		if err != nil {
			return wall, nil, fmt.Errorf("study %s: %w", d.name, err)
		}
		sr := res[0]
		for i := 0; i < spec.tests; i++ {
			tr := testResult{dataset: d.name, test: i, failed: i >= len(sr.BSTC) || (i < len(sr.Failed) && sr.Failed[i])}
			if !tr.failed {
				tr.bstcAcc = sr.BSTC[i].Accuracy
			}
			if i < len(sr.RCBT) {
				tr.rcbtFinished = sr.RCBT[i].Finished()
				tr.rcbtAcc = sr.RCBT[i].Accuracy
			}
			out = append(out, tr)
		}
	}
	return wall, out, nil
}

// splits redraws RunCV's training splits: one generator per dataset seeded
// with the study seed, drawn in task order.
func splits(spec studySpec, n int) ([]dataset.Split, error) {
	r := rand.New(rand.NewSource(studySeed))
	out := make([]dataset.Split, spec.tests)
	for i := range out {
		sp, err := dataset.RandomFractionSplit(r, n, spec.frac)
		if err != nil {
			return nil, err
		}
		out[i] = sp
	}
	return out, nil
}

// failedTests counts the tests that did not finish both arms.
func failedTests(tests []testResult) int {
	n := 0
	for _, t := range tests {
		if !t.done() {
			n++
		}
	}
	return n
}

// studyLayers are the traced study's per-layer totals over every test.
type studyLayers struct {
	mineAllocMB, buildAllocMB float64
	topkNodes, lbSteps        int64
}

// rerunStudy re-runs the study's tests one at a time by calling the layers
// RunCV composes: eval.PrepareWorkers, core.Train,
// Classifier.ClassifyBatchParallel, then rcbt.Mine, rcbt.Build and
// rcbt.Classifier.ClassifyBatch, each in a span. Tests run serially so
// that allocation and counters belong to one call. It compares every
// accuracy with RunCV's and returns how many differ.
func rerunStudy(ctx context.Context, spec studySpec, data []studyData, workers int, rec *recorder, runCV []testResult) (studyLayers, int, error) {
	var l studyLayers
	reg := obs.NewRegistry()
	core.SetMetrics(reg)
	carminer.SetMetrics(reg)
	defer core.SetMetrics(nil)
	defer carminer.SetMetrics(nil)
	cfg := rcbt.DefaultConfig()
	cfg.Workers = workers // RunCV hands its worker count to the miner the same way
	wrong, op := 0, 0
	for _, d := range data {
		sps, err := splits(spec, d.data.NumSamples())
		if err != nil {
			return l, 0, err
		}
		for _, sp := range sps {
			want := runCV[op]
			op++
			root := rec.start("study.test", 0, op)
			var ps *eval.Prepared
			var cl *core.Classifier
			var preds []int
			err := rec.do("eval.prepare", root, op, func() (err error) {
				ps, err = eval.PrepareWorkers(ctx, d.data, sp, workers)
				return err
			})
			if err == nil {
				err = rec.do("core.train", root, op, func() (err error) {
					cl, err = core.Train(ps.TrainBool, nil)
					return err
				})
			}
			if err == nil {
				err = rec.do("core.classify_batch", root, op, func() error {
					preds = cl.ClassifyBatchParallel(ps.TestBool, workers)
					return nil
				})
			}
			if err != nil {
				return l, 0, fmt.Errorf("traced study %s: %w", d.name, err)
			}
			if acc := stats.Accuracy(preds, ps.TestBool.Classes); acc != want.bstcAcc {
				wrong++
				logf("study %s test %d: RunCV BSTC accuracy %v, traced %v", d.name, want.test, want.bstcAcc, acc)
			}
			acc, err := traceRCBT(ctx, ps, cfg, reg, rec, root, op, &l)
			if err != nil {
				return l, 0, fmt.Errorf("traced study %s: %w", d.name, err)
			}
			if acc != want.rcbtAcc {
				wrong++
				logf("study %s test %d: RunCV RCBT accuracy %v, traced %v", d.name, want.test, want.rcbtAcc, acc)
			}
			rec.end(root)
		}
	}
	return l, wrong, nil
}

func traceRCBT(ctx context.Context, ps *eval.Prepared, cfg rcbt.Config, reg *obs.Registry, rec *recorder, root, op int, l *studyLayers) (float64, error) {
	var mined []*carminer.TopKResult
	var cl *rcbt.Classifier
	before := reg.Snapshot()
	mb, err := allocMB(func() error {
		return rec.do("rcbt.mine", root, op, func() (err error) {
			mined, err = rcbt.Mine(ctx, ps.TrainBool, cfg)
			return err
		})
	})
	if err != nil {
		return 0, err
	}
	l.mineAllocMB += mb
	mid := reg.Snapshot()
	mb, err = allocMB(func() error {
		return rec.do("rcbt.build", root, op, func() (err error) {
			cl, err = rcbt.Build(ctx, ps.TrainBool, mined, cfg)
			return err
		})
	})
	if err != nil {
		return 0, err
	}
	l.buildAllocMB += mb
	l.topkNodes += mid.DeltaFrom(before).Counters["carminer.topk.nodes"]
	l.lbSteps += reg.Snapshot().DeltaFrom(mid).Counters["carminer.lb.steps"]
	var preds []int
	_ = rec.do("rcbt.classify", root, op, func() error {
		preds = cl.ClassifyBatch(ps.TestBool)
		return nil
	})
	return stats.Accuracy(preds, ps.TestBool.Classes), nil
}
