package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"bstc/internal/bitset"
	"bstc/internal/core"
	"bstc/internal/dataset"
	"bstc/internal/discretize"
	"bstc/internal/eval"
	"bstc/internal/obs"
)

// target aims the generator at the deployment, with every request row's
// answer from Artifact.ClassifyRow on the trained in-memory model.
func (e *env) target() (*target, error) {
	ans, err := oracle(e.dep.art, e.in.rows, e.procs)
	if err != nil {
		return nil, err
	}
	return &target{url: e.dep.url, client: newClient(e.procs), conns: e.procs, bodies: e.in.bodies, oracle: ans}, nil
}

// count books a rate step's requests. In a fixed-rate step a request left
// unsent counts as attempted and failed; on a ladder rung it is the
// backlog signal of a rate the server cannot take, and is not booked.
func (e *env) count(st *stepResult, fixedRate bool) {
	e.attempt += st.sent
	e.failed += st.non200
	e.wrong += st.wrong
	if fixedRate {
		e.attempt += st.unfinished
		e.failed += st.unfinished
	}
}

// fixedStepDrain is how long a light or heavy step waits for its backlog
// to be sent once its schedule ends. A ladder rung waits one latency limit;
// a fixed rate only reports latency, so a slow spell there is slow, not
// failed, unless it lasts this long.
const fixedStepDrain = 10 * time.Second

// share is a fraction of the run's --seconds budget.
func (e *env) share(f float64) time.Duration { return time.Duration(f * float64(e.dur)) }

// fixedSteps runs the light and heavy steps as stepRounds alternating
// segments each and pools each rate's segments, so that both rates sample
// the whole phase rather than one stretch of it: the machine's speed drifts
// over tens of seconds. A non-nil between runs before each round and after
// the last.
func (e *env) fixedSteps(ctx context.Context, t *target, between func() error) (light, heavy *stepResult, err error) {
	minN := (stepSamples + stepRounds - 1) / stepRounds
	for r := 0; r <= stepRounds; r++ {
		if between != nil {
			if err := between(); err != nil {
				return nil, nil, err
			}
		}
		if r == stepRounds {
			break
		}
		for _, st := range []struct {
			name string
			rate float64
			len  float64
			dst  **stepResult
		}{{"light", e.w.light, e.w.lightLen, &light}, {"heavy", e.w.heavy, e.w.heavyLen, &heavy}} {
			seg, err := t.runStep(ctx, st.name, st.rate, e.share(st.len)/stepRounds, minN, stepSeed(e.seed, st.name, r), fixedStepDrain)
			if err != nil {
				return nil, nil, err
			}
			if *st.dst == nil {
				*st.dst = seg
			} else {
				(*st.dst).merge(seg)
			}
		}
	}
	for _, st := range []*stepResult{light, heavy} {
		e.count(st, true)
		logf("%s", st.report(e.w.limit))
	}
	return light, heavy, nil
}

// endToEnd measures the untraced run: the light and heavy steps, with
// batches of timed set-ups between their rounds.
func (e *env) endToEnd(ctx context.Context, m map[string]metric) error {
	t, err := e.target()
	if err != nil {
		return err
	}
	light, heavy, err := e.fixedSteps(ctx, t, func() error { return e.timeSetUps(ctx) })
	if err != nil {
		return err
	}
	logf("setup: %d runs, median %.4fs (%s), artifact %d bytes", len(e.setups), e.setupS(), stageMedians(e.setups), e.dep.artBytes)
	m["setup_s"] = metric{e.setupS(), "s"}
	m["light.p50_ms"] = metric{ms(light.p(50)), "ms"}
	m["heavy.p50_ms"] = metric{ms(heavy.p(50)), "ms"}
	m["artifact_mb"] = metric{float64(e.dep.artBytes) / 1e6, "MB"}
	return nil
}

// ladder climbs the capacity ladder and returns the highest passing rate,
// or 0 when no rung passed.
func (e *env) ladder(ctx context.Context, t *target) (float64, error) {
	var stepErr error
	minRung := int(math.Floor(ladderPerOctave * math.Log2(e.w.light/e.w.ladderBase)))
	best, ok := climbLadder(minRung, e.w.maxProbes, func(k int) verdict {
		st, err := t.runStep(ctx, fmt.Sprintf("rung%+d", k), rungRate(e.w.ladderBase, k), e.share(e.w.rungLen), stepSamples, stepSeed(e.seed, "rung", k), e.w.limit)
		if err != nil {
			stepErr = err
			return verdictInvalid
		}
		e.count(st, false)
		logf("%s", st.report(e.w.limit))
		return st.judge(e.w.limit)
	})
	if stepErr != nil || !ok {
		return 0, stepErr
	}
	return rungRate(e.w.ladderBase, best), nil
}

// perLayer names every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not reach reads 0.
var perLayer = [][2]string{
	{"max_rps", "1/s"}, {"study_s", "s"},
	{"light.p90_ms", "ms"}, {"light.samples", "count"}, {"heavy.p90_ms", "ms"}, {"heavy.samples", "count"},
	{"light.serve.queue_wait_ms", "ms"}, {"light.serve.batch_size", "count"},
	{"light.serve.server_ms", "ms"}, {"light.serve.unattributed_ms", "ms"},
	{"light.serve.discretize_ms", "ms"}, {"light.serve.classify_row_ms", "ms"},
	{"light.serve.failed", "count"},
	{"heavy.serve.queue_wait_ms", "ms"}, {"heavy.serve.batch_size", "count"},
	{"heavy.serve.server_ms", "ms"}, {"heavy.serve.unattributed_ms", "ms"},
	{"heavy.serve.discretize_ms", "ms"}, {"heavy.serve.classify_row_ms", "ms"},
	{"heavy.serve.failed", "count"},
	{"discretize.transform_row_us", "us"}, {"core.classify_ms", "ms"},
	{"core.confidence_ms", "ms"}, {"core.evals_per_query", "count"},
	{"core.clause_cache.hit_ratio", "fraction"},
	{"discretize.fit_s", "s"}, {"core.train_s", "s"}, {"core.bst.pair_clauses", "count"},
	{"core.train_alloc_mb", "MB"}, {"eval.write_ms", "ms"}, {"registry.acquire_ms", "ms"},
	{"serve.ready_ms", "ms"},
	{"study.eval.prepare_s", "s"}, {"study.core.train_s", "s"}, {"study.core.classify_batch_s", "s"},
	{"rcbt.mine_s", "s"}, {"carminer.topk.nodes", "count"}, {"rcbt.mine_alloc_mb", "MB"},
	{"rcbt.build_s", "s"}, {"carminer.lb.steps", "count"}, {"rcbt.build_alloc_mb", "MB"},
	{"rcbt.classify_ms", "ms"},
	{"gen.late_p90_ms", "ms"}, {"gen.late_max_ms", "ms"}, {"trace.overhead", "ratio"},
}

// traced is the per-layer run: the light and heavy steps read the serve
// layer from /metrics and the capacity ladder gives max_rps; then, with the
// server stopped, the set-up, the request rows and the study are re-run
// through each layer's public entry points in spans, with the core and
// carminer counters installed.
func (e *env) traced(ctx context.Context, m map[string]metric) error {
	vals := map[string]float64{}
	t, err := e.target()
	if err != nil {
		return err
	}
	light, heavy, err := e.fixedSteps(ctx, t, nil)
	if err != nil {
		return err
	}
	for _, st := range []*stepResult{light, heavy} {
		vals[st.name+".p90_ms"] = ms(st.p(90))
		vals[st.name+".samples"] = float64(len(st.latency))
		p := st.name + ".serve."
		lm := st.means()
		vals[p+"queue_wait_ms"] = lm.QueueWaitMS
		vals[p+"batch_size"] = lm.BatchSize
		vals[p+"server_ms"] = lm.ServerMS
		vals[p+"unattributed_ms"] = st.unattributedMS()
		vals[p+"discretize_ms"] = lm.DiscretizeMS
		vals[p+"classify_row_ms"] = lm.ClassifyRowMS
		vals[p+"failed"] = float64(lm.Failed)
		vals["gen.late_p90_ms"] = math.Max(vals["gen.late_p90_ms"], ms(percentile(st.late, 90)))
		vals["gen.late_max_ms"] = math.Max(vals["gen.late_max_ms"], ms(percentile(st.late, 100)))
	}
	if vals["max_rps"], err = e.ladder(ctx, t); err != nil {
		return err
	}
	art := e.dep.art
	e.dep.close()
	e.dep = nil

	if err := e.traceSetup(ctx, vals); err != nil {
		return err
	}
	if err := e.traceRows(art, vals); err != nil {
		return err
	}
	if err := e.traceStudy(ctx, vals); err != nil {
		return err
	}
	for _, nu := range perLayer {
		m[nu[0]] = metric{vals[nu[0]], nu[1]}
	}
	return nil
}

// traceSetup repeats the set-up with the artifact training split into its
// layers: discretize.FitWithWorkers, Model.Transform and core.Train.
func (e *env) traceSetup(ctx context.Context, vals map[string]float64) error {
	rec := &recorder{}
	reg := obs.NewRegistry()
	core.SetMetrics(reg)
	defer core.SetMetrics(nil)
	root := rec.start("setup", 0, 0)
	var trainAlloc float64
	var pairClauses int64
	d, _, err := deploy(ctx, func(parent int) (*eval.Artifact, error) {
		var model *discretize.Model
		var b *dataset.Bool
		var cl *core.Classifier
		err := rec.do("discretize.fit", parent, 0, func() (err error) {
			model, err = discretize.FitWithWorkers(ctx, e.in.train, discretize.EntropyMDL, e.procs)
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := rec.do("discretize.transform", parent, 0, func() (err error) {
			b, err = model.Transform(e.in.train)
			return err
		}); err != nil {
			return nil, err
		}
		before := reg.Snapshot()
		trainAlloc, err = allocMB(func() error {
			return rec.do("core.train", parent, 0, func() (err error) {
				cl, err = core.Train(b, nil)
				return err
			})
		})
		if err != nil {
			return nil, err
		}
		pairClauses = reg.Snapshot().DeltaFrom(before).Counters["core.bst.pair_clauses"]
		return &eval.Artifact{Disc: model, Classifier: cl}, nil
	}, e.work, rec, root)
	rec.end(root)
	if err != nil {
		return err
	}
	d.close()
	self := selfTimes(rec.spans)
	logSelf("setup", self)
	vals["discretize.fit_s"] = self["discretize.fit"].Seconds()
	vals["core.train_s"] = self["core.train"].Seconds()
	vals["core.bst.pair_clauses"] = float64(pairClauses)
	vals["core.train_alloc_mb"] = trainAlloc
	vals["eval.write_ms"] = ms(self["eval.write"])
	vals["registry.acquire_ms"] = ms(self["registry.acquire"])
	vals["serve.ready_ms"] = ms(self["serve.ready"])
	return nil
}

// traceRows classifies every request row rowPasses times, each pass once
// through Artifact.ClassifyRow untraced and once through
// Artifact.TransformRow, Classifier.Classify and Classifier.Confidence in
// spans with the core counters on. The passes alternate so that warm-up
// and drift fall on both sides; the ratio of the two wall times is the
// tracing overhead.
func (e *env) traceRows(art *eval.Artifact, vals map[string]float64) error {
	rec := &recorder{}
	reg := obs.NewRegistry()
	var untraced, traced time.Duration
	for p := 0; p < e.w.rowPasses; p++ {
		start := time.Now()
		for _, row := range e.in.rows {
			if _, _, err := art.ClassifyRow(row); err != nil {
				return err
			}
		}
		untraced += time.Since(start)

		core.SetMetrics(reg)
		start = time.Now()
		for i, row := range e.in.rows {
			op := p*len(e.in.rows) + i + 1
			root := rec.start("row", 0, op)
			var q *bitset.Set
			if err := rec.do("discretize.transform_row", root, op, func() (err error) {
				q, err = art.TransformRow(row)
				return err
			}); err != nil {
				core.SetMetrics(nil)
				return err
			}
			_ = rec.do("core.classify", root, op, func() error { art.Classifier.Classify(q); return nil })
			_ = rec.do("core.confidence", root, op, func() error { art.Classifier.Confidence(q); return nil })
			rec.end(root)
		}
		traced += time.Since(start)
		core.SetMetrics(nil)
	}
	n := float64(e.w.rowPasses * len(e.in.rows))
	c := reg.Snapshot().Counters
	self := selfTimes(rec.spans)
	logSelf("rows", self)
	vals["discretize.transform_row_us"] = float64(self["discretize.transform_row"]) / 1e3 / n
	vals["core.classify_ms"] = ms(self["core.classify"]) / n
	vals["core.confidence_ms"] = ms(self["core.confidence"]) / n
	if q := c["core.classify.queries"]; q > 0 {
		vals["core.evals_per_query"] = float64(c["core.bstce.evals"]) / float64(q)
	}
	if h := c["core.clause_cache.hits"] + c["core.clause_cache.misses"]; h > 0 {
		vals["core.clause_cache.hit_ratio"] = float64(c["core.clause_cache.hits"]) / float64(h)
	}
	vals["trace.overhead"] = traced.Seconds() / untraced.Seconds()
	return nil
}

// traceStudy runs the study through RunCV untraced, then re-runs its tests
// layer by layer and requires the same accuracies.
func (e *env) traceStudy(ctx context.Context, vals map[string]float64) error {
	if len(e.w.study.profiles) == 0 {
		return nil
	}
	data, err := e.w.study.generate()
	if err != nil {
		return err
	}
	wall, tests, err := runStudy(ctx, e.w.study, data, e.procs)
	if err != nil {
		return err
	}
	e.attempt += len(tests)
	e.failed += failedTests(tests)
	rec := &recorder{}
	start := time.Now()
	l, wrong, err := rerunStudy(ctx, e.w.study, data, e.procs, rec, tests)
	if err != nil {
		return err
	}
	e.wrong += wrong
	logf("study: RunCV %.3fs, traced serial re-run %.3fs, %d accuracies differ", wall.Seconds(), time.Since(start).Seconds(), wrong)
	vals["study_s"] = wall.Seconds()
	self := selfTimes(rec.spans)
	logSelf("study", self)
	vals["study.eval.prepare_s"] = self["eval.prepare"].Seconds()
	vals["study.core.train_s"] = self["core.train"].Seconds()
	vals["study.core.classify_batch_s"] = self["core.classify_batch"].Seconds()
	vals["rcbt.mine_s"] = self["rcbt.mine"].Seconds()
	vals["rcbt.build_s"] = self["rcbt.build"].Seconds()
	vals["rcbt.classify_ms"] = ms(self["rcbt.classify"])
	vals["carminer.topk.nodes"] = float64(l.topkNodes)
	vals["carminer.lb.steps"] = float64(l.lbSteps)
	vals["rcbt.mine_alloc_mb"] = l.mineAllocMB
	vals["rcbt.build_alloc_mb"] = l.buildAllocMB
	return nil
}

// logSelf prints every span name's self time.
func logSelf(what string, self map[string]time.Duration) {
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%.3fms", n, ms(self[n]))
	}
	logf("self time (%s):%s", what, b.String())
}
