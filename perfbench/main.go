// Command perfbench is the repository benchmark. It serves a trained model
// in-process behind a loopback listener, drives it open-loop from the same
// process, runs a cross-validation study through eval.RunCV, checks every
// answer, and prints one JSON result line. With --trace 1 it instead times
// each layer's public entry points from outside and prints per-layer
// metrics. README.md describes the workloads and metrics.
//
//	perfbench --workload small --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"bstc/internal/eval"
	"bstc/internal/synth"
)

// paperTrainFrac is the training share of the paper-oc workload's splits.
const paperTrainFrac = 0.8

const (
	// stepSamples is the fewest requests any step sends, however short its
	// share of the budget.
	stepSamples = 100
	// stepRounds is how many alternating segments the light and heavy
	// steps are cut into.
	stepRounds = 3
)

// workload is one named input set and the load shape it is driven with.
type workload struct {
	name   string
	inputs func(seed int64) (*inputs, error)
	// light and heavy are the fixed open-loop rates, and ladderBase the
	// capacity ladder's rung 0, in requests per second.
	light, heavy, ladderBase float64
	// limit is the p90 latency limit a ladder rung must meet.
	limit time.Duration
	// lightLen, heavyLen and rungLen are the light step's, the heavy
	// step's and each ladder rung's share of the --seconds budget.
	lightLen, heavyLen, rungLen float64
	// maxProbes bounds the ladder rungs probed.
	maxProbes int
	// setupBatch is how many extra set-ups the untraced run times before
	// each light/heavy round and after the last, so that they sample the
	// whole run; setup_s is the median of these and the serving set-up.
	setupBatch int
	// rowPasses is how many times the traced run classifies every request
	// row directly, so that the per-row figures cover enough work.
	rowPasses int
	// study is the traced run's cross-validation study; a workload without
	// one leaves its study metrics at 0.
	study studySpec
}

// profiles looks up paper profiles by name; the names are constants, so a
// miss is a bug.
func profiles(scale synth.Scale, names ...string) []synth.Profile {
	var out []synth.Profile
	for _, n := range names {
		p, err := synth.ProfileByName(n, scale)
		if err != nil {
			panic(err)
		}
		out = append(out, p)
	}
	return out
}

func workloads() []workload {
	return []workload{
		{
			name: "small", inputs: smallInputs,
			// Capacity is about 500/s; the heavy rate stays off that knee,
			// where a p90 swings with the machine's speed.
			light: 50, heavy: 300, ladderBase: 400, limit: 10 * time.Millisecond,
			lightLen: 0.3, heavyLen: 0.3, rungLen: 0.08, maxProbes: 5,
			setupBatch: 25, rowPasses: 25,
			// LC is left out: at a 60% training size some splits send its
			// lower-bound mining past 40 s and 7 GB.
			study: studySpec{profiles: profiles(synth.Small, "ALL", "PC", "OC"), frac: 0.6, tests: 3},
		},
		{
			name: "paper-oc", inputs: paperInputs,
			// A request costs about 80 ms of one core here, so every step is
			// as long as its sample floor needs: 17 s at the light rate. At
			// 10/s the median already swings with the machine's speed, as
			// requests start to queue. A 250 ms limit sits inside the band
			// a p90 wanders over between runs at any rate from 6/s to 17/s.
			light: 6, heavy: 8, ladderBase: 16, limit: 400 * time.Millisecond,
			lightLen: 0.3, heavyLen: 0.2, rungLen: 0.1, maxProbes: 4,
			setupBatch: 2, rowPasses: 1,
		},
	}
}

func logf(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) }

func main() {
	name := flag.String("workload", "", "workload to run: small or paper-oc")
	seed := flag.Int64("seed", 1, "seeds every generated input")
	seconds := flag.Int("seconds", 30, "length of the open-loop phase, in seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer run instead")
	flag.Parse()
	var w *workload
	for _, c := range workloads() {
		if c.name == *name {
			w = &c
		}
	}
	if w == nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		logf("perfbench: need --workload small|paper-oc, --seconds ≥ 1 and --trace 0|1")
		os.Exit(2)
	}
	res, err := run(context.Background(), w, *seed, time.Duration(*seconds)*time.Second, *traceFlag == 1)
	if err != nil {
		logf("perfbench: %v", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		logf("perfbench: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env is what a run shares between its phases.
type env struct {
	w       *workload
	seed    int64
	dur     time.Duration
	procs   int
	in      *inputs
	work    string
	dep     *deployment
	setups  []setupTimes
	attempt int
	failed  int
	wrong   int
}

// run sets the workload up and measures it. Thread and connection counts
// are capped at the CPU count.
func run(ctx context.Context, w *workload, seed int64, dur time.Duration, traced bool) (*result, error) {
	procs := min(runtime.GOMAXPROCS(0), runtime.NumCPU())
	runtime.GOMAXPROCS(procs)
	in, err := w.inputs(seed)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(".bench_build", "work-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	e := &env{w: w, seed: seed, dur: dur, procs: procs, in: in, work: work}
	defer func() {
		if e.dep != nil {
			e.dep.close()
		}
	}()
	if e.dep, err = e.deployOnce(ctx); err != nil {
		return nil, err
	}
	metrics := map[string]metric{}
	if traced {
		err = e.traced(ctx, metrics)
	} else {
		err = e.endToEnd(ctx, metrics)
	}
	if err != nil {
		return nil, err
	}
	return &result{Correct: e.wrong == 0, Attempted: e.attempt, Failed: e.failed + e.wrong, Metrics: metrics}, nil
}

// timeSetUps deploys the model w.setupBatch more times, closing each
// deployment at once, then collects the garbage so that none of it is
// swept during the next step.
func (e *env) timeSetUps(ctx context.Context) error {
	for i := 0; i < e.w.setupBatch; i++ {
		d, err := e.deployOnce(ctx)
		if err != nil {
			return err
		}
		d.close()
	}
	runtime.GC()
	return nil
}

// deployOnce sets up one deployment and records its stage times.
func (e *env) deployOnce(ctx context.Context) (*deployment, error) {
	d, st, err := deploy(ctx, func(int) (*eval.Artifact, error) {
		return eval.TrainArtifact(e.in.train, nil, e.procs)
	}, e.work, nil, 0)
	if err != nil {
		return nil, err
	}
	e.setups = append(e.setups, st)
	return d, nil
}

// setupS is the median of the timed set-ups, in seconds.
func (e *env) setupS() float64 {
	var xs []float64
	for _, s := range e.setups {
		xs = append(xs, s.total().Seconds())
	}
	return median(xs)
}

func stageMedians(st []setupTimes) string {
	col := func(f func(setupTimes) time.Duration) float64 {
		var xs []float64
		for _, s := range st {
			xs = append(xs, f(s).Seconds())
		}
		return median(xs)
	}
	return fmt.Sprintf("train %.4fs write %.4fs acquire %.4fs ready %.4fs",
		col(func(s setupTimes) time.Duration { return s.train }),
		col(func(s setupTimes) time.Duration { return s.write }),
		col(func(s setupTimes) time.Duration { return s.acquire }),
		col(func(s setupTimes) time.Duration { return s.ready }))
}
