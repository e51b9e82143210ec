package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"bstc/internal/dataset"
	"bstc/internal/eval"
	"bstc/internal/obs"
	"bstc/internal/registry"
	"bstc/internal/serve"
	"bstc/internal/synth"
)

// inputs are a workload's generated data: the training matrix behind the
// served model and the request rows, each with its encoded body.
type inputs struct {
	train  *dataset.Continuous
	rows   [][]float64
	bodies [][]byte
}

// smallInputs is the 60-gene profile bstcload -synth serves, with the
// profile seed taken from the workload seed; requests are rows of the
// profile's own matrix.
func smallInputs(seed int64) (*inputs, error) {
	p := synth.Profile{
		Name:            "loadgen",
		NumGenes:        60,
		ClassNames:      []string{"tumor", "normal"},
		ClassSizes:      []int{40, 40},
		InformativeFrac: 0.3,
		Separation:      2.5,
		Dropout:         0.05,
		Seed:            seed,
	}
	c, err := p.Generate()
	if err != nil {
		return nil, err
	}
	return withBodies(&inputs{train: c, rows: c.Values})
}

// paperInputs is the paper-scale OC profile split 80/20 by the workload
// seed; requests are the held-out rows only.
func paperInputs(seed int64) (*inputs, error) {
	c, err := profiles(synth.Paper, "OC")[0].Generate()
	if err != nil {
		return nil, err
	}
	sp, err := dataset.RandomFractionSplit(rand.New(rand.NewSource(seed)), c.NumSamples(), paperTrainFrac)
	if err != nil {
		return nil, err
	}
	return withBodies(&inputs{train: c.Subset(sp.Train), rows: c.Subset(sp.Test).Values})
}

func withBodies(in *inputs) (*inputs, error) {
	for _, row := range in.rows {
		b, err := json.Marshal(serve.Request{Values: row})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, b)
	}
	return in, nil
}

// oracle classifies every request row with Artifact.ClassifyRow, striped
// over workers goroutines.
func oracle(art *eval.Artifact, rows [][]float64, workers int) ([]answer, error) {
	out := make([]answer, len(rows))
	errs := make([]error, len(rows))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(rows); i += workers {
				out[i].class, out[i].conf, errs[i] = art.ClassifyRow(rows[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("oracle row %d: %w", i, err)
		}
	}
	return out, nil
}

// deployment is one set-up's running server and everything that must be
// torn down with it.
type deployment struct {
	art      *eval.Artifact // the trained in-memory model
	artBytes int64          // size of the v2 file
	url      string
	reg      *registry.Registry
	handle   *registry.Handle
	srv      *serve.Server
	http     *http.Server
}

func (d *deployment) close() {
	if d.http != nil {
		d.http.Close()
	}
	if d.srv != nil {
		d.srv.Close() // retiring the version releases the handle
	} else if d.handle != nil {
		d.handle.Release()
	}
	if d.reg != nil {
		d.reg.Close()
	}
}

const (
	modelName    = "bench"
	modelVersion = "v1"
	modelFile    = "model-v1.bstc"
)

// setupTimes are the wall times of one set-up's stages.
type setupTimes struct {
	train, write, acquire, ready time.Duration
}

func (s setupTimes) total() time.Duration { return s.train + s.write + s.acquire + s.ready }

// deploy is the timed set-up: train the artifact, write it as a v2 file
// into a fresh registry directory under work, load it the way
// bstcd -registry does (registry.Open, Manifest, Acquire), and boot
// serve.NewFromModel on a loopback listener until /readyz answers 200.
// Each stage runs in a span under parent when rec is non-nil.
func deploy(ctx context.Context, train func(parent int) (*eval.Artifact, error), work string, rec *recorder, parent int) (*deployment, setupTimes, error) {
	var st setupTimes
	dir, err := os.MkdirTemp(work, "registry-*")
	if err != nil {
		return nil, st, err
	}
	path := filepath.Join(dir, modelFile)
	d := &deployment{}
	stages := []struct {
		name string
		took *time.Duration
		run  func(id int) error
	}{
		{"eval.train", &st.train, func(id int) (err error) { d.art, err = train(id); return err }},
		{"eval.write", &st.write, func(int) error {
			if err := eval.WriteArtifactFile(path, d.art, eval.FormatV2); err != nil {
				return err
			}
			return writeManifest(dir)
		}},
		{"registry.acquire", &st.acquire, func(int) error { return d.acquire(dir) }},
		{"serve.ready", &st.ready, func(int) error { return d.boot(ctx) }},
	}
	for _, s := range stages {
		t := time.Now()
		id := rec.start(s.name, parent, 0)
		err := s.run(id)
		rec.end(id)
		if err != nil {
			d.close()
			return nil, st, fmt.Errorf("set-up %s: %w", s.name, err)
		}
		*s.took = time.Since(t)
	}
	fi, err := os.Stat(path)
	if err != nil {
		d.close()
		return nil, st, err
	}
	d.artBytes = fi.Size()
	return d, st, nil
}

func writeManifest(dir string) error {
	m := map[string]any{
		"version": 1,
		"models":  []map[string]string{{"name": modelName, "model_version": modelVersion, "path": modelFile}},
		"serve":   map[string]string{"model": modelName, "stable": modelVersion},
	}
	b, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, registry.ManifestName), b, 0o644)
}

// acquire opens the registry directory and takes a handle on the routed
// version.
func (d *deployment) acquire(dir string) error {
	reg, err := registry.Open(registry.Config{Dir: dir})
	if err != nil {
		return err
	}
	d.reg = reg
	man, err := reg.Manifest()
	if err != nil {
		return err
	}
	d.handle, err = reg.Acquire(man, man.Serve.Model, man.Serve.Stable)
	return err
}

// boot builds the server around the acquired handle, which it releases
// when the version retires, serves it on a loopback port and waits for
// /readyz.
func (d *deployment) boot(ctx context.Context) error {
	h := d.handle
	d.srv = serve.NewFromModel(&serve.Model{
		Version:     h.ModelVersion,
		Artifact:    h.Artifact,
		Fingerprint: h.Digest,
		Format:      h.Format,
		LoadNanos:   h.LoadNanos,
		Release:     h.Release,
	}, serve.Config{Registry: obs.NewRegistry()})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	d.http = &http.Server{Handler: d.srv.Handler()}
	go d.http.Serve(ln) //nolint:errcheck // returns ErrServerClosed on close
	d.url = "http://" + ln.Addr().String()
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.url+"/readyz", nil)
		if err != nil {
			return err
		}
		if resp, err := client.Do(req); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(100 * time.Microsecond)
	}
	return fmt.Errorf("server at %s never became ready", d.url)
}
