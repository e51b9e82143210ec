package registry

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"bstc/internal/dataset"
	"bstc/internal/eval"
	"bstc/internal/fault"
)

// trainArtifact builds a small artifact whose predictions depend on shift,
// so different shifts are genuinely different models.
func trainArtifact(t testing.TB, shift float64) *eval.Artifact {
	t.Helper()
	c := &dataset.Continuous{
		GeneNames:  []string{"sep", "flat"},
		ClassNames: []string{"A", "B"},
		Classes:    []int{0, 0, 0, 1, 1, 1},
		Values: [][]float64{
			{1.0 + shift, 7}, {1.2 + shift, 7}, {1.4 + shift, 7},
			{8.0 + shift, 7}, {8.2 + shift, 7}, {8.4 + shift, 7},
		},
	}
	art, err := eval.TrainArtifact(c, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	return art
}

// writeRegistry materializes a registry directory: two versions of one
// model and a manifest routing stable=v1.
func writeRegistry(t testing.TB) (dir string, arts map[string]*eval.Artifact) {
	t.Helper()
	dir = t.TempDir()
	arts = map[string]*eval.Artifact{
		"v1": trainArtifact(t, 0),
		"v2": trainArtifact(t, 0.5),
	}
	if err := eval.WriteArtifactFile(filepath.Join(dir, "model-v1.bstc"), arts["v1"], eval.FormatV2); err != nil {
		t.Fatal(err)
	}
	if err := eval.WriteArtifactFile(filepath.Join(dir, "model-v2.bstc"), arts["v2"], eval.FormatV2); err != nil {
		t.Fatal(err)
	}
	manifest := `{
	  "version": 1,
	  "models": [
	    {"name": "bstc", "model_version": "v1", "path": "model-v1.bstc"},
	    {"name": "bstc", "model_version": "v2", "path": "model-v2.bstc"}
	  ],
	  "serve": {"model": "bstc", "stable": "v1"}
	}`
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir, arts
}

func TestRegistryAcquireFormats(t *testing.T) {
	dir, arts := writeRegistry(t)
	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m, err := r.Manifest()
	if err != nil {
		t.Fatal(err)
	}

	h1, err := r.Acquire(m, "bstc", "v1")
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Release()
	if h1.Format != "v2+mmap" {
		t.Errorf("v1 format = %q, want v2+mmap", h1.Format)
	}
	h2, err := r.Acquire(m, "bstc", "v2")
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if h2.Format != "v2+mmap" {
		t.Errorf("v2 format = %q, want v2+mmap", h2.Format)
	}
	if h1.LoadNanos <= 0 || h2.LoadNanos <= 0 {
		t.Errorf("load nanos not measured: %d, %d", h1.LoadNanos, h2.LoadNanos)
	}
	if len(h1.Digest) != 64 || len(h2.Digest) != 64 {
		t.Errorf("digests not full sha256: %q, %q", h1.Digest, h2.Digest)
	}

	// Loaded versions classify exactly like the artifacts they were built
	// from.
	for v, h := range map[string]*Handle{"v1": h1, "v2": h2} {
		want, got := arts[v], h.Artifact
		for _, row := range [][]float64{{1.1, 7}, {8.3, 7}} {
			wc, wconf, err := want.ClassifyRow(row)
			if err != nil {
				t.Fatal(err)
			}
			gc, gconf, err := got.ClassifyRow(row)
			if err != nil {
				t.Fatal(err)
			}
			if gc != wc || gconf != wconf {
				t.Errorf("%s: ClassifyRow = (%d, %v), want (%d, %v)", v, gc, gconf, wc, wconf)
			}
		}
	}

	// A second acquire of a referenced version shares the loaded artifact.
	h1b, err := r.Acquire(m, "bstc", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if h1b.Artifact != h1.Artifact {
		t.Error("second acquire loaded a new copy instead of sharing")
	}
	h1b.Release()

	if _, err := r.Acquire(m, "bstc", "v9"); err == nil {
		t.Error("acquiring an unlisted version succeeded")
	}
	if _, idle := r.Stats(); idle != 0 {
		t.Errorf("idle = %d while all handles held", idle)
	}

	// A v1 gob artifact written by an earlier release still loads, copying.
	golden, err := os.ReadFile(filepath.Join("..", "eval", "testdata", "artifact_v1.golden"))
	if err != nil {
		t.Fatal(err)
	}
	legacy := t.TempDir()
	if err := os.WriteFile(filepath.Join(legacy, "model-v0.bstc"), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(legacy, ManifestName), []byte(`{"version": 1,
	  "models": [{"name": "bstc", "model_version": "v0", "path": "model-v0.bstc"}],
	  "serve": {"model": "bstc", "stable": "v0"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	lr, err := Open(Config{Dir: legacy})
	if err != nil {
		t.Fatal(err)
	}
	defer lr.Close()
	lm, err := lr.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	h0, err := lr.Acquire(lm, "bstc", "v0")
	if err != nil {
		t.Fatal(err)
	}
	defer h0.Release()
	if h0.Format != "gob" {
		t.Errorf("v0 format = %q, want gob", h0.Format)
	}
	want, err := eval.LoadArtifact(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	row := []float64{1.1, 7, 0.2}
	wc, wconf, err := want.ClassifyRow(row)
	if err != nil {
		t.Fatal(err)
	}
	if gc, gconf, err := h0.Artifact.ClassifyRow(row); err != nil || gc != wc || gconf != wconf {
		t.Errorf("v0: ClassifyRow = (%d, %v, %v), want (%d, %v)", gc, gconf, err, wc, wconf)
	}
}

// TestRegistryLRU: released artifacts stay warm up to Cache, the oldest is
// evicted beyond that, and a warm re-acquire is the same loaded artifact.
func TestRegistryLRU(t *testing.T) {
	dir, _ := writeRegistry(t)
	r, err := Open(Config{Dir: dir, Cache: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m, err := r.Manifest()
	if err != nil {
		t.Fatal(err)
	}

	h1, err := r.Acquire(m, "bstc", "v1")
	if err != nil {
		t.Fatal(err)
	}
	art1 := h1.Artifact
	h1.Release()
	if loaded, idle := r.Stats(); loaded != 1 || idle != 1 {
		t.Fatalf("after release: loaded=%d idle=%d, want 1/1", loaded, idle)
	}

	// Warm re-acquire: same artifact, no reload.
	h1, err = r.Acquire(m, "bstc", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if h1.Artifact != art1 {
		t.Error("warm re-acquire reloaded the artifact")
	}
	h1.Release()

	// Releasing a second version overflows Cache=1 and evicts v1.
	h2, err := r.Acquire(m, "bstc", "v2")
	if err != nil {
		t.Fatal(err)
	}
	h2.Release()
	if loaded, idle := r.Stats(); loaded != 1 || idle != 1 {
		t.Fatalf("after overflow: loaded=%d idle=%d, want 1/1", loaded, idle)
	}
	h1, err = r.Acquire(m, "bstc", "v1")
	if err != nil {
		t.Fatal(err)
	}
	if h1.Artifact == art1 {
		t.Error("evicted artifact came back without a reload")
	}
	h1.Release()
}

// TestRegistryReferencedNeverEvicted: a referenced artifact survives any
// amount of cache churn; eviction applies to idle entries only.
func TestRegistryReferencedNeverEvicted(t *testing.T) {
	dir, _ := writeRegistry(t)
	r, err := Open(Config{Dir: dir, Cache: -1}) // keep nothing warm
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m, err := r.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	held, err := r.Acquire(m, "bstc", "v2") // mapped: eviction would unmap
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		h, err := r.Acquire(m, "bstc", "v1")
		if err != nil {
			t.Fatal(err)
		}
		h.Release()
	}
	// The mapped artifact must still classify (a use-after-unmap would
	// fault or race).
	if _, _, err := held.Artifact.ClassifyRow([]float64{8.3, 7}); err != nil {
		t.Fatal(err)
	}
	held.Release()
	if loaded, idle := r.Stats(); loaded != 0 || idle != 0 {
		t.Errorf("Cache<0 retained loaded=%d idle=%d", loaded, idle)
	}
}

// TestRegistryDigestPin: a manifest digest pin must match the file bytes.
func TestRegistryDigestPin(t *testing.T) {
	dir, _ := writeRegistry(t)
	data, err := os.ReadFile(filepath.Join(dir, "model-v1.bstc"))
	if err != nil {
		t.Fatal(err)
	}
	good := eval.FileDigest(data)
	bad := strings.Repeat("0", 64)
	writeManifest := func(digest string) *Manifest {
		body := fmt.Sprintf(`{
		  "version": 1,
		  "models": [{"name": "bstc", "model_version": "v1", "path": "model-v1.bstc", "sha256": %q}]
		}`, digest)
		m, err := ParseManifest([]byte(body))
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	h, err := r.Acquire(writeManifest(good), "bstc", "v1")
	if err != nil {
		t.Fatalf("pinned acquire with matching digest: %v", err)
	}
	h.Release()

	r2, err := Open(Config{Dir: dir}) // fresh cache so the load really runs
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if _, err := r2.Acquire(writeManifest(bad), "bstc", "v1"); err == nil {
		t.Fatal("acquire with mismatched digest pin succeeded")
	} else if !strings.Contains(err.Error(), "digest") {
		t.Fatalf("error %q does not mention the digest", err)
	}
}

// TestRegistryLoadFault: an injected fault at registry.load surfaces as an
// error — the caller decides what keeps serving (the swap path keeps the
// old version).
func TestRegistryLoadFault(t *testing.T) {
	dir, _ := writeRegistry(t)
	in := fault.NewInjector(21)
	in.Set("registry.load", fault.Rule{Prob: 1, MaxFires: 1, Err: fmt.Errorf("chaos: load blocked")})
	fault.Enable(in)
	defer fault.Disable()

	r, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m, err := r.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire(m, "bstc", "v1"); err == nil {
		t.Fatal("faulted load succeeded")
	}
	// The rule is exhausted: the next acquire works and the failed one left
	// no cache residue.
	h, err := r.Acquire(m, "bstc", "v1")
	if err != nil {
		t.Fatal(err)
	}
	h.Release()
}

// TestRegistryConcurrentAcquire races many acquires and releases of both
// versions; under -race this pins the locking discipline, and every loser
// of the load race must observe the single cached artifact.
func TestRegistryConcurrentAcquire(t *testing.T) {
	dir, _ := writeRegistry(t)
	r, err := Open(Config{Dir: dir, Cache: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	m, err := r.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			version := "v1"
			if g%2 == 1 {
				version = "v2"
			}
			for i := 0; i < 20; i++ {
				h, err := r.Acquire(m, "bstc", version)
				if err != nil {
					t.Error(err)
					return
				}
				if _, _, err := h.Artifact.ClassifyRow([]float64{1.1, 7}); err != nil {
					t.Error(err)
				}
				h.Release()
			}
		}(g)
	}
	wg.Wait()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Acquire(m, "bstc", "v1"); err == nil {
		t.Error("acquire after Close succeeded")
	}
}
