package eval

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"bstc/internal/dataset"
	"bstc/internal/synth"
)

// benchState holds the shared cold-start fixture: training the paper-scale
// artifact and writing it costs about a second, so every benchmark reuses
// one copy. TestMain removes the directory after the run (b.TempDir would
// tear it down between benchmarks).
var benchState struct {
	once   sync.Once
	dir    string
	data   *dataset.Continuous
	art    *Artifact
	v2Path string
	err    error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if benchState.dir != "" {
		os.RemoveAll(benchState.dir)
	}
	os.Exit(code)
}

// benchArtifact trains one artifact on the largest paper profile at full
// paper scale (OC: 15,154 genes × 253 samples, Table 2's biggest dataset)
// and returns it with its training data and the path of its written file.
// That is the largest artifact the suite produces, and the shape where
// cold start matters: the mapped path aliases the column sets' words
// untouched and derives the exclusion-list state from them.
func benchArtifact(b *testing.B) (*dataset.Continuous, *Artifact, string) {
	b.Helper()
	s := &benchState
	s.once.Do(func() {
		p := synth.PaperProfiles(synth.Paper)[3]
		if s.data, s.err = p.Generate(); s.err != nil {
			return
		}
		if s.art, s.err = TrainArtifact(s.data, nil, 4); s.err != nil {
			return
		}
		if s.dir, s.err = os.MkdirTemp("", "bstc-bench-"); s.err != nil {
			return
		}
		s.v2Path = filepath.Join(s.dir, "model.v2.bstc")
		s.err = WriteArtifactFile(s.v2Path, s.art, FormatV2)
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.data, s.art, s.v2Path
}

// BenchmarkArtifactColdStartMapped measures the zero-copy cold start:
// mmap, validate, parse the metadata section, alias every bitset in place
// and derive the per-pair intersection sizes. The words — the bulk of the
// file — are never deserialized.
func BenchmarkArtifactColdStartMapped(b *testing.B) {
	_, _, v2Path := benchArtifact(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := LoadArtifactMapped(v2Path)
		if err != nil {
			b.Fatal(err)
		}
		m.Close()
	}
}

// BenchmarkMappedClassifyRow pins per-query classification cost when
// serving out of the mapping, cycling through the profile's real sample
// rows: frozen views classify at native Set speed (steady state stays at a
// handful of allocations per row), so the cold-start win is not paid back
// per query.
func BenchmarkMappedClassifyRow(b *testing.B) {
	data, _, v2Path := benchArtifact(b)
	m, err := LoadArtifactMapped(v2Path)
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.ClassifyRow(data.Values[i%len(data.Values)]); err != nil {
			b.Fatal(err)
		}
	}
}
