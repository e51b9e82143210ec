package eval

import (
	"bytes"
	"math"
	"testing"

	"bstc/internal/core"
	"bstc/internal/dataset"
	"bstc/internal/synth"
)

func tinyContinuous() *dataset.Continuous {
	return &dataset.Continuous{
		GeneNames:  []string{"sep", "flat", "wide"},
		ClassNames: []string{"A", "B"},
		Classes:    []int{0, 0, 0, 0, 1, 1, 1, 1},
		Values: [][]float64{
			{1.0, 7, 0.1}, {1.2, 7, 0.2}, {1.4, 7, 0.3}, {1.6, 7, 0.35},
			{8.0, 7, 0.9}, {8.2, 7, 0.95}, {8.4, 7, 1.0}, {8.6, 7, 1.1},
		},
	}
}

// TestArtifactRoundTripPaperDatasets is the serving-path regression pin:
// for every paper dataset profile, the save→load→classify pipeline must be
// byte-identical to in-memory classify — same predicted classes, same
// bit-exact classification values, and a re-saved artifact must reproduce
// the original stream byte for byte.
func TestArtifactRoundTripPaperDatasets(t *testing.T) {
	for _, p := range synth.PaperProfiles(synth.Small) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			c, err := p.Generate()
			if err != nil {
				t.Fatal(err)
			}
			art, err := TrainArtifact(c, nil, 4)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := art.SaveV2(&buf); err != nil {
				t.Fatal(err)
			}
			saved := append([]byte(nil), buf.Bytes()...)
			loaded, err := LoadArtifact(&buf)
			if err != nil {
				t.Fatal(err)
			}
			vals := make([]float64, len(art.Classifier.Tables))
			lvals := make([]float64, len(loaded.Classifier.Tables))
			for i, row := range c.Values {
				wantClass, wantConf, err := art.ClassifyRow(row)
				if err != nil {
					t.Fatal(err)
				}
				gotClass, gotConf, err := loaded.ClassifyRow(row)
				if err != nil {
					t.Fatal(err)
				}
				if wantClass != gotClass || math.Float64bits(wantConf) != math.Float64bits(gotConf) {
					t.Fatalf("sample %d: loaded artifact predicts (%d, %v), in-memory (%d, %v)",
						i, gotClass, gotConf, wantClass, wantConf)
				}
				q, err := art.TransformRow(row)
				if err != nil {
					t.Fatal(err)
				}
				lq, err := loaded.TransformRow(row)
				if err != nil {
					t.Fatal(err)
				}
				if !q.Equal(lq) {
					t.Fatalf("sample %d: discretized rows differ after round trip", i)
				}
				art.Classifier.ValuesInto(vals, q)
				loaded.Classifier.ValuesInto(lvals, lq)
				for ci := range vals {
					if math.Float64bits(vals[ci]) != math.Float64bits(lvals[ci]) {
						t.Fatalf("sample %d class %d: value %v vs %v after round trip",
							i, ci, lvals[ci], vals[ci])
					}
				}
			}
			var again bytes.Buffer
			if err := loaded.SaveV2(&again); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(saved, again.Bytes()) {
				t.Fatal("re-saved artifact is not byte-identical to the original stream")
			}
		})
	}
}

func TestTrainArtifactWorkerInvariance(t *testing.T) {
	c := tinyContinuous()
	a1, err := TrainArtifact(c, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	a8, err := TrainArtifact(c, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	var b1, b8 bytes.Buffer
	if err := a1.SaveV2(&b1); err != nil {
		t.Fatal(err)
	}
	if err := a8.SaveV2(&b8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b8.Bytes()) {
		t.Fatal("artifact bytes depend on the training worker count")
	}
}

func TestLoadArtifactRejectsBadStreams(t *testing.T) {
	art, err := TrainArtifact(tinyContinuous(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := art.SaveV2(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := map[string][]byte{
		"empty":           nil,
		"bad magic":       []byte("GOBBLEDYGOOK\n\x00\x01"),
		"truncated magic": good[:4],
		"truncated body":  good[:len(good)-7],
		"magic only":      []byte(artifactMagic),
		"v2 magic only":   []byte(artifactMagicV2),
	}
	for name, data := range cases {
		if _, err := LoadArtifact(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: corrupt artifact accepted", name)
		}
	}

	// Halves that load individually but do not belong together must be
	// rejected by the cross-check.
	other := tinyContinuous()
	other.GeneNames = []string{"a", "b", "c"}
	mismatched, err := TrainArtifact(other, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	franken := &Artifact{Disc: mismatched.Disc, Classifier: art.Classifier}
	var fb bytes.Buffer
	if err := franken.SaveV2(&fb); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadArtifact(&fb); err == nil {
		t.Error("artifact with mismatched item vocabularies accepted")
	}
}

func TestTrainArtifactErrors(t *testing.T) {
	if _, err := TrainArtifact(&dataset.Continuous{GeneNames: []string{"g"}}, nil, 1); err == nil {
		t.Error("empty dataset should error")
	}
	flat := &dataset.Continuous{
		GeneNames:  []string{"g"},
		ClassNames: []string{"A", "B"},
		Classes:    []int{0, 1},
		Values:     [][]float64{{1}, {1}},
	}
	if _, err := TrainArtifact(flat, nil, 1); err == nil {
		t.Error("dataset with no informative genes should error")
	}
}

func TestArtifactClassifyRowMatchesBatchPath(t *testing.T) {
	c := tinyContinuous()
	art, err := TrainArtifact(c, &core.EvalOptions{Arithmetization: core.ProductCombine}, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := art.Disc.Transform(c)
	if err != nil {
		t.Fatal(err)
	}
	want := art.Classifier.ClassifyBatch(b)
	for i, row := range c.Values {
		got, _, err := art.ClassifyRow(row)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("sample %d: ClassifyRow = %d, batch = %d", i, got, want[i])
		}
	}
}
