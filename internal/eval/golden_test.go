package eval

import (
	"bytes"
	"math"
	"os"
	"testing"
)

// Artifacts written by earlier releases, both trained on tinyContinuous:
// a v1 gob stream and a version-2 flat image, which still stored the BST
// exclusion lists. Neither can be regenerated — no writer for either
// exists any more — so they pin the legacy read paths.
const (
	goldenV1Path = "testdata/artifact_v1.golden"
	goldenV2Path = "testdata/artifact_v2.golden"
)

// matchesFresh asserts a loaded legacy artifact classifies every fixture
// sample bit-exactly like a freshly trained one, and that re-encoding it
// yields the fresh artifact's current image.
func matchesFresh(t *testing.T, what string, loaded *Artifact) {
	t.Helper()
	c := tinyContinuous()
	fresh, err := TrainArtifact(c, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range c.Values {
		wantClass, wantConf, err := fresh.ClassifyRow(row)
		if err != nil {
			t.Fatal(err)
		}
		gotClass, gotConf, err := loaded.ClassifyRow(row)
		if err != nil {
			t.Fatal(err)
		}
		if wantClass != gotClass || math.Float64bits(wantConf) != math.Float64bits(gotConf) {
			t.Fatalf("%s sample %d: golden artifact predicts (%d, %v), fresh training (%d, %v)",
				what, i, gotClass, gotConf, wantClass, wantConf)
		}
	}
	var want, got bytes.Buffer
	if err := fresh.SaveV2(&want); err != nil {
		t.Fatal(err)
	}
	if err := loaded.SaveV2(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatalf("%s: re-encoding the golden artifact differs from fresh training", what)
	}
}

// TestGoldenV1BackCompat proves v1 gob artifacts written by earlier
// releases still load and classify exactly like fresh training.
func TestGoldenV1BackCompat(t *testing.T) {
	golden, err := os.ReadFile(goldenV1Path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArtifact(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("golden v1 artifact no longer loads: %v", err)
	}
	matchesFresh(t, "v1", loaded)
}

// TestGoldenV2BackCompat proves version-2 images, whose stored exclusion
// lists the loader now discards, still load through both read paths and
// classify exactly like fresh training.
func TestGoldenV2BackCompat(t *testing.T) {
	golden, err := os.ReadFile(goldenV2Path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadArtifact(bytes.NewReader(golden))
	if err != nil {
		t.Fatalf("golden v2 artifact no longer loads: %v", err)
	}
	matchesFresh(t, "v2 reader", loaded)
	mapped, err := LoadArtifactMapped(goldenV2Path)
	if err != nil {
		t.Fatalf("golden v2 artifact no longer maps: %v", err)
	}
	defer mapped.Close()
	matchesFresh(t, "v2 mapped", mapped.Artifact)
}
