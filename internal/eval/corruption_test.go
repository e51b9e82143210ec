package eval

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"bstc/internal/core"
)

// loadNoPanic runs LoadArtifact with a panic trap so a corrupt stream that
// crashes the decoder reports the offending mutation instead of killing the
// whole test binary.
func loadNoPanic(t *testing.T, what string, data []byte) (*Artifact, error) {
	t.Helper()
	var (
		a   *Artifact
		err error
	)
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: LoadArtifact panicked: %v", what, r)
			}
		}()
		a, err = LoadArtifact(bytes.NewReader(data))
	}()
	return a, err
}

// savedArtifact returns the v1 golden stream, the one v1 image there is.
func savedArtifact(t *testing.T) []byte {
	t.Helper()
	data, err := os.ReadFile(goldenV1Path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestLoadArtifactRejectsCorruptTables writes well-framed images whose
// classifier content is inconsistent — the checksums hold, the semantics do
// not — and asserts both loaders reject each with ErrCorruptArtifact, never
// a panic. The derived outside rows rely on the tables' class samples
// partitioning the training samples and on each table's outside samples
// being the complement of its own.
func TestLoadArtifactRejectsCorruptTables(t *testing.T) {
	cases := map[string]func(cl *core.Classifier){
		"unknown arithmetization": func(cl *core.Classifier) { cl.Opts.Arithmetization = 7 },
		"sample in two tables": func(cl *core.Classifier) {
			cl.Tables[1].ClassSamples[0] = cl.Tables[0].ClassSamples[0]
		},
		"sample out of range": func(cl *core.Classifier) { cl.Tables[0].ClassSamples[0] = 99 },
		"own sample outside": func(cl *core.Classifier) {
			cl.Tables[0].OutsideSamples[0] = cl.Tables[0].ClassSamples[0]
		},
		"outside sample twice": func(cl *core.Classifier) {
			cl.Tables[0].OutsideSamples[1] = cl.Tables[0].OutsideSamples[0]
		},
		"outside sample missing": func(cl *core.Classifier) {
			tb := cl.Tables[0]
			tb.OutsideSamples = tb.OutsideSamples[:len(tb.OutsideSamples)-1]
		},
	}
	path := filepath.Join(t.TempDir(), "bad.bstc")
	for name, corrupt := range cases {
		art, err := TrainArtifact(tinyContinuous(), nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(art.Classifier)
		var buf bytes.Buffer
		if err := art.SaveV2(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := loadNoPanic(t, name, buf.Bytes()); !errors.Is(err, ErrCorruptArtifact) {
			t.Errorf("%s: LoadArtifact err = %v, want ErrCorruptArtifact", name, err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if m, err := LoadArtifactMapped(path); !errors.Is(err, ErrCorruptArtifact) {
			t.Errorf("%s: LoadArtifactMapped err = %v, want ErrCorruptArtifact", name, err)
			if m != nil {
				m.Close()
			}
		}
	}
}

// TestLoadArtifactEveryTruncation chops the stream at every byte boundary: a
// partial artifact must always come back as a wrapped ErrCorruptArtifact,
// never a panic and never a silently-accepted half model.
func TestLoadArtifactEveryTruncation(t *testing.T) {
	good := savedArtifact(t)
	for n := 0; n < len(good); n++ {
		_, err := loadNoPanic(t, "truncation", good[:n])
		if err == nil {
			t.Fatalf("truncated to %d/%d bytes: accepted", n, len(good))
		}
		if !errors.Is(err, ErrCorruptArtifact) {
			t.Fatalf("truncated to %d/%d bytes: error not wrapped in ErrCorruptArtifact: %v", n, len(good), err)
		}
	}
}

// TestLoadArtifactBitFlips flips bits across the stream. A flip may land in
// slack the decoder legitimately tolerates (err == nil is allowed), but a
// rejection must be the typed error and nothing may panic.
func TestLoadArtifactBitFlips(t *testing.T) {
	good := savedArtifact(t)
	flip := func(off int, bit uint) {
		data := append([]byte(nil), good...)
		data[off] ^= 1 << bit
		a, err := loadNoPanic(t, "bit flip", data)
		if err != nil {
			if !errors.Is(err, ErrCorruptArtifact) {
				t.Fatalf("flip byte %d bit %d: error not wrapped in ErrCorruptArtifact: %v", off, bit, err)
			}
			return
		}
		if verr := a.validate(); verr != nil {
			t.Fatalf("flip byte %d bit %d: accepted artifact fails validation: %v", off, bit, verr)
		}
	}
	// Every bit of the header region, where framing lives.
	head := 64
	if head > len(good) {
		head = len(good)
	}
	for off := 0; off < head; off++ {
		for bit := uint(0); bit < 8; bit++ {
			flip(off, bit)
		}
	}
	// One rotating bit per byte across the rest of the payload.
	for off := head; off < len(good); off++ {
		flip(off, uint(off%8))
	}
}
