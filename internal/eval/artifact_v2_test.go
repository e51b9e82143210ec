package eval

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"testing"

	"bstc/internal/fault"
	"bstc/internal/synth"
)

func savedArtifactV2(t *testing.T) []byte {
	t.Helper()
	art, err := TrainArtifact(tinyContinuous(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := art.SaveV2(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestArtifactV2MappedParityPaperDatasets is the zero-copy acceptance pin:
// on every paper dataset profile, a v2 artifact served through
// LoadArtifactMapped must classify byte-identically to the freshly trained
// in-memory pipeline — same classes, bit-exact confidences and per-class
// values.
func TestArtifactV2MappedParityPaperDatasets(t *testing.T) {
	for _, p := range synth.PaperProfiles(synth.Small) {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			c, err := p.Generate()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := TrainArtifact(c, nil, 4)
			if err != nil {
				t.Fatal(err)
			}

			path := filepath.Join(t.TempDir(), "model.bstc")
			if err := WriteArtifactFile(path, ref, FormatV2); err != nil {
				t.Fatal(err)
			}
			mapped, err := LoadArtifactMapped(path)
			if err != nil {
				t.Fatal(err)
			}
			defer mapped.Close()

			vals := make([]float64, len(ref.Classifier.Tables))
			mvals := make([]float64, len(mapped.Classifier.Tables))
			for i, row := range c.Values {
				wantClass, wantConf, err := ref.ClassifyRow(row)
				if err != nil {
					t.Fatal(err)
				}
				gotClass, gotConf, err := mapped.ClassifyRow(row)
				if err != nil {
					t.Fatal(err)
				}
				if wantClass != gotClass || math.Float64bits(wantConf) != math.Float64bits(gotConf) {
					t.Fatalf("sample %d: mapped artifact predicts (%d, %v), in-memory (%d, %v)",
						i, gotClass, gotConf, wantClass, wantConf)
				}
				q, err := ref.TransformRow(row)
				if err != nil {
					t.Fatal(err)
				}
				mq, err := mapped.TransformRow(row)
				if err != nil {
					t.Fatal(err)
				}
				if !q.Equal(mq) {
					t.Fatalf("sample %d: discretized rows differ between in-memory and mapped", i)
				}
				ref.Classifier.ValuesInto(vals, q)
				mapped.Classifier.ValuesInto(mvals, mq)
				for ci := range vals {
					if math.Float64bits(vals[ci]) != math.Float64bits(mvals[ci]) {
						t.Fatalf("sample %d class %d: mapped value %v, in-memory value %v",
							i, ci, mvals[ci], vals[ci])
					}
				}
			}
		})
	}
}

// TestArtifactV2ReaderRoundTrip pins that LoadArtifact sniffs and decodes
// the v2 stream (copying path) and that a decoded artifact re-encodes to
// the identical v2 image.
func TestArtifactV2ReaderRoundTrip(t *testing.T) {
	good := savedArtifactV2(t)
	a, err := LoadArtifact(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := a.SaveV2(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(good, again.Bytes()) {
		t.Fatal("re-saved v2 artifact is not byte-identical to the original image")
	}
}

// TestMappedArtifactSetsAreFrozen asserts the mapped classifier's bitsets
// reject writes: mutating one must panic instead of writing through to the
// mapping.
func TestMappedArtifactSetsAreFrozen(t *testing.T) {
	art, err := TrainArtifact(tinyContinuous(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bstc")
	if err := WriteArtifactFile(path, art, FormatV2); err != nil {
		t.Fatal(err)
	}
	mapped, err := LoadArtifactMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	s := mapped.Classifier.Tables[0].ColumnGenes(0)
	defer func() {
		if recover() == nil {
			t.Fatal("mutating a mapped bitset did not panic")
		}
	}()
	s.Add(0)
}

// TestLoadArtifactMappedRejectsV1 pins the mapped loader to the v2 layout.
func TestLoadArtifactMappedRejectsV1(t *testing.T) {
	if _, err := LoadArtifactMapped(goldenV1Path); !errors.Is(err, ErrCorruptArtifact) {
		t.Fatalf("mapped load of a v1 file: err = %v, want ErrCorruptArtifact", err)
	}
}

// TestArtifactV2EveryTruncation mirrors the v1 sweep on the flat layout: a
// chopped image must come back as ErrCorruptArtifact, never a panic.
func TestArtifactV2EveryTruncation(t *testing.T) {
	good := savedArtifactV2(t)
	for n := 0; n < len(good); n++ {
		_, err := loadNoPanic(t, "v2 truncation", good[:n])
		if err == nil {
			t.Fatalf("truncated to %d/%d bytes: accepted", n, len(good))
		}
		if !errors.Is(err, ErrCorruptArtifact) {
			t.Fatalf("truncated to %d/%d bytes: error not wrapped in ErrCorruptArtifact: %v", n, len(good), err)
		}
	}
}

// TestArtifactV2BitFlips flips bits across the image. The metadata and
// words sections are checksummed, so any flip there must be rejected with
// the typed error; a flip the decoder tolerates (alignment padding is
// outside both checksums) must still yield a valid artifact. The mapped
// loader must agree with the reader path on every mutation.
func TestArtifactV2BitFlips(t *testing.T) {
	good := savedArtifactV2(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "flip.bstc")
	flip := func(off int, bit uint) {
		data := append([]byte(nil), good...)
		data[off] ^= 1 << bit
		a, err := loadNoPanic(t, "v2 bit flip", data)
		if err != nil && !errors.Is(err, ErrCorruptArtifact) {
			t.Fatalf("flip byte %d bit %d: error not wrapped in ErrCorruptArtifact: %v", off, bit, err)
		}
		if err == nil {
			if verr := a.validate(); verr != nil {
				t.Fatalf("flip byte %d bit %d: accepted artifact fails validation: %v", off, bit, verr)
			}
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		mapped, merr := LoadArtifactMapped(path)
		if (merr == nil) != (err == nil) {
			t.Fatalf("flip byte %d bit %d: reader err %v, mapped err %v", off, bit, err, merr)
		}
		if merr != nil && !errors.Is(merr, ErrCorruptArtifact) {
			t.Fatalf("flip byte %d bit %d: mapped error not wrapped in ErrCorruptArtifact: %v", off, bit, merr)
		}
		if mapped != nil {
			mapped.Close()
		}
	}
	// Every bit of the header, where the framing lives.
	for off := 0; off < v2HeaderLen; off++ {
		for bit := uint(0); bit < 8; bit++ {
			flip(off, bit)
		}
	}
	// One rotating bit per byte across metadata, padding and words.
	for off := v2HeaderLen; off < len(good); off++ {
		flip(off, uint(off%8))
	}
}

// TestWriteArtifactFileAtomic injects faults at every write site and
// asserts the destination is never torn: after a failed write the old file
// (or its absence) is intact, and a retry with the fault cleared succeeds.
func TestWriteArtifactFileAtomic(t *testing.T) {
	art, err := TrainArtifact(tinyContinuous(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected write fault")
	for _, site := range []string{
		"eval.artifact.save",
		"eval.artifact.write.sync",
		"eval.artifact.write.rename",
	} {
		t.Run(site+"/"+FormatV2, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "model.bstc")

			// First fail with no prior file: nothing may appear.
			in := fault.NewInjector(1)
			in.Set(site, fault.Rule{Prob: 1, Err: boom})
			fault.Enable(in)
			err := WriteArtifactFile(path, art, FormatV2)
			fault.Disable()
			if !errors.Is(err, boom) {
				t.Fatalf("fault at %s not surfaced: %v", site, err)
			}
			if _, serr := os.Stat(path); !errors.Is(serr, os.ErrNotExist) {
				t.Fatalf("failed first write left %s behind", path)
			}
			leftovers, _ := filepath.Glob(filepath.Join(dir, ".*tmp*"))
			if len(leftovers) != 0 {
				t.Fatalf("failed write leaked temp files: %v", leftovers)
			}

			// Now succeed, then fail an overwrite: the good file must
			// survive byte-for-byte.
			if err := WriteArtifactFile(path, art, FormatV2); err != nil {
				t.Fatal(err)
			}
			before, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			in = fault.NewInjector(1)
			in.Set(site, fault.Rule{Prob: 1, Err: boom})
			fault.Enable(in)
			err = WriteArtifactFile(path, art, FormatV2)
			fault.Disable()
			if !errors.Is(err, boom) {
				t.Fatalf("fault at %s not surfaced on overwrite: %v", site, err)
			}
			after, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(before, after) {
				t.Fatal("failed overwrite tore the existing artifact")
			}
			if _, err := LoadArtifact(bytes.NewReader(after)); err != nil {
				t.Fatalf("artifact after failed overwrite no longer loads: %v", err)
			}
		})
	}
}
