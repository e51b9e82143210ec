package eval

import (
	"bytes"
	"os"
	"testing"
)

// FuzzLoadArtifact asserts the artifact decoder never panics on arbitrary
// bytes and that anything it accepts is internally consistent enough to
// survive a save→load round trip.
func FuzzLoadArtifact(f *testing.F) {
	good, err := os.ReadFile(goldenV1Path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(artifactMagic))
	f.Add(good[:len(good)/2])
	f.Add([]byte(nil))
	f.Add(bytes.Replace(good, []byte{0x01}, []byte{0x02}, 3))
	// Flat-layout seeds: the current image, the bare magic, a header-only
	// prefix, a mid-metadata truncation, and one byte short of complete, so
	// the fuzzer explores the offset-indexed decoder, not just gob.
	art, err := TrainArtifact(tinyContinuous(), nil, 1)
	if err != nil {
		f.Fatal(err)
	}
	var seedV2 bytes.Buffer
	if err := art.SaveV2(&seedV2); err != nil {
		f.Fatal(err)
	}
	goodV2 := seedV2.Bytes()
	f.Add(goodV2)
	f.Add([]byte(artifactMagicV2))
	for _, n := range []int{v2HeaderLen, v2HeaderLen + 16, len(goodV2) / 2, len(goodV2) - 1} {
		if n >= 0 && n <= len(goodV2) {
			f.Add(goodV2[:n])
		}
	}
	for _, off := range []int{8, v2HeaderLen + 4, len(goodV2) / 2, len(goodV2) - 2} {
		if off >= 0 && off < len(goodV2) {
			flipped := append([]byte(nil), goodV2...)
			flipped[off] ^= 0x10
			f.Add(flipped)
		}
	}
	// Truncations at framing-sensitive offsets: inside the magic, just past
	// it, inside the JSON frame, and one byte short of complete.
	for _, n := range []int{3, len(artifactMagic), len(artifactMagic) + 2, 3 * len(good) / 4, len(good) - 1} {
		if n >= 0 && n <= len(good) {
			f.Add(good[:n])
		}
	}
	// Single bit flips spread across the stream.
	for _, off := range []int{0, len(artifactMagic), len(good) / 3, len(good) / 2, len(good) - 2} {
		if off >= 0 && off < len(good) {
			flipped := append([]byte(nil), good...)
			flipped[off] ^= 0x10
			f.Add(flipped)
		}
	}
	// The version-2 golden, whose pair blocks the decoder reads and
	// discards, whole and cut inside those blocks.
	goldenV2, err := os.ReadFile(goldenV2Path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(goldenV2)
	f.Add(goldenV2[:3*len(goldenV2)/4])
	f.Fuzz(func(t *testing.T, data []byte) {
		a, err := LoadArtifact(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := a.validate(); err != nil {
			t.Fatalf("accepted artifact fails validation: %v", err)
		}
		var buf bytes.Buffer
		if err := a.SaveV2(&buf); err != nil {
			t.Fatalf("cannot re-save accepted artifact: %v", err)
		}
		if _, err := LoadArtifact(&buf); err != nil {
			t.Fatalf("round trip of accepted artifact failed: %v", err)
		}
	})
}
