package eval

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"io"

	"bstc/internal/bitset"
	"bstc/internal/core"
	"bstc/internal/dataset"
	"bstc/internal/discretize"
	"bstc/internal/fault"
)

// Artifact is the deployable unit the serving layer loads: the fitted
// entropy-MDL discretizer and the BSTC classifier trained on its output.
// Together they are the whole inference pipeline — continuous expression
// vector → boolean item row → class — so a daemon holding an Artifact needs
// no training data. SaveV2 writes it in the flat layout (artifact_v2.go);
// LoadArtifact also reads the v1 gob stream earlier releases wrote, which
// framed a discretize and a core gob stream into one message, and checks
// the two halves belong together.
type Artifact struct {
	Disc       *discretize.Model
	Classifier *core.Classifier
}

// ErrCorruptArtifact wraps every LoadArtifact failure caused by the stream
// itself — truncation, bit flips, foreign files, version or cross-check
// mismatches — so callers can distinguish a damaged file from an IO error
// with errors.Is. Corruption never panics.
var ErrCorruptArtifact = errors.New("eval: corrupt artifact")

// artifactMagic leads a v1 stream.
const artifactMagic = "BSTC-ARTIFACT\n"

// artifactFormatVersion is the v1 framing version; the nested streams
// carry their own versions.
const artifactFormatVersion = 1

// artifactDTO is the v1 gob frame; do not rename or reorder its fields.
type artifactDTO struct {
	Version    int
	Disc       []byte // discretize gob stream (discretize.LoadModel)
	Classifier []byte // core gob stream (core.LoadClassifier)
}

// TrainArtifact runs the full training pipeline on a labeled continuous
// matrix: fit the entropy-MDL partition (striped over workers; the model is
// identical for any worker count), transform, and train BSTC. A nil opts
// uses the paper's defaults.
func TrainArtifact(c *dataset.Continuous, opts *core.EvalOptions, workers int) (*Artifact, error) {
	model, err := discretize.FitWithWorkers(context.Background(), c, discretize.EntropyMDL, workers)
	if err != nil {
		return nil, fmt.Errorf("eval: discretize: %w", err)
	}
	if model.NumSelectedGenes() == 0 {
		return nil, fmt.Errorf("eval: discretization selected no genes")
	}
	b, err := model.Transform(c)
	if err != nil {
		return nil, err
	}
	cl, err := core.Train(b, opts)
	if err != nil {
		return nil, err
	}
	return &Artifact{Disc: model, Classifier: cl}, nil
}

// LoadArtifact reads an artifact written by SaveV2, or a v1 gob stream,
// sniffing the magic to dispatch between the two (decoded copying, since a reader offers no stable memory to alias;
// use LoadArtifactMapped for the zero-copy path). Both formats are
// validated end to end, including that the halves agree: the classifier's
// item vocabulary must be exactly the discretizer's, or every
// classification through the pair would silently misread items.
func LoadArtifact(r io.Reader) (*Artifact, error) {
	if err := fault.Hit("eval.artifact.load"); err != nil {
		return nil, err
	}
	magic := make([]byte, len(artifactMagic))
	if _, err := io.ReadFull(r, magic[:len(artifactMagicV2)]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %w", ErrCorruptArtifact, err)
	}
	if string(magic[:len(artifactMagicV2)]) == artifactMagicV2 {
		rest, err := io.ReadAll(r)
		if err != nil {
			return nil, fmt.Errorf("%w: reading v2 image: %w", ErrCorruptArtifact, err)
		}
		return decodeV2(append(magic[:len(artifactMagicV2)], rest...), false)
	}
	if _, err := io.ReadFull(r, magic[len(artifactMagicV2):]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %w", ErrCorruptArtifact, err)
	}
	if string(magic) != artifactMagic {
		return nil, fmt.Errorf("%w: not a BSTC artifact (bad magic)", ErrCorruptArtifact)
	}
	var dto artifactDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("%w: decoding frame: %w", ErrCorruptArtifact, err)
	}
	if dto.Version != artifactFormatVersion {
		return nil, fmt.Errorf("%w: format version %d, want %d", ErrCorruptArtifact, dto.Version, artifactFormatVersion)
	}
	disc, err := discretize.LoadModel(bytes.NewReader(dto.Disc))
	if err != nil {
		return nil, fmt.Errorf("%w: discretizer stream: %w", ErrCorruptArtifact, err)
	}
	cls, err := core.LoadClassifier(bytes.NewReader(dto.Classifier))
	if err != nil {
		return nil, fmt.Errorf("%w: classifier stream: %w", ErrCorruptArtifact, err)
	}
	a := &Artifact{Disc: disc, Classifier: cls}
	if err := a.validate(); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorruptArtifact, err)
	}
	return a, nil
}

// validate cross-checks the two halves of the artifact.
func (a *Artifact) validate() error {
	if got, want := len(a.Classifier.GeneNames), a.Disc.NumItems(); got != want {
		return fmt.Errorf("eval: artifact classifier has %d items, discretizer produces %d", got, want)
	}
	for i, n := range a.Classifier.GeneNames {
		if n != a.Disc.ItemNames[i] {
			return fmt.Errorf("eval: artifact item %d is %q in the classifier but %q in the discretizer", i, n, a.Disc.ItemNames[i])
		}
	}
	if len(a.Classifier.ClassNames) == 0 || len(a.Classifier.Tables) != len(a.Classifier.ClassNames) {
		return fmt.Errorf("eval: artifact classifier has %d tables for %d classes",
			len(a.Classifier.Tables), len(a.Classifier.ClassNames))
	}
	return nil
}

// TransformRow discretizes one continuous sample into the classifier's item
// universe.
func (a *Artifact) TransformRow(values []float64) (*bitset.Set, error) {
	return a.Disc.TransformRow(values)
}

// ClassifyRow runs the full pipeline on one continuous sample and returns
// the predicted class index and the classifier's confidence heuristic.
func (a *Artifact) ClassifyRow(values []float64) (class int, confidence float64, err error) {
	q, err := a.TransformRow(values)
	if err != nil {
		return 0, 0, err
	}
	class, confidence = a.Classifier.ClassifyWithConfidence(q)
	return class, confidence, nil
}
