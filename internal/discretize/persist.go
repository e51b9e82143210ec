package discretize

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"bstc/internal/bitset"
)

// Model persistence: a fitted discretizer's cut points are what training
// hands to serving (see internal/eval's Artifact, which stores them beside
// the classifier tables). NewModel is the constructor every load path goes
// through; LoadModel reads the gob stream that v1 artifacts embed. The
// derived fields (Selected, itemBase, slot) are rebuilt on load and the
// parts are validated, so a loaded model either behaves exactly like the one
// saved or the load fails.

// modelFormatVersion guards against reading streams written by an
// incompatible layout.
const modelFormatVersion = 1

// modelDTO is the v1 gob wire format; do not rename or reorder its fields.
type modelDTO struct {
	Version    int
	NumGenes   int
	GeneCuts   [][]float64
	ItemNames  []string
	ClassNames []string
}

// LoadModel reads a model gob stream as embedded in v1 artifacts. The stream is
// validated structurally (version, cut ordering and finiteness, item-name
// arity) and the derived index fields are rebuilt, so anything accepted
// transforms data exactly as the saved model did.
func LoadModel(r io.Reader) (*Model, error) {
	var dto modelDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("discretize: load model: %w", err)
	}
	return modelFromDTO(dto)
}

// NewModel assembles a model from its persisted parts — gene count, per-gene
// cut points, item and class vocabularies — applying the same structural
// validation as LoadModel and rebuilding the derived index fields. It is the
// constructor for internal/eval's flat artifact layout, so every load path
// shares one validation gate.
func NewModel(numGenes int, geneCuts [][]float64, itemNames, classNames []string) (*Model, error) {
	return modelFromDTO(modelDTO{
		Version:    modelFormatVersion,
		NumGenes:   numGenes,
		GeneCuts:   geneCuts,
		ItemNames:  itemNames,
		ClassNames: classNames,
	})
}

func modelFromDTO(dto modelDTO) (*Model, error) {
	if dto.Version != modelFormatVersion {
		return nil, fmt.Errorf("discretize: model format version %d, want %d", dto.Version, modelFormatVersion)
	}
	if dto.NumGenes != len(dto.GeneCuts) {
		return nil, fmt.Errorf("discretize: model has cuts for %d genes, claims %d", len(dto.GeneCuts), dto.NumGenes)
	}
	m := &Model{
		GeneCuts:   dto.GeneCuts,
		ItemNames:  dto.ItemNames,
		ClassNames: dto.ClassNames,
		numGenes:   dto.NumGenes,
	}
	for g, cuts := range m.GeneCuts {
		for i, c := range cuts {
			if math.IsNaN(c) || math.IsInf(c, 0) {
				return nil, fmt.Errorf("discretize: gene %d has non-finite cut %v", g, c)
			}
			if i > 0 && !(cuts[i-1] < c) {
				return nil, fmt.Errorf("discretize: gene %d cuts not strictly ascending", g)
			}
		}
	}
	if items := m.derive(); items != len(m.ItemNames) {
		return nil, fmt.Errorf("discretize: model has %d item names for %d intervals", len(m.ItemNames), items)
	}
	return m, nil
}

// NumGenes returns the gene count of the continuous data the model was
// fitted on (the required input width of Transform and TransformRow).
func (m *Model) NumGenes() int { return m.numGenes }

// TransformRow maps one continuous sample (len = NumGenes, finite values)
// into the boolean item representation — the single-query analogue of
// Transform, used by the serving path where samples arrive one at a time.
func (m *Model) TransformRow(values []float64) (*bitset.Set, error) {
	if len(values) != m.numGenes {
		return nil, fmt.Errorf("discretize: sample has %d values, model fitted on %d genes", len(values), m.numGenes)
	}
	for j, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("discretize: gene %d has non-finite expression value %v", j, v)
		}
	}
	r := bitset.New(len(m.ItemNames))
	for k, g := range m.Selected {
		r.Add(m.itemBase[k] + bin(m.GeneCuts[g], values[g]))
	}
	return r, nil
}

// ItemIndex resolves item names (as in ItemNames, e.g. "g12[1]") to item
// indices — the lookup serving needs to accept pre-discretized queries.
// Build it once per loaded model.
func (m *Model) ItemIndex() map[string]int {
	idx := make(map[string]int, len(m.ItemNames))
	for i, n := range m.ItemNames {
		idx[n] = i
	}
	return idx
}

func sortedCutsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Equal reports whether two models induce the same transform: same gene
// count, cuts, and item vocabulary. Sorting is part of the fitted state, so
// plain slice comparison suffices.
func (m *Model) Equal(o *Model) bool {
	if m.numGenes != o.numGenes || len(m.GeneCuts) != len(o.GeneCuts) ||
		len(m.ItemNames) != len(o.ItemNames) || len(m.ClassNames) != len(o.ClassNames) {
		return false
	}
	for g := range m.GeneCuts {
		if !sortedCutsEqual(m.GeneCuts[g], o.GeneCuts[g]) {
			return false
		}
	}
	for i := range m.ItemNames {
		if m.ItemNames[i] != o.ItemNames[i] {
			return false
		}
	}
	for i := range m.ClassNames {
		if m.ClassNames[i] != o.ClassNames[i] {
			return false
		}
	}
	return true
}
