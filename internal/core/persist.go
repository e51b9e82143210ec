package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"bstc/internal/bitset"
)

// Model persistence: a trained Classifier serializes to a self-contained
// gob stream so the CLI (and any downstream service) can train once and
// classify many times without re-reading the training data.
//
// The exported Export/BuildClassifier pair is the format-agnostic half:
// it flattens a classifier into plain exported data (and validates and
// reassembles one from it), so alternative encodings — the gob stream
// here, internal/eval's flat memory-mappable v2 layout — share one
// construction and validation path.

// persistFormatVersion guards against reading streams written by an
// incompatible layout.
const persistFormatVersion = 1

// The gob DTO types below ARE the v1 wire format (gob encodes their names
// and field sets); do not rename or reorder them. They mirror TableData /
// ClassifierData, which new encodings should use instead.

type classifierDTO struct {
	Version    int
	ClassNames []string
	GeneNames  []string
	Opts       EvalOptions
	Tables     []bstDTO
}

type bstDTO struct {
	Class          int
	ClassSamples   []int
	OutsideSamples []int
	NumGenes       int
	ColGenes       []*bitset.Set
	Exclusive      []bool
	GeneOutside    []*bitset.Set
	// Streams written before the exclusion lists were derived also carry
	// the flattened pair lists; gob skips fields the type lacks.
}

// TableData is the serializable content of one BST: every field a save
// format must persist. Derived evaluation state — the outside rows, the
// per-pair intersection sizes, cull orders, rank directories — is
// intentionally absent: BuildClassifier rebuilds it, taking each table's
// outside rows from the other tables' column sets.
type TableData struct {
	Class          int
	ClassSamples   []int
	OutsideSamples []int
	NumGenes       int
	ColGenes       []*bitset.Set
	Exclusive      []bool
	GeneOutside    []*bitset.Set
}

// ClassifierData is the serializable content of a whole Classifier.
type ClassifierData struct {
	ClassNames []string
	GeneNames  []string
	Opts       EvalOptions
	Tables     []TableData
}

// Export flattens the classifier into plain exported data. The bitsets are
// shared, not copied: treat the result as read-only while the classifier
// is live.
func (cl *Classifier) Export() ClassifierData {
	d := ClassifierData{
		ClassNames: cl.ClassNames,
		GeneNames:  cl.GeneNames,
		Opts:       cl.Opts,
	}
	for _, t := range cl.Tables {
		d.Tables = append(d.Tables, TableData{
			Class:          t.Class,
			ClassSamples:   t.ClassSamples,
			OutsideSamples: t.OutsideSamples,
			NumGenes:       t.numGenes,
			ColGenes:       t.colGenes,
			Exclusive:      t.exclusive,
			GeneOutside:    t.geneOutside,
		})
	}
	return d
}

// BuildClassifier validates flattened classifier data — which may come
// from an untrusted stream or a mapped file — and assembles a ready
// classifier around it, rebuilding all derived evaluation state. The
// bitsets are adopted, not copied, so a caller holding zero-copy views
// onto a mapping pays nothing for the heavy part; they may be frozen
// (classification never mutates table sets).
func BuildClassifier(d ClassifierData) (*Classifier, error) {
	if len(d.ClassNames) == 0 || len(d.Tables) != len(d.ClassNames) {
		return nil, fmt.Errorf("core: classifier has %d tables for %d classes", len(d.Tables), len(d.ClassNames))
	}
	if a := d.Opts.Arithmetization; a != MinCombine && a != ProductCombine {
		return nil, fmt.Errorf("core: unknown arithmetization %d", a)
	}
	cl := &Classifier{
		ClassNames: d.ClassNames,
		GeneNames:  d.GeneNames,
		Opts:       d.Opts,
	}
	// The tables' class samples must partition the training samples: the
	// derived outside rows of each table are the other tables' columns.
	n := 0
	for _, b := range d.Tables {
		n += len(b.ClassSamples)
	}
	rows := make([]*bitset.Set, n)
	for _, b := range d.Tables {
		t, err := buildTable(b, len(d.GeneNames))
		if err != nil {
			return nil, err
		}
		for c, si := range b.ClassSamples {
			if si < 0 || si >= n || rows[si] != nil {
				return nil, fmt.Errorf("core: model table %d sample %d is out of range or in two tables", b.Class, si)
			}
			rows[si] = b.ColGenes[c]
		}
		cl.Tables = append(cl.Tables, t)
	}
	for _, t := range cl.Tables {
		if err := t.linkOutside(rows); err != nil {
			return nil, err
		}
	}
	return cl, nil
}

// buildTable checks one table's internal consistency — counts, universes,
// no nil sets — strictly enough that evaluation can never hit a universe
// mismatch panic on data that passed here.
func buildTable(b TableData, numGenes int) (*BST, error) {
	nc, nh := len(b.ClassSamples), len(b.OutsideSamples)
	switch {
	case b.NumGenes != numGenes:
		return nil, fmt.Errorf("core: model table %d spans %d genes, classifier has %d", b.Class, b.NumGenes, numGenes)
	case nc == 0:
		return nil, fmt.Errorf("core: model table %d has no class samples", b.Class)
	case len(b.ColGenes) != nc:
		return nil, fmt.Errorf("core: model table %d has %d column sets for %d columns", b.Class, len(b.ColGenes), nc)
	case len(b.Exclusive) != b.NumGenes:
		return nil, fmt.Errorf("core: model table %d has %d exclusive flags for %d genes", b.Class, len(b.Exclusive), b.NumGenes)
	case len(b.GeneOutside) != b.NumGenes:
		return nil, fmt.Errorf("core: model table %d has %d outside sets for %d genes", b.Class, len(b.GeneOutside), b.NumGenes)
	}
	for c, s := range b.ColGenes {
		if s == nil || s.Len() != b.NumGenes {
			return nil, fmt.Errorf("core: model table %d column %d gene set has universe %s, want %d",
				b.Class, c, setLen(s), b.NumGenes)
		}
	}
	for g, s := range b.GeneOutside {
		if s == nil || s.Len() != nh {
			return nil, fmt.Errorf("core: model table %d gene %d outside set has universe %s, want %d",
				b.Class, g, setLen(s), nh)
		}
	}
	return &BST{
		Class:          b.Class,
		ClassSamples:   b.ClassSamples,
		OutsideSamples: b.OutsideSamples,
		numGenes:       b.NumGenes,
		colGenes:       b.ColGenes,
		exclusive:      b.Exclusive,
		geneOutside:    b.GeneOutside,
	}, nil
}

func setLen(s *bitset.Set) string {
	if s == nil {
		return "nil"
	}
	return fmt.Sprintf("%d", s.Len())
}

// Save writes the classifier to w.
func (cl *Classifier) Save(w io.Writer) error {
	d := cl.Export()
	dto := classifierDTO{
		Version:    persistFormatVersion,
		ClassNames: d.ClassNames,
		GeneNames:  d.GeneNames,
		Opts:       d.Opts,
	}
	for _, t := range d.Tables {
		dto.Tables = append(dto.Tables, bstDTO(t))
	}
	return gob.NewEncoder(w).Encode(dto)
}

// LoadClassifier reads a classifier previously written by Save.
func LoadClassifier(r io.Reader) (*Classifier, error) {
	var dto classifierDTO
	if err := gob.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("core: load classifier: %w", err)
	}
	if dto.Version != persistFormatVersion {
		return nil, fmt.Errorf("core: model format version %d, want %d", dto.Version, persistFormatVersion)
	}
	d := ClassifierData{
		ClassNames: dto.ClassNames,
		GeneNames:  dto.GeneNames,
		Opts:       dto.Opts,
	}
	for _, b := range dto.Tables {
		d.Tables = append(d.Tables, TableData(b))
	}
	cl, err := BuildClassifier(d)
	if err != nil {
		return nil, fmt.Errorf("core: load classifier: %w", err)
	}
	return cl, nil
}
