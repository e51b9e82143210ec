package discretize

import (
	"bytes"
	"encoding/gob"
	"math"
	"reflect"
	"testing"

	"bstc/internal/dataset"
)

func persistTestData() *dataset.Continuous {
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

// saveV1 encodes m as the gob stream v1 artifacts embed, the input
// LoadModel reads.
func saveV1(t *testing.T, m *Model) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(modelDTO{
		Version:    modelFormatVersion,
		NumGenes:   m.numGenes,
		GeneCuts:   m.GeneCuts,
		ItemNames:  m.ItemNames,
		ClassNames: m.ClassNames,
	}); err != nil {
		t.Fatal(err)
	}
	return &buf
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	c := persistTestData()
	m, err := Fit(c)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(saveV1(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Equal(loaded) {
		t.Fatalf("loaded model differs: %+v vs %+v", m, loaded)
	}
	// The transform — the behaviour persistence must preserve — is
	// byte-identical on both datasets and per-row queries.
	want, err := m.Transform(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Transform(c)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Rows {
		if !want.Rows[i].Equal(got.Rows[i]) {
			t.Fatalf("row %d transform differs after round trip", i)
		}
		row, err := loaded.TransformRow(c.Values[i])
		if err != nil {
			t.Fatal(err)
		}
		if !want.Rows[i].Equal(row) {
			t.Fatalf("row %d TransformRow differs from batch Transform", i)
		}
	}
}

func TestTransformRowErrors(t *testing.T) {
	m, err := Fit(persistTestData())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.TransformRow([]float64{1, 2}); err == nil {
		t.Error("short row should error")
	}
	if _, err := m.TransformRow([]float64{1, 2, math.NaN()}); err == nil {
		t.Error("NaN value should error")
	}
	if _, err := m.TransformRow([]float64{1, math.Inf(1), 3}); err == nil {
		t.Error("Inf value should error")
	}
}

func TestItemIndex(t *testing.T) {
	m, err := Fit(persistTestData())
	if err != nil {
		t.Fatal(err)
	}
	idx := m.ItemIndex()
	if len(idx) != m.NumItems() {
		t.Fatalf("index has %d entries for %d items", len(idx), m.NumItems())
	}
	for i, n := range m.ItemNames {
		if idx[n] != i {
			t.Fatalf("item %q indexed at %d, want %d", n, idx[n], i)
		}
	}
}

func TestLoadModelRejectsCorruptStreams(t *testing.T) {
	m, err := Fit(persistTestData())
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(name string, mutate func(*modelDTO)) {
		t.Helper()
		dto := modelDTO{
			Version:    modelFormatVersion,
			NumGenes:   m.numGenes,
			GeneCuts:   append([][]float64(nil), m.GeneCuts...),
			ItemNames:  append([]string(nil), m.ItemNames...),
			ClassNames: m.ClassNames,
		}
		mutate(&dto)
		if _, err := modelFromDTO(dto); err == nil {
			t.Errorf("%s: corrupt model accepted", name)
		}
	}
	corrupt("bad version", func(d *modelDTO) { d.Version = 99 })
	corrupt("gene count mismatch", func(d *modelDTO) { d.NumGenes++ })
	corrupt("item arity mismatch", func(d *modelDTO) { d.ItemNames = d.ItemNames[1:] })
	corrupt("NaN cut", func(d *modelDTO) { d.GeneCuts[0] = []float64{math.NaN()} })
	corrupt("unsorted cuts", func(d *modelDTO) {
		d.GeneCuts[0] = []float64{2, 1}
		d.ItemNames = append(d.ItemNames, "extra")
	})
	if _, err := LoadModel(bytes.NewReader([]byte("not a gob stream"))); err == nil {
		t.Error("garbage stream should error")
	}
}

func TestLoadModelRebuildsDerivedFields(t *testing.T) {
	m, err := Fit(persistTestData())
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(saveV1(t, m))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Selected, loaded.Selected) {
		t.Errorf("Selected = %v, want %v", loaded.Selected, m.Selected)
	}
	if !reflect.DeepEqual(m.itemBase, loaded.itemBase) {
		t.Errorf("itemBase = %v, want %v", loaded.itemBase, m.itemBase)
	}
	if !reflect.DeepEqual(m.slot, loaded.slot) {
		t.Errorf("slot = %v, want %v", loaded.slot, m.slot)
	}
}
