package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"bstc/internal/bitset"
	"bstc/internal/dataset"
	"bstc/internal/discretize"
	"bstc/internal/eval"
	"bstc/internal/synth"
)

// decodeRequest, validate and rowOf are the request path decodeRow
// replaced: encoding/json into Request, the request checks, then
// discretize.Model.TransformRow or the item lookup. They are the oracle
// decodeRow is tested against.
func decodeRequest(data []byte) (*Request, error) {
	var req Request
	if err := json.Unmarshal(data, &req); err != nil {
		return nil, fmt.Errorf("invalid JSON: %w", err)
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	if len(req.Values) == 0 {
		req.Values = nil
	}
	if len(req.Items) == 0 {
		req.Items = nil
	}
	return &req, nil
}

func (r *Request) validate() error {
	if (len(r.Values) == 0) == (len(r.Items) == 0) {
		return fmt.Errorf("request needs exactly one of \"values\" or \"items\"")
	}
	for i, v := range r.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("values[%d] is non-finite (%v)", i, v)
		}
	}
	for i, it := range r.Items {
		if it == "" {
			return fmt.Errorf("items[%d] is empty", i)
		}
	}
	return nil
}

func (m *model) rowOf(req *Request) (*bitset.Set, error) {
	if len(req.Values) > 0 {
		return m.art.TransformRow(req.Values)
	}
	q := bitset.New(len(m.art.Classifier.GeneNames))
	for _, name := range req.Items {
		i, ok := m.itemIdx[name]
		if !ok {
			return nil, fmt.Errorf("unknown item %q", name)
		}
		q.Add(i)
	}
	return q, nil
}

// oracleRow is what decodeRow must return for body: the old path, with the
// one deviation decodeRow's doc comment lists applied first.
func (m *model) oracleRow(body []byte) (*bitset.Set, error) {
	if hasNullElement(body) {
		return nil, errors.New("null element in values or items")
	}
	req, err := decodeRequest(body)
	if err != nil {
		return nil, err
	}
	return m.rowOf(req)
}

// hasNullElement reports whether any occurrence of a key encoding/json
// would read as values or items holds an array with a null element.
func hasNullElement(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return false
		}
		key, _ := tok.(string)
		if !strings.EqualFold(key, "values") && !strings.EqualFold(key, "items") {
			continue
		}
		var elems []json.RawMessage
		if json.Unmarshal(raw, &elems) != nil {
			continue
		}
		for _, e := range elems {
			if string(e) == "null" {
				return true
			}
		}
	}
	return false
}

// decodeModel is the serving version the decoder tests run against.
func decodeModel(art *eval.Artifact) *model {
	return &model{art: art, itemIdx: art.Disc.ItemIndex()}
}

// requireSameDecode fails unless decodeRow and the oracle agree on body:
// both reject it, or both accept it with the same bits.
func requireSameDecode(t testing.TB, m *model, body []byte) (accepted bool) {
	t.Helper()
	got, err := m.decodeRow(body)
	want, werr := m.oracleRow(body)
	if (err == nil) != (werr == nil) {
		t.Fatalf("body %q: decodeRow error %v, oracle error %v", body, err, werr)
	}
	if err == nil && !got.Equal(want) {
		t.Fatalf("body %q: decodeRow %v, oracle %v", body, got, want)
	}
	return err == nil
}

// TestDecodeRowQuirks pins each encoding/json behaviour decodeRow keeps
// or departs from (see its doc comment) on the three-gene test model, whose
// middle gene the discretizer drops.
func TestDecodeRowQuirks(t *testing.T) {
	m := decodeModel(testArtifact(t))
	cases := []struct {
		name, body string
		accept     bool
	}{
		{"values", `{"values":[1.5,7,0.3]}`, true},
		{"items", `{"items":["sep[1]","wide[0]"]}`, true},
		{"case-insensitive key", `{"vAlues":[1.5,7,0.3]}`, true},
		{"escaped key", `{"v\u0061lues":[1.5,7,0.3]}`, true},
		{"unicode-folded key", `{"valueſ":[1.5,7,0.3]}`, true},
		{"escaped item", `{"items":["sep\u005b1]"]}`, true},
		{"lone surrogate item", `{"items":["sep[1]\ud800"]}`, false},
		{"duplicate key: last wins", `{"values":[1,2],"values":[1.5,7,0.3]}`, true},
		{"duplicate key: last wins over items", `{"items":["sep[1]"],"values":[8,7,1],"items":[]}`, true},
		{"duplicate key: null resets", `{"values":[1.5,7,0.3],"values":null}`, false},
		{"duplicate key: losing unknown item", `{"items":["nope"],"items":["sep[0]"]}`, true},
		{"both fields", `{"values":[1.5,7,0.3],"items":["sep[1]"]}`, false},
		{"neither field", `{}`, false},
		{"empty arrays", `{"values":[],"items":[]}`, false},
		{"unknown key with nested junk", `{"x":{"a":[1,{"b":null}],"c":"é"},"values":[1.5,7,0.3]}`, true},
		{"overflow on a dropped gene", `{"values":[1.5,1e400,0.3]}`, false},
		{"overflow in a losing array", `{"values":[1e400],"values":[1.5,7,0.3]}`, false},
		{"huge exponent", `{"values":[1.5,1e99999999999,0.3]}`, false},
		{"underflow reads as 0", `{"values":[1e-400,7,0.3]}`, true},
		{"huge negative exponent", `{"values":[1.5,7,1e-99999999999]}`, true},
		{"many integer digits", `{"values":[1.5,` + strings.Repeat("9", 400) + `e-200,0.3]}`, true},
		{"integer overflow by digits", `{"values":[1.5,` + strings.Repeat("9", 309) + `,0.3]}`, false},
		{"negative zero", `{"values":[-0,7,0.3]}`, true},
		{"leading zero", `{"values":[01,7,0.3]}`, false},
		{"trailing comma", `{"values":[1.5,7,0.3,]}`, false},
		{"string value", `{"values":["1",7,0.3]}`, false},
		{"object as values", `{"values":{}}`, false},
		{"number as items", `{"items":[1]}`, false},
		{"trailing garbage", `{"values":[1.5,7,0.3]}x`, false},
		{"surrounding whitespace", " \n\t{ \"values\" : [ 1.5 , 7 , 0.3 ] }\r\n ", true},
		{"invalid UTF-8 item", "{\"items\":[\"sep[1]\xff\"]}", false},
		{"invalid UTF-8 in an unknown key", "{\"\xff\":1,\"values\":[1.5,7,0.3]}", true},
		{"null element", `{"values":[null,7,0.3]}`, false},
		{"null element after a duplicate", `{"values":[5,7,0.3],"values":[null,7,0.3]}`, false},
		{"null item", `{"items":["sep[1]",null]}`, false},
		{"empty item", `{"items":["sep[1]",""]}`, false},
		{"unknown item", `{"items":["nope[9]"]}`, false},
		{"wrong length", `{"values":[1,2]}`, false},
		{"paper-width body", `{"values":[` + strings.Repeat("0.5,", 15153) + `0.5]}`, false},
		{"top-level array", `[1,2,3]`, false},
		{"top-level null", `null`, false},
		{"empty body", ``, false},
		{"bad escape", `{"items":["sep\x[1]"]}`, false},
		{"control character in a string", "{\"items\":[\"sep\t[1]\"]}", false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := requireSameDecode(t, m, []byte(tc.body)); got != tc.accept {
				t.Fatalf("accepted = %v, want %v", got, tc.accept)
			}
		})
	}
}

// TestDecodeRowNestingLimit: an unknown key may nest as deep as
// encoding/json allows and no deeper.
func TestDecodeRowNestingLimit(t *testing.T) {
	m := decodeModel(testArtifact(t))
	for _, depth := range []int{maxDepth - 1, maxDepth} { // plus the top-level object
		body := `{"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"values":[1.5,7,0.3]}`
		if got, want := requireSameDecode(t, m, []byte(body)), depth < maxDepth; got != want {
			t.Fatalf("depth %d: accepted = %v, want %v", depth+1, got, want)
		}
	}
}

// paperOC is the paper-scale OC discretizer fitted on the 80% training
// split of seed 1 (the split the paper-oc benchmark workload serves at
// that seed), with the held-out rows as request bodies.
type decodeFixture struct {
	m      *model
	bodies [][]byte
}

var paperOC = sync.OnceValues(func() (decodeFixture, error) {
	var fx decodeFixture
	p, err := synth.ProfileByName("OC", synth.Paper)
	if err != nil {
		return fx, err
	}
	c, err := p.Generate()
	if err != nil {
		return fx, err
	}
	sp, err := dataset.RandomFractionSplit(rand.New(rand.NewSource(1)), c.NumSamples(), 0.8)
	if err != nil {
		return fx, err
	}
	disc, err := discretize.FitWithWorkers(context.Background(), c.Subset(sp.Train), discretize.EntropyMDL, 2)
	if err != nil {
		return fx, err
	}
	for _, row := range c.Subset(sp.Test).Values {
		b, err := json.Marshal(Request{Values: row})
		if err != nil {
			return fx, err
		}
		fx.bodies = append(fx.bodies, b)
	}
	fx.m = decodeModel(&eval.Artifact{Disc: disc})
	return fx, nil
})

func paperOCModel(tb testing.TB) (*model, [][]byte) {
	tb.Helper()
	fx, err := paperOC()
	if err != nil {
		tb.Fatal(err)
	}
	return fx.m, fx.bodies
}

// TestDecodeRowPaperOC: on every held-out paper-scale OC row, decodeRow
// sets exactly the bits TransformRow does.
func TestDecodeRowPaperOC(t *testing.T) {
	m, bodies := paperOCModel(t)
	if kept, genes := m.art.Disc.NumSelectedGenes(), m.art.Disc.NumGenes(); genes != 15154 || kept == 0 || kept > genes/10 {
		t.Fatalf("paper OC model keeps %d of %d genes", kept, genes)
	}
	for _, b := range bodies {
		if !requireSameDecode(t, m, b) {
			t.Fatal("held-out row rejected")
		}
	}
}

// TestDecodeRowAllocs pins decodeRow on a paper-scale body at the query
// bitset's allocations: the body is scanned in place, names and numbers
// are never copied to the heap.
func TestDecodeRowAllocs(t *testing.T) {
	m, bodies := paperOCModel(t)
	body := bodies[0]
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := m.decodeRow(body); err != nil {
			t.Fatal(err)
		}
	}); allocs != 2 {
		t.Fatalf("decodeRow on a %d-byte body: %v allocs, want 2 (the bitset)", len(body), allocs)
	}
	items := []byte(`{"items":["sep[1]","wide[0]"]}`)
	small := decodeModel(testArtifact(t))
	if allocs := testing.AllocsPerRun(20, func() {
		if _, err := small.decodeRow(items); err != nil {
			t.Fatal(err)
		}
	}); allocs != 2 {
		t.Fatalf("decodeRow on an items body: %v allocs, want 2 (the bitset)", allocs)
	}
}

// BenchmarkDecodeRow decodes the held-out paper-scale OC bodies with the
// serve path's decoder.
func BenchmarkDecodeRow(b *testing.B) {
	m, bodies := paperOCModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.decodeRow(bodies[i%len(bodies)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeRowOracle decodes the same bodies the way the serve path
// did before decodeRow: encoding/json, the request checks, TransformRow.
func BenchmarkDecodeRowOracle(b *testing.B) {
	m, bodies := paperOCModel(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req, err := decodeRequest(bodies[i%len(bodies)])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.rowOf(req); err != nil {
			b.Fatal(err)
		}
	}
}
