package serve

import "testing"

// FuzzDecodeRequest is the differential fuzz of the classify-request
// decoder: on the three-gene test model, decodeRow must accept exactly the
// bodies the oracle (encoding/json, the request checks, TransformRow, with
// decodeRow's documented deviation) accepts, with the same bits, and never
// panic. testdata/fuzz/FuzzDecodeRequest holds one seed per encoding/json
// quirk decodeRow's doc comment decides.
func FuzzDecodeRequest(f *testing.F) {
	m := decodeModel(testArtifact(f))
	f.Add([]byte(`{"values":[1.5,7,0.3]}`))
	f.Add([]byte(`{"items":["sep[1]","wide[0]"]}`))
	f.Add([]byte(`{"values":[1],"items":["x"]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"values":[1e308,-1e308,0]}`))
	f.Add([]byte(`{"values":[1e999]}`))
	f.Add([]byte(`[1,2,3]`))
	f.Add([]byte(`{nope`))
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		requireSameDecode(t, m, data)
	})
}
