package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"unicode/utf8"

	"bstc/internal/bitset"
	"bstc/internal/discretize"
)

// Request is the body of POST /v1/classify: one sample, either as the raw
// continuous expression vector (Values, one entry per original gene, run
// through the artifact's discretizer) or as the already-discretized item
// names (Items, as printed by the discretizer, e.g. "g12[1]"). Clients
// marshal it; the server reads bodies with decodeRow, never through this
// type.
type Request struct {
	Values []float64 `json:"values,omitempty"`
	Items  []string  `json:"items,omitempty"`
}

// maxRequestBody bounds how much of a request body the server reads; a
// paper-scale sample (15154 genes as decimal floats) fits comfortably.
const maxRequestBody = 4 << 20

// maxDepth is encoding/json's nesting limit: a body with more containers
// open at once is not JSON to it, so it is not JSON here either.
const maxDepth = 10000

var (
	valuesKey = []byte("values")
	itemsKey  = []byte("items")
)

// decodeRow reads a classify request body straight into a query row over
// this version's item universe, in one pass. The discretizer reads only the
// genes with at least one cut (6% of a paper-scale OC sample), so only
// those values are parsed and binned; every other value has its number
// grammar checked and is skipped. Item names are looked up in itemIdx
// without copying them, unless they hold escapes or invalid UTF-8.
//
// decodeRow accepts and rejects what encoding/json, the request checks and
// discretize.Model.TransformRow did before it (kept as the oracle in
// request_test.go, which FuzzDecodeRequest compares it against), and sets
// the same bits. The encoding/json behaviours it keeps on purpose:
//
//   - the body is one JSON object, with whitespace around it allowed;
//     anything else in it, anywhere, must be valid JSON nested at most
//     maxDepth deep;
//   - keys match case-insensitively under Unicode simple folding ("vAlues",
//     "valueſ") and may be escaped ("v\u0061lues"); other keys are
//     skipped;
//   - of duplicate keys the last wins, "values":null resets the field, and
//     an empty array counts as absent; exactly one of values and items must
//     end up non-empty;
//   - every number is checked, and one out of float64 range ("1e400") is
//     rejected even on a gene the model drops; underflow ("1e-400") reads
//     as 0, and "-0" is accepted;
//   - item names are unescaped as encoding/json does: invalid UTF-8 and
//     lone surrogates become U+FFFD.
//
// One deviation: a null element inside a values or items array is
// rejected. encoding/json leaves that slot as it was — 0, "", or after a
// duplicate key the previous array's value.
func (m *model) decodeRow(body []byte) (*bitset.Set, error) {
	disc := m.art.Disc
	q := bitset.New(disc.NumItems())
	s := scan{b: body}
	s.ws()
	if !s.at('{') {
		return nil, errors.New("request body is not a JSON object")
	}
	// vals and items track each field's last occurrence. written is the
	// offset of the array whose bits q holds: every array clears q before
	// writing, so after duplicates the winner may need a second pass.
	vals, items := field{start: -1}, field{start: -1}
	written := -1
	if _, err := s.list('}', func(int) error {
		k, err := s.key()
		if err != nil {
			return err
		}
		isItems := bytes.EqualFold(k, itemsKey)
		if !isItems && !bytes.EqualFold(k, valuesKey) {
			return s.skip(1)
		}
		f := &vals
		if isItems {
			f = &items
		}
		switch {
		case s.lit("null"):
			*f = field{start: -1}
			return nil
		case !s.at('['):
			return errors.New(`"values" and "items" must be arrays`)
		}
		if written >= 0 {
			q.Clear()
		}
		f.start, written = s.i, s.i
		f.n, f.bad, err = s.array(m, isItems, q)
		return err
	}); err != nil {
		return nil, err
	}
	s.ws()
	if s.i != len(s.b) {
		return nil, s.syntax()
	}

	win, isItems := vals, false
	switch {
	case (vals.n > 0) == (items.n > 0):
		return nil, errors.New(`request needs exactly one of "values" or "items"`)
	case items.n > 0:
		win, isItems = items, true
	case vals.n != disc.NumGenes():
		return nil, fmt.Errorf("request has %d values, model fitted on %d genes", vals.n, disc.NumGenes())
	}
	if win.bad != nil {
		return nil, win.bad
	}
	if win.start != written {
		q.Clear()
		s.i = win.start
		s.array(m, isItems, q) //nolint:errcheck // the first pass accepted it
	}
	return q, nil
}

// field is one request field's last occurrence: the offset of its array
// (-1 when absent or null), its length, and the error that rejects the
// request if this occurrence wins (an empty or unknown item).
type field struct {
	start, n int
	bad      error
}

// scan is the cursor of one decodeRow pass over a body.
type scan struct {
	b []byte
	i int
}

func (s *scan) syntax() error {
	if s.i >= len(s.b) {
		return errors.New("invalid JSON: unexpected end of input")
	}
	return fmt.Errorf("invalid JSON: unexpected %q at offset %d", s.b[s.i], s.i)
}

// at reports whether the next byte is c.
func (s *scan) at(c byte) bool { return s.i < len(s.b) && s.b[s.i] == c }

// ws skips JSON whitespace.
func (s *scan) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// lit moves past the literal w if it comes next.
func (s *scan) lit(w string) bool {
	if len(s.b)-s.i >= len(w) && string(s.b[s.i:s.i+len(w)]) == w {
		s.i += len(w)
		return true
	}
	return false
}

// list reads the array or object at s.i up to its end byte, calling elem
// with s.i on each element (k counts them) and returning how many there
// were.
func (s *scan) list(end byte, elem func(k int) error) (n int, err error) {
	s.i++
	s.ws()
	if s.at(end) {
		s.i++
		return 0, nil
	}
	for ; ; n++ {
		if err := elem(n); err != nil {
			return 0, err
		}
		s.ws()
		if s.at(',') {
			s.i++
			s.ws()
			continue
		}
		if !s.at(end) {
			return 0, s.syntax()
		}
		s.i++
		return n + 1, nil
	}
}

// key reads an object member's key and the colon after it, and returns
// the key's value.
func (s *scan) key() ([]byte, error) {
	start := s.i
	plain, ok := s.str()
	if !ok {
		return nil, s.syntax()
	}
	k := s.b[start+1 : s.i-1]
	if !plain {
		k = unquote(s.b[start:s.i])
	}
	s.ws()
	if !s.at(':') {
		return nil, s.syntax()
	}
	s.i++
	s.ws()
	return k, nil
}

// array reads the values or items array at s.i into q. n is its length;
// bad, the array's first empty or unknown item, rejects the request only
// if this occurrence of the field wins; err rejects it at once.
func (s *scan) array(m *model, items bool, q *bitset.Set) (n int, bad, err error) {
	n, err = s.list(']', func(k int) error {
		if !items {
			return s.value(m.art.Disc, k, q)
		}
		b, err := s.item(m.itemIdx, k, q)
		if bad == nil {
			bad = b
		}
		return err
	})
	return n, bad, err
}

// value reads values[g]. Only a gene the discretizer keeps is parsed and
// binned — and a number big enough that it might overflow, so that every
// value is range-checked.
func (s *scan) value(disc *discretize.Model, g int, q *bitset.Set) error {
	start := s.i
	big, ok := s.number()
	if !ok {
		return fmt.Errorf("values[%d] is not a JSON number", g)
	}
	keep := disc.Keeps(g)
	if !keep && !big {
		return nil
	}
	v, err := strconv.ParseFloat(string(s.b[start:s.i]), 64)
	if err != nil {
		return fmt.Errorf("values[%d] is out of range: %s", g, s.b[start:s.i])
	}
	if keep {
		q.Add(disc.ItemOf(g, v))
	}
	return nil
}

// item reads items[k] into q, or returns in bad why it names no item.
func (s *scan) item(idx map[string]int, k int, q *bitset.Set) (bad, err error) {
	start := s.i
	plain, ok := s.str()
	if !ok {
		return nil, fmt.Errorf("items[%d] is not a JSON string", k)
	}
	name := s.b[start+1 : s.i-1]
	if !plain {
		name = unquote(s.b[start:s.i])
	}
	i, found := idx[string(name)]
	switch {
	case len(name) == 0:
		return fmt.Errorf("items[%d] is empty", k), nil
	case !found:
		return fmt.Errorf("unknown item %q", name), nil
	}
	q.Add(i)
	return nil, nil
}

// number checks the JSON number at s.i and moves past it. big reports
// that its magnitude may reach 1e308: with d integer digits and exponent
// e, the value is below 10^(d+e). The exponent saturates, so the count
// fits a 32-bit int.
func (s *scan) number() (big, ok bool) {
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	if i >= len(b) || b[i]-'0' > 9 {
		return false, false
	}
	digits := 1
	if b[i] == '0' {
		i++
	} else {
		j := i
		i = skipDigits(b, i)
		digits = i - j
	}
	if i < len(b) && b[i] == '.' {
		j := i + 1
		if i = skipDigits(b, j); i == j {
			return false, false
		}
	}
	exp := 0
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		neg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '-' || b[i] == '+') {
			i++
		}
		j := i
		for ; i < len(b) && b[i]-'0' <= 9; i++ {
			if exp < 1<<20 {
				exp = exp*10 + int(b[i]-'0')
			}
		}
		if i == j {
			return false, false
		}
		if neg {
			exp = -exp
		}
	}
	s.i = i
	return digits+exp >= 308, true
}

// skipDigits returns the offset of the first non-digit at or after i.
func skipDigits(b []byte, i int) int {
	for ; i < len(b); i++ {
		if b[i]-'0' > 9 {
			break
		}
	}
	return i
}

// str checks the JSON string at s.i and moves past it. plain reports that
// the bytes between the quotes are its value: no escapes and valid UTF-8.
func (s *scan) str() (plain, ok bool) {
	if !s.at('"') {
		return false, false
	}
	b := s.b
	ascii, escaped := true, false
	for i := s.i + 1; i < len(b); {
		switch c := b[i]; {
		case c == '"':
			plain = !escaped && (ascii || utf8.Valid(b[s.i+1:i]))
			s.i = i + 1
			return plain, true
		case c < 0x20:
			return false, false
		case c == '\\':
			escaped = true
			if i+1 >= len(b) {
				return false, false
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if len(b)-i < 6 || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) || !isHex(b[i+5]) {
					return false, false
				}
				i += 6
			default:
				return false, false
			}
		default:
			if c >= utf8.RuneSelf {
				ascii = false
			}
			i++
		}
	}
	return false, false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote returns the value of a checked JSON string literal as
// encoding/json decodes it. Only names with escapes or invalid UTF-8 take
// this path, so its allocation stays off the common request.
func unquote(lit []byte) []byte {
	var v string
	json.Unmarshal(lit, &v) //nolint:errcheck // str has checked the literal
	return []byte(v)
}

// skip checks any JSON value at s.i and moves past it; depth is how many
// containers are already open around it.
func (s *scan) skip(depth int) error {
	if s.i >= len(s.b) {
		return s.syntax()
	}
	switch c := s.b[s.i]; c {
	case '{', '[':
		if depth >= maxDepth {
			return fmt.Errorf("invalid JSON: nested deeper than %d", maxDepth)
		}
		end := byte(']')
		if c == '{' {
			end = '}'
		}
		_, err := s.list(end, func(int) error {
			if c == '{' {
				if _, err := s.key(); err != nil {
					return err
				}
			}
			return s.skip(depth + 1)
		})
		return err
	case '"':
		if _, ok := s.str(); ok {
			return nil
		}
	case 't', 'f', 'n':
		if s.lit("true") || s.lit("false") || s.lit("null") {
			return nil
		}
	default:
		if _, ok := s.number(); ok {
			return nil
		}
	}
	return s.syntax()
}

// Response is the body of a successful classification. ModelVersion names
// the artifact version that produced it (also sent as X-Model-Version), so
// clients can attribute every answer during a hot swap or canary rollout.
type Response struct {
	Class        string  `json:"class"`
	ClassIndex   int     `json:"class_index"`
	Confidence   float64 `json:"confidence"`
	ModelVersion string  `json:"model_version"`
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}
