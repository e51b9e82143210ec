package bitset

import (
	"math/rand"
	"testing"
)

// TestDestinationKernels checks the Into/CopyFrom kernels against their
// allocating counterparts on random sets, including aliased destinations.
func TestDestinationKernels(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(300)
		s, u := randomSet(r, n), randomSet(r, n)
		dst := New(n)

		if got, want := s.IntersectInto(dst, u), Intersect(s, u); !got.Equal(want) {
			t.Fatalf("IntersectInto = %v, want %v", got, want)
		}
		if got, want := s.OrInto(dst, u), Union(s, u); !got.Equal(want) {
			t.Fatalf("OrInto = %v, want %v", got, want)
		}
		if got, want := s.AndNotInto(dst, u), Difference(s, u); !got.Equal(want) {
			t.Fatalf("AndNotInto = %v, want %v", got, want)
		}

		// Aliased destination: dst == s must behave like the in-place op.
		alias := s.Clone()
		if got, want := alias.IntersectInto(alias, u), Intersect(s, u); !got.Equal(want) {
			t.Fatalf("aliased IntersectInto = %v, want %v", got, want)
		}
		alias = s.Clone()
		if got, want := alias.OrInto(alias, u), Union(s, u); !got.Equal(want) {
			t.Fatalf("aliased OrInto = %v, want %v", got, want)
		}
		alias = s.Clone()
		if got, want := alias.AndNotInto(alias, u), Difference(s, u); !got.Equal(want) {
			t.Fatalf("aliased AndNotInto = %v, want %v", got, want)
		}

		dst.CopyFrom(s)
		if !dst.Equal(s) {
			t.Fatalf("CopyFrom = %v, want %v", dst, s)
		}
		// CopyFrom is a copy, not a share: mutating dst leaves s alone.
		snapshot := s.Clone()
		dst.Complement()
		if !s.Equal(snapshot) {
			t.Fatal("CopyFrom shared storage with its source")
		}
	}
}

func TestKernelsUniverseMismatchPanics(t *testing.T) {
	s, u := New(10), New(20)
	for name, fn := range map[string]func(){
		"IntersectInto": func() { s.IntersectInto(New(10), u) },
		"OrInto":        func() { s.OrInto(New(20), u) },
		"AndNotInto":    func() { New(20).AndNotInto(s, New(20)) },
		"CopyFrom":      func() { s.CopyFrom(u) },
		"Take":          func() { s.Take(u, func(int) {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: universe mismatch did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestAppendKeyMatchesKey pins AppendKey and Key to the same bytes, with
// AppendKey honoring existing dst contents.
func TestAppendKeyMatchesKey(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		s := randomSet(r, 1+r.Intn(300))
		if got := string(s.AppendKey(nil)); got != s.Key() {
			t.Fatalf("AppendKey bytes differ from Key for %v", s)
		}
		withPrefix := s.AppendKey([]byte("pfx"))
		if string(withPrefix) != "pfx"+s.Key() {
			t.Fatalf("AppendKey did not append after existing contents")
		}
	}
}

// TestAppendKeyNoAllocWithCapacity pins the zero-allocation contract the
// miner's states-map keying relies on.
func TestAppendKeyNoAllocWithCapacity(t *testing.T) {
	s := FromIndices(200, 3, 64, 150)
	buf := make([]byte, 0, 32)
	if n := testing.AllocsPerRun(100, func() {
		buf = s.AppendKey(buf[:0])
	}); n != 0 {
		t.Errorf("AppendKey with spare capacity allocates %v times per run", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = s.Key()
	}); n > 1 {
		t.Errorf("Key allocates %v times per run, want at most 1", n)
	}
}

// TestTake pins Take on a hand-built case spanning a tail word: it removes
// exactly s ∩ t, reports those elements in ascending order, and says
// whether anything is left.
func TestTake(t *testing.T) {
	s := FromIndices(130, 1, 63, 64, 100, 129)
	var got []int
	if s.Take(FromIndices(130, 0, 63, 100, 129), func(i int) { got = append(got, i) }) {
		t.Fatal("Take reported empty with 1 and 64 left")
	}
	if want := []int{63, 100, 129}; !equalInts(got, want) {
		t.Fatalf("Take removed %v, want %v", got, want)
	}
	if want := FromIndices(130, 1, 64); !s.Equal(want) {
		t.Fatalf("after Take s = %v, want %v", s, want)
	}
	got = got[:0]
	if !s.Take(FromIndices(130, 1, 64, 65), func(i int) { got = append(got, i) }) {
		t.Fatal("Take did not report empty after removing the last elements")
	}
	if want := []int{1, 64}; !equalInts(got, want) {
		t.Fatalf("Take removed %v, want %v", got, want)
	}
	if !New(0).Take(New(0), func(int) { t.Fatal("fn called on an empty universe") }) {
		t.Fatal("empty universe is not empty after Take")
	}
}

// TestQuickTakeMatchesForEachAndNot is the property test: on random sets,
// including universes with a partial tail word, Take reports the elements
// ForEach finds in s ∩ t, leaves s \ t behind, and reports emptiness the
// way IsEmpty does.
func TestQuickTakeMatchesForEachAndNot(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		n := r.Intn(300)
		if trial%3 == 0 {
			n = 64 * r.Intn(5) // whole words only
		}
		s, u := randomSet(r, n), randomSet(r, n)
		if trial%5 == 0 {
			u = s.Clone().Or(randomSet(r, n)) // u ⊇ s: s must end empty
		}
		var want []int
		Intersect(s, u).ForEach(func(i int) bool { want = append(want, i); return true })
		rest := Difference(s, u)

		var got []int
		empty := s.Take(u, func(i int) { got = append(got, i) })
		if !equalInts(got, want) {
			t.Fatalf("n=%d: Take removed %v, want %v", n, got, want)
		}
		if !s.Equal(rest) {
			t.Fatalf("n=%d: after Take s = %v, want %v", n, s, rest)
		}
		if empty != rest.IsEmpty() {
			t.Fatalf("n=%d: Take reported empty=%v, IsEmpty=%v", n, empty, rest.IsEmpty())
		}
		checkInvariants(t, "Take", s)
	}
}

func equalInts(a, b []int) bool {
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
