package types

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewWorldRejectsKeyConflicts(t *testing.T) {
	_, err := NewWorld(Leaf{Key: "t1", Score: 1}, Leaf{Key: "t1", Score: 2})
	if err == nil {
		t.Fatal("expected error for two alternatives of the same key")
	}
	// The same alternative twice is fine (idempotent set insert).
	w, err := NewWorld(Leaf{Key: "t1", Score: 1}, Leaf{Key: "t1", Score: 1})
	if err != nil {
		t.Fatalf("duplicate identical alternative should not error: %v", err)
	}
	if w.Len() != 1 {
		t.Fatalf("Len = %d, want 1", w.Len())
	}
}

func TestWorldBasics(t *testing.T) {
	w := MustWorld(Leaf{Key: "b", Score: 2}, Leaf{Key: "a", Score: 5})
	if !w.HasKey("a") || w.HasKey("c") {
		t.Fatal("HasKey wrong")
	}
	if !w.Contains(Leaf{Key: "a", Score: 5}) {
		t.Fatal("Contains should match the exact alternative")
	}
	if w.Contains(Leaf{Key: "a", Score: 6}) {
		t.Fatal("Contains must distinguish alternatives of the same key")
	}
	got := w.Leaves()
	if len(got) != 2 || got[0].Key != "a" || got[1].Key != "b" {
		t.Fatalf("Leaves not sorted by key: %v", got)
	}
	desc := w.ByScoreDesc()
	if desc[0].Key != "a" || desc[1].Key != "b" {
		t.Fatalf("ByScoreDesc wrong: %v", desc)
	}
	if w.String() != "{a(5), b(2)}" {
		t.Fatalf("String = %q", w.String())
	}
}

func TestAddReplaces(t *testing.T) {
	var w World
	if w.Add(Leaf{Key: "x", Score: 1}) {
		t.Fatal("first Add should not report replacement")
	}
	if !w.Add(Leaf{Key: "x", Score: 2}) {
		t.Fatal("second Add of same key should replace")
	}
	if w.Len() != 1 {
		t.Fatalf("Len = %d, want 1", w.Len())
	}
	if l, _ := w.Lookup("x"); l.Score != 2 {
		t.Fatalf("Lookup got %v", l)
	}
}

func TestSymDiffMatchesDefinition(t *testing.T) {
	a := MustWorld(Leaf{Key: "t1", Score: 1}, Leaf{Key: "t2", Score: 2})
	b := MustWorld(Leaf{Key: "t2", Score: 2}, Leaf{Key: "t3", Score: 3})
	if d := SymDiff(a, b); d != 2 {
		t.Fatalf("SymDiff = %d, want 2", d)
	}
	// Different alternatives of the same tuple are different elements.
	c := MustWorld(Leaf{Key: "t1", Score: 9}, Leaf{Key: "t2", Score: 2})
	if d := SymDiff(a, c); d != 2 {
		t.Fatalf("SymDiff across alternatives = %d, want 2", d)
	}
	if d := SymDiff(a, a); d != 0 {
		t.Fatalf("SymDiff(a,a) = %d, want 0", d)
	}
}

func TestJaccard(t *testing.T) {
	a := MustWorld(Leaf{Key: "t1"}, Leaf{Key: "t2"})
	b := MustWorld(Leaf{Key: "t2"}, Leaf{Key: "t3"})
	if d := Jaccard(a, b); d != 2.0/3.0 {
		t.Fatalf("Jaccard = %g, want 2/3", d)
	}
	var empty World
	if d := Jaccard(&empty, &empty); d != 0 {
		t.Fatalf("Jaccard(empty,empty) = %g, want 0", d)
	}
	if d := Jaccard(a, &empty); d != 1 {
		t.Fatalf("Jaccard(a,empty) = %g, want 1", d)
	}
}

func TestTopK(t *testing.T) {
	w := MustWorld(
		Leaf{Key: "t1", Score: 5},
		Leaf{Key: "t2", Score: 9},
		Leaf{Key: "t3", Score: 1},
	)
	got := w.TopK(2)
	if len(got) != 2 || got[0] != "t2" || got[1] != "t1" {
		t.Fatalf("TopK = %v", got)
	}
	if got := w.TopK(10); len(got) != 3 {
		t.Fatalf("TopK(10) = %v, want all 3", got)
	}
	for _, k := range []int{0, -1} {
		if got := w.TopK(k); got == nil || len(got) != 0 {
			t.Fatalf("TopK(%d) = %#v, want an empty answer", k, got)
		}
	}
}

func TestGroupCounts(t *testing.T) {
	w := MustWorld(
		Leaf{Key: "t1", Label: "g1"},
		Leaf{Key: "t2", Label: "g2"},
		Leaf{Key: "t3", Label: "g1"},
	)
	got := w.GroupCounts()
	if got["g1"] != 2 || got["g2"] != 1 {
		t.Fatalf("GroupCounts = %v", got)
	}
}

// randWorld builds a world from a bitmask over a fixed universe of leaves.
func randWorld(mask uint, universe []Leaf) *World {
	w := &World{byKey: map[string]Leaf{}}
	for i, l := range universe {
		if mask&(1<<uint(i)) != 0 {
			w.Add(l)
		}
	}
	return w
}

func testUniverse() []Leaf {
	return []Leaf{
		{Key: "a", Score: 1}, {Key: "b", Score: 2}, {Key: "c", Score: 3},
		{Key: "d", Score: 4}, {Key: "e", Score: 5}, {Key: "f", Score: 6},
	}
}

// Property: symmetric difference is a metric on worlds drawn from a shared
// universe (identity, symmetry, triangle inequality).
func TestSymDiffMetricProperties(t *testing.T) {
	uni := testUniverse()
	f := func(ma, mb, mc uint) bool {
		a := randWorld(ma%64, uni)
		b := randWorld(mb%64, uni)
		c := randWorld(mc%64, uni)
		if SymDiff(a, b) != SymDiff(b, a) {
			return false
		}
		if (SymDiff(a, b) == 0) != a.Equal(b) {
			return false
		}
		return SymDiff(a, c) <= SymDiff(a, b)+SymDiff(b, c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Fatal(err)
	}
}

// Property: Jaccard distance is a metric bounded by [0,1] (the paper notes
// it is a "real metric" satisfying the triangle inequality).
func TestJaccardMetricProperties(t *testing.T) {
	uni := testUniverse()
	f := func(ma, mb, mc uint) bool {
		a := randWorld(ma%64, uni)
		b := randWorld(mb%64, uni)
		c := randWorld(mc%64, uni)
		dab, dbc, dac := Jaccard(a, b), Jaccard(b, c), Jaccard(a, c)
		if dab < 0 || dab > 1 {
			return false
		}
		if dab != Jaccard(b, a) {
			return false
		}
		if (dab == 0) != a.Equal(b) {
			return false
		}
		return dac <= dab+dbc+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(2))}); err != nil {
		t.Fatal(err)
	}
}

func TestFingerprintDistinguishesWorlds(t *testing.T) {
	a := MustWorld(Leaf{Key: "t1", Score: 1})
	b := MustWorld(Leaf{Key: "t1", Score: 2})
	c := MustWorld(Leaf{Key: "t1", Score: 1})
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different alternatives must fingerprint differently")
	}
	if a.Fingerprint() != c.Fingerprint() {
		t.Fatal("equal worlds must fingerprint equally")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	a := MustWorld(Leaf{Key: "t1", Score: 1})
	b := a.Clone()
	b.Add(Leaf{Key: "t2", Score: 2})
	if a.Len() != 1 || b.Len() != 2 {
		t.Fatal("Clone must not share storage")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("clone should equal original")
	}
}
