package rng

import (
	"fmt"
	"testing"
)

func TestDerive(t *testing.T) {
	if Derive(5, 1) == Derive(5, 2) {
		t.Error("streams collide")
	}
	if Derive(5, 1) != Derive(5, 1) {
		t.Error("Derive not deterministic")
	}
	if Derive(5, 1) == Derive(6, 1) {
		t.Error("seeds collide")
	}
	r1 := DeriveRand(5, 3)
	r2 := DeriveRand(5, 3)
	for i := 0; i < 10; i++ {
		if r1.Uint64() != r2.Uint64() {
			t.Fatal("DeriveRand streams diverged")
		}
	}
}

// TestDeriveStreamNamespacing: indexed stream families from different
// namespaces must not collide even with a shared root seed — the bug this
// guards against is two sampling phases consuming identical streams.
func TestDeriveStreamNamespacing(t *testing.T) {
	const seed = 42
	seen := map[int64]string{}
	for _, ns := range []uint64{0x506F6F4C, 0x45737446, 0x4576616C} {
		for idx := uint64(0); idx < 100; idx++ {
			v := DeriveStream(seed, ns, idx)
			if prev, ok := seen[v]; ok {
				t.Fatalf("stream seed collision: (ns=%#x, idx=%d) vs %s", ns, idx, prev)
			}
			seen[v] = fmt.Sprintf("(ns=%#x, idx=%d)", ns, idx)
		}
	}
	if DeriveStream(1, 2, 3) != DeriveStream(1, 2, 3) {
		t.Error("DeriveStream not deterministic")
	}
	if DeriveStream(1, 2, 3) == Derive(1, 3) {
		t.Error("namespaced stream equals un-namespaced Derive")
	}
}
