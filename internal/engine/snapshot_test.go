package engine

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"repro/internal/graph"
)

// poolsEqual compares two pools' CSR contents exactly (arena sliced to
// the owned paths, so truncated views compare by content).
func mustPoolsEqual(t *testing.T, got, want *Pool) {
	t.Helper()
	if got.total != want.total || got.universe != want.universe {
		t.Fatalf("total/universe: got %d/%d, want %d/%d", got.total, got.universe, want.total, want.universe)
	}
	if !reflect.DeepEqual(got.offsets, want.offsets) {
		t.Fatalf("offsets differ (%d vs %d entries)", len(got.offsets), len(want.offsets))
	}
	if !reflect.DeepEqual(got.pathDraw, want.pathDraw) {
		t.Fatalf("pathDraw differ")
	}
	g := got.arena[:got.offsets[got.NumType1()]]
	w := want.arena[:want.offsets[want.NumType1()]]
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("arena differ (%d vs %d nodes)", len(g), len(w))
	}
}

// snapshotOf serializes the session to bytes.
func snapshotOf(t *testing.T, s *Session) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if got, want := int64(buf.Len()), s.SnapshotSize(); got != want {
		t.Fatalf("snapshot is %d bytes, SnapshotSize said %d", got, want)
	}
	return buf.Bytes()
}

func TestSessionSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	in := testInstance(t)
	const l = 3*ChunkSize + 700 // several full chunks plus a partial tail

	fresh := New(in).NewSession(5, 4)
	want, err := fresh.Pool(ctx, l)
	if err != nil {
		t.Fatal(err)
	}
	data := snapshotOf(t, fresh)

	loaded, err := OpenSession(New(in), bytes.NewReader(data), 4)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Seed() != 5 {
		t.Fatalf("Seed = %d, want 5", loaded.Seed())
	}
	got, err := loaded.Pool(ctx, l)
	if err != nil {
		t.Fatal(err)
	}
	mustPoolsEqual(t, got, want)

	// The loaded session's chunk tables must equal the writer's, so a
	// re-snapshot is byte-identical.
	if again := snapshotOf(t, loaded); !bytes.Equal(again, data) {
		t.Fatal("snapshot of a loaded session differs from the original")
	}

	// Loading consumed no sampling: the engine ledger stays at zero.
	if d := loaded.eng.PoolDraws(); d != 0 {
		t.Fatalf("loading charged %d pool draws", d)
	}
}

func TestSessionSnapshotGrowthAfterLoad(t *testing.T) {
	ctx := context.Background()
	in := testInstance(t)
	const small, big = ChunkSize + 300, 4*ChunkSize + 100

	fresh := New(in).NewSession(9, 3)
	if _, err := fresh.Pool(ctx, small); err != nil {
		t.Fatal(err)
	}
	data := snapshotOf(t, fresh)
	loaded, err := OpenSession(New(in), bytes.NewReader(data), 3)
	if err != nil {
		t.Fatal(err)
	}

	// Growth past the snapshot must resample only the missing draws and
	// land on the same pool a never-snapshotted session produces.
	got, err := loaded.Pool(ctx, big)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Pool(ctx, big)
	if err != nil {
		t.Fatal(err)
	}
	mustPoolsEqual(t, got, want)
	// The loaded session pays only the net growth: the snapshotted prefix
	// includes a partial trailing chunk whose regrow re-derives existing
	// draws without re-charging them.
	if d := loaded.eng.PoolDraws(); d != big-small {
		t.Fatalf("growth charged %d draws, want %d", d, big-small)
	}
}

// TestTruncateOverLoadedPool is the prefix-purity property over the
// snapshot path: for every l, querying the loaded pool truncated to l
// must equal querying a pool freshly sampled at exactly l — estimates,
// coverage counts and the set-cover family all agree.
func TestTruncateOverLoadedPool(t *testing.T) {
	ctx := context.Background()
	in := testInstance(t)
	const full = 2*ChunkSize + 512

	fresh := New(in).NewSession(13, 2)
	if _, err := fresh.Pool(ctx, full); err != nil {
		t.Fatal(err)
	}
	loaded, err := OpenSession(New(in), bytes.NewReader(snapshotOf(t, fresh)), 2)
	if err != nil {
		t.Fatal(err)
	}

	invited := graph.NewNodeSetOf(in.Graph().NumNodes(), in.T())
	for _, v := range in.Graph().Neighbors(in.T()) {
		invited.Add(v)
	}
	for _, l := range []int64{1, 37, 1000, ChunkSize, ChunkSize + 1, 2 * ChunkSize, full - 1, full} {
		ref, err := New(in).NewSession(13, 2).Pool(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		view, err := loaded.Pool(ctx, l)
		if err != nil {
			t.Fatal(err)
		}
		mustPoolsEqual(t, view, ref)
		if got, want := view.EstimateF(invited), ref.EstimateF(invited); got != want {
			t.Errorf("l=%d: EstimateF %v != %v", l, got, want)
		}
		if got, want := view.FractionType1(), ref.FractionType1(); got != want {
			t.Errorf("l=%d: FractionType1 %v != %v", l, got, want)
		}
		gf, err := view.Family()
		if err != nil {
			t.Fatal(err)
		}
		wf, err := ref.Family()
		if err != nil {
			t.Fatal(err)
		}
		if gf.NumSets() != wf.NumSets() {
			t.Errorf("l=%d: family sets %d != %d", l, gf.NumSets(), wf.NumSets())
		}
	}
}

func TestRestoreValidation(t *testing.T) {
	ctx := context.Background()
	in := testInstance(t)
	fresh := New(in).NewSession(3, 1)
	if _, err := fresh.Pool(ctx, 1000); err != nil {
		t.Fatal(err)
	}
	data := snapshotOf(t, fresh)

	t.Run("matching", func(t *testing.T) {
		s := New(in).NewSession(3, 1)
		if err := s.Restore(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		if s.Size() != 1000 {
			t.Fatalf("Size = %d", s.Size())
		}
	})
	t.Run("wrong-seed", func(t *testing.T) {
		s := New(in).NewSession(4, 1)
		if err := s.Restore(bytes.NewReader(data)); err == nil {
			t.Fatal("restore with mismatched seed succeeded")
		}
	})
	t.Run("wrong-namespace", func(t *testing.T) {
		s := New(in).NewEvalSession(3, 1)
		if err := s.Restore(bytes.NewReader(data)); err == nil {
			t.Fatal("restore of a solve snapshot into an eval session succeeded")
		}
	})
	t.Run("non-empty", func(t *testing.T) {
		s := New(in).NewSession(3, 1)
		if _, err := s.Pool(ctx, 10); err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(bytes.NewReader(data)); err == nil {
			t.Fatal("restore into a sampled session succeeded")
		}
	})
	t.Run("wrong-universe", func(t *testing.T) {
		other := mustInstance(t, line(6), 0, 5)
		if _, err := OpenSession(New(other), bytes.NewReader(data), 1); err == nil {
			t.Fatal("open against a different instance succeeded")
		}
	})
	t.Run("same-size-different-graph", func(t *testing.T) {
		// Same node count and seed, different edges: the instance
		// fingerprint must reject the snapshot — adopting pools sampled
		// on another graph would silently produce wrong answers.
		other := mustInstance(t, randomConnected(99, 30, 40), 0, 29)
		if _, err := OpenSession(New(other), bytes.NewReader(data), 1); err == nil {
			t.Fatal("open against a different same-size graph succeeded")
		}
	})
	t.Run("corrupted", func(t *testing.T) {
		bad := bytes.Clone(data)
		bad[len(bad)/2] ^= 1
		s := New(in).NewSession(3, 1)
		if err := s.Restore(bytes.NewReader(bad)); err == nil {
			t.Fatal("restore of corrupted bytes succeeded")
		}
		// The failed restore must leave the session usable and cold.
		if s.Size() != 0 {
			t.Fatalf("failed restore left %d draws", s.Size())
		}
		if _, err := s.Pool(ctx, 500); err != nil {
			t.Fatal(err)
		}
	})
}

func TestSnapshotEmptySession(t *testing.T) {
	in := testInstance(t)
	s := New(in).NewSession(8, 1)
	data := snapshotOf(t, s)
	loaded, err := OpenSession(New(in), bytes.NewReader(data), 1)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Size() != 0 {
		t.Fatalf("Size = %d, want 0", loaded.Size())
	}
	if _, err := loaded.Pool(context.Background(), 100); err != nil {
		t.Fatal(err)
	}
}
