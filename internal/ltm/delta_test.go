package ltm

import (
	"errors"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/weights"
)

func TestInstanceApplyDelta(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	b.AddEdge(4, 5)
	g := b.Build()
	in, err := NewInstance(g, weights.NewDegree(g), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	_ = in.Plan() // compile, so ApplyDelta takes the incremental path

	d := &graph.Delta{Add: []graph.Edge{{U: 1, V: 4}}}
	g2, dirty, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	next, err := in.ApplyDelta(g2, dirty, nil)
	if err != nil {
		t.Fatal(err)
	}
	if next.Graph() != g2 || next.S() != 0 || next.T() != 5 {
		t.Fatal("next instance misbound")
	}
	// The rebuilt plan must agree draw-for-draw with a fresh compile.
	fresh, err := NewInstance(g2, weights.NewDegree(g2), 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g2.NumNodes(); v++ {
		st1 := rng.DerivedStream(3, 9, uint64(v))
		st2 := rng.DerivedStream(3, 9, uint64(v))
		for i := 0; i < 30; i++ {
			u1, ok1 := next.Plan().Sample(graph.Node(v), &st1)
			u2, ok2 := fresh.Plan().Sample(graph.Node(v), &st2)
			if u1 != u2 || ok1 != ok2 {
				t.Fatalf("Sample(%d) draw %d diverges", v, i)
			}
		}
	}
	// The old instance is untouched.
	if in.Graph() != g || in.Graph().HasEdge(1, 4) {
		t.Error("ApplyDelta mutated the receiver")
	}
}

// TestRebindToBeforePlan: rebinding an instance whose plan was never
// compiled must leave it compilable. A query still running on the old
// epoch may sample through it after a delta rebinds its pair.
func TestRebindToBeforePlan(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 4)
	g := b.Build()
	in, err := NewInstance(g, weights.NewDegree(g), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	d := &graph.Delta{Add: []graph.Edge{{U: 1, V: 3}}}
	g2, dirty, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	next, err := in.RebindTo(g2, weights.NewDegree(g2), dirty)
	if err != nil {
		t.Fatal(err)
	}
	if in.Plan() == nil || next.Plan() == nil {
		t.Fatalf("plan missing after RebindTo: old %v, new %v", in.Plan() != nil, next.Plan() != nil)
	}
}

func TestInstanceApplyDeltaDissolves(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	in, err := NewInstance(g, weights.NewDegree(g), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := &graph.Delta{Add: []graph.Edge{{U: 0, V: 3}}}
	g2, dirty, err := d.Apply(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := in.ApplyDelta(g2, dirty, nil); !errors.Is(err, ErrBadInstance) {
		t.Errorf("s-t edge delta: err = %v, want ErrBadInstance", err)
	}
}

func TestInstanceDirty(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.Build()
	in, err := NewInstance(g, weights.NewDegree(g), 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Dirty([]graph.Node{1, 3}) {
		t.Error("target in dirty set not detected")
	}
	if in.Dirty([]graph.Node{1, 2}) {
		t.Error("interior nodes flagged the instance dirty")
	}
}
