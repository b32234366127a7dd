package ltm

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/weights"
)

// line builds the path graph s=0 - 1 - 2 - ... - (n-1)=t.
func line(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.Node(i), graph.Node(i+1))
	}
	return b.Build()
}

func mustInstance(t *testing.T, g *graph.Graph, s, tt graph.Node) *Instance {
	t.Helper()
	in, err := NewInstance(g, weights.NewDegree(g), s, tt)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNewInstanceValidation(t *testing.T) {
	g := line(4)
	w := weights.NewDegree(g)
	cases := []struct {
		name string
		s, t graph.Node
	}{
		{"s out of range", -1, 2},
		{"t out of range", 0, 99},
		{"s equals t", 2, 2},
		{"already friends", 0, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewInstance(g, w, tc.s, tc.t); !errors.Is(err, ErrBadInstance) {
				t.Errorf("err = %v, want ErrBadInstance", err)
			}
		})
	}
	if _, err := NewInstance(g, nil, 0, 3); !errors.Is(err, ErrBadInstance) {
		t.Errorf("nil scheme err = %v", err)
	}
	in, err := NewInstance(g, w, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if in.S() != 0 || in.T() != 3 {
		t.Error("accessor mismatch")
	}
	if len(in.InitialFriends()) != 1 || in.InitialFriends()[0] != 1 {
		t.Errorf("InitialFriends = %v, want [1]", in.InitialFriends())
	}
}

// On the line 0-1-2-3 with degree weights, node 2 has degree 2 so
// w(1,2) = 1/2; node 3 has degree 1 so w(2,3) = 1. Inviting {2,3}:
// 2 activates with prob 1/2 (θ_2 ≤ 1/2), then 3 activates surely.
// Hence f({2,3}) = 1/2 exactly.
func TestSimulateLineExactProbability(t *testing.T) {
	g := line(4)
	in := mustInstance(t, g, 0, 3)
	invited := graph.NewNodeSetOf(4, 2, 3)
	st := rng.NewStream(7)
	sc := NewSimScratch(in)
	const trials = 200000
	wins := 0
	for i := 0; i < trials; i++ {
		if in.SimulateOnce(invited, &st, sc, nil) {
			wins++
		}
	}
	got := float64(wins) / trials
	if math.Abs(got-0.5) > 0.005 {
		t.Errorf("f({2,3}) ≈ %v, want 0.5", got)
	}
}

func TestSimulateRequiresInvitedTarget(t *testing.T) {
	g := line(4)
	in := mustInstance(t, g, 0, 3)
	// Invite everything except t: must always fail.
	invited := graph.NewNodeSetOf(4, 1, 2)
	st := rng.NewStream(1)
	for i := 0; i < 1000; i++ {
		if in.SimulateOnce(invited, &st, nil, nil) {
			t.Fatal("succeeded without inviting the target")
		}
	}
}

func TestSimulateEmptyInvitation(t *testing.T) {
	g := line(4)
	in := mustInstance(t, g, 0, 3)
	invited := graph.NewNodeSet(4)
	st := rng.NewStream(1)
	for i := 0; i < 100; i++ {
		if in.SimulateOnce(invited, &st, nil, nil) {
			t.Fatal("succeeded with empty invitation set")
		}
	}
}

func TestSimulateDisconnected(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1)
	b.AddEdge(3, 4)
	g := b.Build()
	in := mustInstance(t, g, 0, 4)
	invited := graph.NewNodeSet(5)
	invited.Fill()
	st := rng.NewStream(1)
	for i := 0; i < 200; i++ {
		if in.SimulateOnce(invited, &st, nil, nil) {
			t.Fatal("succeeded across disconnected components")
		}
	}
}

func TestSimulateScratchFriends(t *testing.T) {
	// Triangle fan: s=0 friends with 1; 1-2, 2-3=t. Invite {2,3}; when it
	// succeeds the new-friend set must be exactly {2,3}.
	g := line(4)
	in := mustInstance(t, g, 0, 3)
	invited := graph.NewNodeSetOf(4, 2, 3)
	friends := graph.NewNodeSet(4)
	st := rng.NewStream(3)
	sc := NewSimScratch(in)
	sawSuccess := false
	for i := 0; i < 500 && !sawSuccess; i++ {
		if in.SimulateOnce(invited, &st, sc, friends) {
			sawSuccess = true
			if !friends.Contains(2) || !friends.Contains(3) {
				t.Errorf("friend set = %v, want {2,3}", friends.Members())
			}
			if friends.Contains(0) || friends.Contains(1) {
				t.Errorf("friend set contains s or N_s: %v", friends.Members())
			}
		}
	}
	if !sawSuccess {
		t.Fatal("never succeeded in 500 trials (p=1/2); RNG broken?")
	}
}

// Monotonicity property: enlarging the invitation set cannot decrease the
// acceptance probability.
func TestEstimateFMonotone(t *testing.T) {
	// Seed 1 leaves (0, 11) non-adjacent; an adjacent pair fails
	// mustInstance.
	r := rand.New(rand.NewSource(1))
	b := graph.NewBuilder(12)
	for i := 0; i < 30; i++ {
		b.AddEdge(graph.Node(r.Intn(12)), graph.Node(r.Intn(12)))
	}
	b.AddEdge(0, 1)
	b.AddEdge(10, 11)
	in := mustInstance(t, b.Build(), 0, 11)
	small := graph.NewNodeSetOf(12, 5, 10, 11)
	big := small.Clone()
	for v := graph.Node(2); v < 9; v++ {
		big.Add(v)
	}
	ctx := context.Background()
	fSmall, err := in.EstimateF(ctx, small, 40000, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	fBig, err := in.EstimateF(ctx, big, 40000, 2, 99)
	if err != nil {
		t.Fatal(err)
	}
	if fBig+0.01 < fSmall {
		t.Errorf("monotonicity violated: f(small)=%v > f(big)=%v", fSmall, fBig)
	}
}

func TestEstimateFDeterministic(t *testing.T) {
	g := line(5)
	in := mustInstance(t, g, 0, 4)
	invited := graph.NewNodeSetOf(5, 2, 3, 4)
	ctx := context.Background()
	a, err := in.EstimateF(ctx, invited, 5000, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := in.EstimateF(ctx, invited, 5000, 4, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed gave %v and %v", a, b)
	}
}

// TestEstimateFWorkerIndependence pins the fixed-chunk contract: the
// estimate is a pure function of (seed, trials), bit-identical for any
// worker count — including a trial count that ends on a partial chunk.
func TestEstimateFWorkerIndependence(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	b := graph.NewBuilder(20)
	for i := 1; i < 20; i++ {
		b.AddEdge(graph.Node(i), graph.Node(r.Intn(i)))
	}
	for i := 0; i < 25; i++ {
		b.AddEdge(graph.Node(r.Intn(20)), graph.Node(r.Intn(20)))
	}
	in := mustInstance(t, b.Build(), 0, 19)
	invited := graph.NewNodeSet(20)
	invited.Fill()
	ctx := context.Background()
	for _, trials := range []int64{simChunk * 3, simChunk*2 + 777} {
		want, err := in.EstimateF(ctx, invited, trials, 1, 99)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 8} {
			got, err := in.EstimateF(ctx, invited, trials, workers, 99)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("trials=%d: %d workers gave %v, 1 worker gave %v", trials, workers, got, want)
			}
		}
	}
}

func TestEstimateFValidation(t *testing.T) {
	g := line(4)
	in := mustInstance(t, g, 0, 3)
	if _, err := in.EstimateF(context.Background(), graph.NewNodeSet(4), 0, 1, 1); !errors.Is(err, ErrBadInstance) {
		t.Errorf("zero trials err = %v", err)
	}
}

func TestEstimateFCancellation(t *testing.T) {
	g := line(4)
	in := mustInstance(t, g, 0, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := in.EstimateF(ctx, graph.NewNodeSetOf(4, 2, 3), 1000, 1, 1); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled ctx err = %v, want context.Canceled", err)
	}
}
