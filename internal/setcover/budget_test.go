package setcover

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestGreedyBudgetBasic(t *testing.T) {
	inst := &Instance{
		UniverseSize: 10,
		Sets: [][]int32{
			{0, 1},
			{1, 2},
			{5, 6, 7, 8},
		},
	}
	sol, err := GreedyBudget(inst, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Budget 3 fits the two overlapping pairs ({0,1,2}) but not the quad.
	if !reflect.DeepEqual(sol.Union, []int32{0, 1, 2}) {
		t.Errorf("Union = %v, want [0 1 2]", sol.Union)
	}
	if sol.Covered != 2 {
		t.Errorf("Covered = %d, want 2", sol.Covered)
	}
}

func TestGreedyBudgetRespectsBudget(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := randomInstance(rng)
		budget := 1 + rng.Intn(6)
		sol, err := GreedyBudget(inst, budget)
		if err != nil {
			return false
		}
		if len(sol.Union) > budget {
			return false
		}
		// Verify the claimed coverage.
		inUnion := map[int32]bool{}
		for _, x := range sol.Union {
			inUnion[x] = true
		}
		covered := 0
		for _, s := range inst.Sets {
			ok := true
			for _, x := range s {
				if !inUnion[x] {
					ok = false
					break
				}
			}
			if ok {
				covered++
			}
		}
		return covered == sol.Covered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestGreedyBudgetMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	inst := randomInstance(rng)
	prev := -1
	for budget := 1; budget <= inst.UniverseSize; budget++ {
		sol, err := GreedyBudget(inst, budget)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Covered < prev {
			t.Fatalf("coverage decreased at budget %d: %d < %d", budget, sol.Covered, prev)
		}
		prev = sol.Covered
	}
}

func TestGreedyBudgetTooSmall(t *testing.T) {
	inst := &Instance{UniverseSize: 10, Sets: [][]int32{{0, 1, 2, 3, 4}}}
	sol, err := GreedyBudget(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Covered != 0 || len(sol.Union) != 0 {
		t.Errorf("nothing fits budget 2, got %+v", sol)
	}
}

func TestGreedyBudgetValidation(t *testing.T) {
	inst := &Instance{UniverseSize: 5, Sets: [][]int32{{0}}}
	if _, err := GreedyBudget(inst, 0); !errors.Is(err, ErrBadInstance) {
		t.Errorf("budget 0: err = %v", err)
	}
	bad := &Instance{UniverseSize: 5, Sets: [][]int32{{9}}}
	if _, err := GreedyBudget(bad, 1); !errors.Is(err, ErrBadInstance) {
		t.Errorf("bad element: err = %v", err)
	}
}

func TestGreedyBudgetMultiplicity(t *testing.T) {
	inst := &Instance{
		UniverseSize: 10,
		Sets:         [][]int32{{1, 2, 3}, {5}, {5}, {5}},
	}
	sol, err := GreedyBudget(inst, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sol.Union, []int32{5}) || sol.Covered != 3 {
		t.Errorf("budget 1 should take the triple-multiplicity singleton: %+v", sol)
	}
}

// tieInstance builds a family whose densities tie across marginal
// buckets: each drawn set of c distinct elements appears r·c times,
// r ∈ {1, 2}, so multiplicity 2 at marginal 2 ties multiplicity 1 at
// marginal 1. The sets overlap heavily, so decrements move sets between
// tied buckets in the middle of a solve.
func tieInstance(rng *rand.Rand) *Instance {
	universe := 6 + rng.Intn(20)
	inst := &Instance{UniverseSize: universe}
	for i, n := 0, 4+rng.Intn(20); i < n; i++ {
		c := 1 + rng.Intn(5)
		set := make([]int32, c)
		for k, e := range rng.Perm(universe)[:c] {
			set[k] = int32(e)
		}
		for k := 0; k < (1+rng.Intn(2))*c; k++ {
			inst.Sets = append(inst.Sets, set)
		}
	}
	return inst
}

// edgeBudgets returns every budget from 1 to maxSize+2 plus a budget far
// beyond any union.
func edgeBudgets(fam *Family) []int {
	var bs []int
	for b := 1; b <= fam.maxSize+2; b++ {
		bs = append(bs, b)
	}
	return append(bs, 1<<30)
}

// checkBudgetParity solves inst at every edge budget on sv (bound to
// inst's family) and compares each answer with the reference greedy.
func checkBudgetParity(t *testing.T, label string, sv *Solver, inst *Instance) {
	t.Helper()
	for _, b := range edgeBudgets(sv.f) {
		want, err := referenceGreedyBudget(inst, b)
		if err != nil {
			t.Fatalf("%s b=%d: reference: %v", label, b, err)
		}
		got, err := sv.SolveBudget(b)
		if err != nil {
			t.Fatalf("%s b=%d: SolveBudget: %v", label, b, err)
		}
		if !solutionsEqual(got, want) {
			t.Fatalf("%s b=%d: solver %+v != reference %+v", label, b, got, want)
		}
	}
}

// TestSolveBudgetCrossBucketTie: at equal density the smaller marginal
// wins. {2} (mult 1, marginal 1) beats {0,1} (mult 2, marginal 2), and
// afterwards the pair no longer fits budget 2.
func TestSolveBudgetCrossBucketTie(t *testing.T) {
	inst := &Instance{UniverseSize: 3, Sets: [][]int32{{0, 1}, {0, 1}, {2}}}
	got, err := GreedyBudget(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := referenceGreedyBudget(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !solutionsEqual(got, want) || !reflect.DeepEqual(got.Union, []int32{2}) || got.Covered != 1 {
		t.Fatalf("got %+v, reference %+v, want union [2] covering 1", got, want)
	}
}

// TestSolveBudgetParityEdges: randomized parity with the reference
// greedy on tie-heavy and realization-shaped families, at every budget
// from 1 to maxSize+2 and at a huge budget.
func TestSolveBudgetParityEdges(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		inst := tieInstance(rng)
		if seed%4 == 0 {
			inst = realizationInstance(rng, 100+rng.Intn(400))
		}
		fam, err := NewFamily(inst, Unbounded)
		if err != nil {
			t.Fatal(err)
		}
		checkBudgetParity(t, fmt.Sprintf("seed %d", seed), NewSolver(fam), inst)
	}
}

// TestSolveBudgetRebindAcrossMaxSize: one roaming solver rebound between
// families whose largest set grows and shrinks answers every budget like
// the reference, so bucket scratch sized for one family never leaks
// entries into the next.
func TestSolveBudgetRebindAcrossMaxSize(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var roaming *Solver
	for round := 0; round < 30; round++ {
		inst := tieInstance(rng)
		if round%2 == 1 {
			// One long set lifts maxSize well past the tie sets'.
			long := make([]int32, inst.UniverseSize)
			for e := range long {
				long[e] = int32(e)
			}
			inst.Sets = append(inst.Sets, long, long, long)
		}
		fam, err := NewFamily(inst, Unbounded)
		if err != nil {
			t.Fatal(err)
		}
		if roaming == nil {
			roaming = NewSolver(fam)
		} else {
			roaming.rebind(fam)
		}
		checkBudgetParity(t, fmt.Sprintf("round %d (maxSize %d)", round, fam.maxSize), roaming, inst)
	}
}

// TestSolveBudgetAllocs pins the warmed budget solve to exactly two
// allocations: its Solution and its Union.
func TestSolveBudgetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("AllocsPerRun is not meaningful under the race detector")
	}
	inst := realizationInstance(rand.New(rand.NewSource(11)), 5000)
	fam, err := NewFamily(inst, Unbounded)
	if err != nil {
		t.Fatal(err)
	}
	sv := NewSolver(fam)
	for _, b := range []int{1, 4, 8, 1 << 30} {
		sol, err := sv.SolveBudget(b)
		if err != nil {
			t.Fatal(err)
		}
		if len(sol.Union) == 0 {
			t.Fatalf("b=%d: empty union; the pin needs a non-empty one", b)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			if _, err := sv.SolveBudget(b); err != nil {
				t.Fatal(err)
			}
		}); allocs != 2 {
			t.Fatalf("b=%d: SolveBudget allocates %.0f/op, want 2 (Solution + Union)", b, allocs)
		}
	}
}
