package engine

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/setcover"
)

// Pool is a batch of sampled realizations B_l in compact CSR form: the
// type-1 backward paths live in one flat arena, so a pool of hundreds of
// thousands of realizations costs two allocations instead of one per
// path. Path i is arena[offsets[i]:offsets[i+1]] and was produced by
// draw pathDraw[i] (ascending). Each path is stored as its node set,
// sorted ascending when its chunk is sealed, not in walk order: t(g)
// counts only as a set (Lemma 2), and the sorted form is the canonical
// one the set-cover fold hashes without copying.
//
// Pool contents are a pure function of (seed, l) — chunked sampling makes
// them independent of the worker count (see Engine.SamplePool), and
// Truncate serves the exact-prefix view at any smaller draw count, so
// estimates and solves can be pure functions of the requested size no
// matter how large a cached pool has grown. Pools are immutable after
// construction and safe for concurrent use.
type Pool struct {
	arena    []graph.Node
	offsets  []int32
	pathDraw []int64
	total    int64
	universe int

	idxOnce  sync.Once
	idx      *Index
	idxBuilt atomic.Bool // set after idx is fully constructed

	famOnce  sync.Once
	fam      *setcover.Family
	famErr   error
	famBuilt atomic.Bool // set after fam is fully constructed
}

// Truncate returns the prefix view of the pool's first l draws: exactly
// the pool that sampling l draws one-shot would have produced (chunk
// streams are indexed and prefix-stable). The view shares the parent's
// arena and offsets zero-copy and builds its own coverage index on
// demand. l ≥ Total returns the pool itself.
func (p *Pool) Truncate(l int64) *Pool {
	if l >= p.total {
		return p
	}
	k := sort.Search(len(p.pathDraw), func(i int) bool { return p.pathDraw[i] >= l })
	return &Pool{
		arena:    p.arena,
		offsets:  p.offsets[:k+1],
		pathDraw: p.pathDraw[:k],
		total:    l,
		universe: p.universe,
	}
}

// Total returns l, the total number of realizations drawn (|B_l|).
func (p *Pool) Total() int64 { return p.total }

// NumType1 returns |B_l¹|, the number of type-1 realizations.
func (p *Pool) NumType1() int { return len(p.offsets) - 1 }

// Universe returns the node-id bound of the underlying graph.
func (p *Pool) Universe() int { return p.universe }

// Path returns the node set of the i-th type-1 backward path t(g),
// ascending (strictly: a backward walk never revisits a node). The
// slice aliases the pool's arena and must not be modified.
func (p *Pool) Path(i int) []graph.Node {
	return p.arena[p.offsets[i]:p.offsets[i+1]]
}

// FractionType1 returns |B_l¹|/l, the pool's estimate of p_max.
func (p *Pool) FractionType1() float64 {
	if p.total == 0 {
		return 0
	}
	return float64(p.NumType1()) / float64(p.total)
}

// CoverageCount returns F(B_l, I): the number of pooled realizations
// covered by invited (t(g) ⊆ I). This is the allocation-free linear scan;
// for repeated queries against one pool, Index().CoverageCount amortizes
// an inverted node → realization index instead of rescanning every path.
func (p *Pool) CoverageCount(invited *graph.NodeSet) int64 {
	var covered int64
	for i := 0; i < p.NumType1(); i++ {
		ok := true
		for _, v := range p.Path(i) {
			if !invited.Contains(v) {
				ok = false
				break
			}
		}
		if ok {
			covered++
		}
	}
	return covered
}

// EstimateF returns F(B_l, I)/l, the pool's estimate of f(I), via the
// coverage index.
func (p *Pool) EstimateF(invited *graph.NodeSet) float64 {
	if p.total == 0 {
		return 0
	}
	return float64(p.Index().CoverageCount(invited)) / float64(p.total)
}

// EstimateFMany returns F(B_l, I)/l for every invitation set in one
// batched traversal of the coverage index's postings (Index.CoverageCounts);
// measuring k sets costs one pass instead of k.
func (p *Pool) EstimateFMany(invited []*graph.NodeSet) []float64 {
	counts := p.Index().CoverageCounts(invited)
	out := make([]float64, len(counts))
	if p.total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(p.total)
	}
	return out
}

// Index returns the pool's inverted node → realization index, built
// lazily on first use and cached.
func (p *Pool) Index() *Index {
	p.idxOnce.Do(func() {
		p.idx = newIndex(p)
		p.idxBuilt.Store(true)
	})
	return p.idx
}

// MemBytes returns the resident size of the pool: the CSR path arena,
// offset table and draw-index table, plus the coverage index and the
// set-cover family once they have been built. It is the unit of account
// for memory-budgeted pool eviction. Truncated views share their parent's
// tables; account them with IndexMemBytes + FamilyMemBytes instead.
func (p *Pool) MemBytes() int64 {
	return int64(cap(p.arena))*4 + int64(cap(p.offsets))*4 + int64(cap(p.pathDraw))*8 +
		p.IndexMemBytes() + p.FamilyMemBytes()
}

// IndexMemBytes returns the resident size of the pool's coverage index
// (0 until it is built).
func (p *Pool) IndexMemBytes() int64 {
	if p.idxBuilt.Load() {
		return p.idx.memBytes()
	}
	return 0
}

// FamilyMemBytes returns the resident size of the pool's cached set-cover
// family (0 until it is built). Together with IndexMemBytes it is all the
// storage a truncated view owns.
func (p *Pool) FamilyMemBytes() int64 {
	if p.famBuilt.Load() {
		return p.fam.MemBytes()
	}
	return 0
}

// Family returns the pool's set-cover family — the immutable fold
// (distinct paths with multiplicities plus the element → sets index) every
// MSC solve against this pool shares — built lazily on first use from the
// CSR arena and cached. Repeated solves at new demands or budgets (α/β
// sweeps, SolveMax budget searches, server traffic) then skip the
// per-query rebuild entirely: they borrow a pooled Solver holding only
// mutable scratch. Safe for concurrent use.
func (p *Pool) Family() (*setcover.Family, error) {
	p.famOnce.Do(func() {
		p.fam, p.famErr = setcover.NewFamily(p.SetcoverInstance())
		if p.famErr == nil {
			p.famBuilt.Store(true)
		}
	})
	return p.fam, p.famErr
}

// FamilyCtx is Family with stage tracing: when the call is the one that
// actually folds the family (not a cache hit), the fold is recorded as a
// family_fold span on the context's trace. The built fast path skips the
// span entirely, so cached folds cost one atomic load over Family.
func (p *Pool) FamilyCtx(ctx context.Context) (*setcover.Family, error) {
	if p.famBuilt.Load() {
		return p.fam, nil
	}
	sp := obs.TraceFrom(ctx).StartSpan(obs.StageFamilyFold)
	defer sp.End()
	return p.Family()
}

// SetcoverInstance hands the pool to the MSC solver zero-copy: the arena
// and offsets become the solver's CSR set family directly (graph.Node is
// an alias of int32), with no per-path slice headers materialized. The
// arena is sliced to the paths the pool owns — a truncated view shares a
// larger parent arena.
func (p *Pool) SetcoverInstance() *setcover.Instance {
	return &setcover.Instance{
		UniverseSize: p.universe,
		SetArena:     p.arena[:p.offsets[p.NumType1()]],
		SetOffsets:   p.offsets,
	}
}
