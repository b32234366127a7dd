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

	famMu sync.Mutex                      // serializes folds
	fam   atomic.Pointer[setcover.Family] // the cached family; nil until the first fold
}

// Truncate returns the prefix view of the pool's first l draws: exactly
// the pool that sampling l draws one-shot would have produced (chunk
// streams are indexed and prefix-stable). The view shares the parent's
// arena and offsets zero-copy and folds its own set-cover family on
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
// covered by invited (t(g) ⊆ I), by one scan of the CSR paths. A path
// with more nodes than I has is skipped on its length, which offsets
// give, so for a small set — a budgeted solve's output, an acceptance
// query — few paths' nodes are read. A path reaching a node at or
// beyond the set's universe (a set built before a delta added nodes) is
// not covered; paths are ascending, so that node is the path's last
// one. A nil set counts as the empty set. The scan allocates nothing
// and takes no lock.
func (p *Pool) CoverageCount(invited *graph.NodeSet) int64 {
	q := newScanSet(invited)
	arena := p.arena
	var covered int64
	lo := p.offsets[0]
	for _, hi := range p.offsets[1:] {
		if l := hi - lo; l <= q.size {
			if l == 0 {
				covered++
			} else if last := arena[hi-1]; last < q.n && q.ends(arena[lo], last) != 0 {
				covered += q.inner(arena[lo:hi])
			}
		}
		lo = hi
	}
	return covered
}

// EstimateF returns F(B_l, I)/l, the pool's estimate of f(I).
func (p *Pool) EstimateF(invited *graph.NodeSet) float64 {
	if p.total == 0 {
		return 0
	}
	return float64(p.CoverageCount(invited)) / float64(p.total)
}

// EstimateFMany returns F(B_l, I)/l for every invitation set: EstimateF
// per set. It allocates only its result.
func (p *Pool) EstimateFMany(invited []*graph.NodeSet) []float64 {
	out := make([]float64, len(invited))
	for j, s := range invited {
		out[j] = p.EstimateF(s)
	}
	return out
}

// scanSet is an invitation set as the path scan reads it: its bitmap
// words, universe and member count, fetched once per call. The zero
// value is the empty set.
type scanSet struct {
	words []uint64
	n     graph.Node
	size  int32
}

func newScanSet(s *graph.NodeSet) scanSet {
	if s == nil {
		return scanSet{}
	}
	return scanSet{words: s.Words(), n: graph.Node(s.Universe()), size: int32(s.Len())}
}

// ends returns 1 if first and last, the ends of a path (last < q.n),
// are both members, else 0. It does not branch: which end fails varies
// from path to path too much for a branch to be predicted.
func (q *scanSet) ends(first, last graph.Node) int64 {
	return int64(q.words[first>>6] >> (uint(first) & 63) & (q.words[last>>6] >> (uint(last) & 63)) & 1)
}

// inner returns 1 if every interior node of path is a member, else 0.
func (q *scanSet) inner(path []graph.Node) int64 {
	ok := uint64(1)
	for k := 1; k < len(path)-1; k++ {
		v := path[k]
		ok &= q.words[v>>6] >> (uint(v) & 63)
	}
	return int64(ok & 1)
}

// MemBytes returns the resident size of the pool: the CSR path arena,
// offset table and draw-index table, plus the set-cover family once it
// has been built. It is the unit of account for memory-budgeted pool
// eviction. Truncated views share their parent's tables; account them
// with FamilyMemBytes instead.
func (p *Pool) MemBytes() int64 {
	m := memTally{}
	p.tally(&m)
	return m.bytes
}

// tally adds the pool's tables and cached family to m.
func (p *Pool) tally(m *memTally) {
	tallySlice(m, p.arena)
	tallySlice(m, p.offsets)
	tallySlice(m, p.pathDraw)
	m.bytes += p.FamilyMemBytes()
}

// FamilyMemBytes returns the resident size of the pool's cached set-cover
// family (0 until one is built): all the storage a truncated view owns.
func (p *Pool) FamilyMemBytes() int64 {
	if f := p.fam.Load(); f != nil {
		return f.MemBytes()
	}
	return 0
}

// Family returns the pool's full set-cover family — the immutable fold
// (distinct paths with multiplicities plus the element → sets index) of
// every path; see FamilyCtx.
func (p *Pool) Family() (*setcover.Family, error) {
	return p.FamilyCtx(context.Background(), setcover.Unbounded)
}

// FamilyCtx returns a set-cover family holding every path of at most
// maxSize nodes (setcover.NewFamily): maxSize setcover.Unbounded asks for
// the full family, which a demand solve needs, while a budgeted solve
// needs only the paths that fit its largest budget (Lemma 2: a
// realization counts for I only if t(g) ⊆ I). The pool caches one
// family: a request it holds is served from the cache with one atomic
// load; a larger bound folds again and replaces it, so repeated solves
// fold at most once per growth of the bound, and a fold at or past the
// longest path is the full family and serves every later request.
// Holders of a replaced family keep it intact. When the call folds, the
// fold is recorded as a family_fold span on the context's trace. Safe
// for concurrent use.
func (p *Pool) FamilyCtx(ctx context.Context, maxSize int) (*setcover.Family, error) {
	if f := p.fam.Load(); f != nil && f.Bound() >= maxSize {
		return f, nil
	}
	p.famMu.Lock()
	defer p.famMu.Unlock()
	if f := p.fam.Load(); f != nil && f.Bound() >= maxSize {
		return f, nil
	}
	sp := obs.TraceFrom(ctx).StartSpan(obs.StageFamilyFold)
	defer sp.End()
	f, err := setcover.NewFamily(p.SetcoverInstance(), maxSize)
	if err != nil {
		return nil, err
	}
	p.fam.Store(f)
	return f, nil
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
