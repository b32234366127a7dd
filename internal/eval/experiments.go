package eval

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/baselines"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/ltm"
	"repro/internal/obs"
	"repro/internal/rng"
	"repro/internal/server"
	"repro/internal/weights"
)

// Config parameterizes an experiment run on one dataset.
type Config struct {
	// Graph and Weights define the network; Pairs are the evaluated
	// (s,t) instances (from SamplePairs).
	Graph   *graph.Graph
	Weights weights.Scheme
	Pairs   []Pair

	// Alpha is the requirement ratio used where a single α is needed
	// (Figs. 4–6 use the Sec. IV-A setting; Table II uses α = 0.1).
	Alpha float64
	// Eps and N are the accuracy/success-probability controls
	// (paper: ε = 0.01, N = 100000).
	Eps float64
	N   float64

	// MaxRealizations caps RAF's pool (the practical regime of
	// Sec. IV-E); EvalTrials is the Monte-Carlo budget for measuring the
	// acceptance probability of a produced invitation set.
	MaxRealizations int64
	MaxPmaxDraws    int64
	EvalTrials      int64

	Seed    int64
	Workers int

	// Server, when set, routes every pair's sessions through the serving
	// layer: pools are cached, shared with query traffic, and evicted
	// under the server's memory budget (per-pair seeds then derive from
	// the server's (seed, s, t) streams, so results are reproducible
	// across runs and eviction schedules but differ from the
	// sessions-per-run path below). When nil, each experiment owns its
	// pair sessions for the duration of the run.
	Server *server.Server

	// Obs, when set, instruments the servers the topk experiment
	// constructs itself with the same observability bundle the caller
	// gave its own Server — so afexp's -metrics-addr surface covers
	// experiment-internal traffic too. Instrumentation never changes a
	// result.
	Obs *obs.Obs
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.Alpha <= 0 {
		out.Alpha = 0.1
	}
	if out.Eps <= 0 {
		out.Eps = 0.01
	}
	if out.N <= 2 {
		out.N = 100000
	}
	if out.MaxRealizations <= 0 {
		out.MaxRealizations = 100000
	}
	if out.MaxPmaxDraws <= 0 {
		out.MaxPmaxDraws = 500000
	}
	if out.EvalTrials <= 0 {
		out.EvalTrials = 20000
	}
	return out
}

func (c *Config) rafConfig(alpha float64) core.Config {
	return core.Config{
		Alpha:           alpha,
		Eps:             c.Eps,
		N:               c.N,
		MaxRealizations: c.MaxRealizations,
		MaxPmaxDraws:    c.MaxPmaxDraws,
	}
}

// pairSession is the per-pair solve and measurement state: one core
// session (shared realization pool, cached V_max and p_max across
// solves, and an evaluation pool over an independent stream family), so
// every f measurement for this pair — across α values, baselines and
// growth steps — reuses one pool of EvalTrials draws and its coverage
// index instead of resampling.
type pairSession struct {
	in     *ltm.Instance
	sess   *core.Session
	trials int64
	done   func() // settles server accounting; nil off the server path
}

func (c *Config) newPairSession(pi int, pair Pair) (*pairSession, error) {
	if c.Server != nil {
		h, err := c.Server.Pair(pair.S, pair.T)
		if err != nil {
			return nil, err
		}
		return &pairSession{
			in:     h.Instance(),
			sess:   h.Core(),
			trials: c.EvalTrials,
			done:   h.Done,
		}, nil
	}
	in, err := ltm.NewInstance(c.Graph, c.Weights, pair.S, pair.T)
	if err != nil {
		return nil, err
	}
	return &pairSession{
		in:     in,
		sess:   core.NewSession(in, rng.Derive(c.Seed, uint64(pi)), c.Workers),
		trials: c.EvalTrials,
	}, nil
}

// close settles the pair's accounting with the serving layer (letting it
// evict cold pools); a no-op for run-owned sessions.
func (ps *pairSession) close() {
	if ps.done != nil {
		ps.done()
	}
}

// measureF estimates f(invited) against the pair's cached evaluation pool.
func (ps *pairSession) measureF(ctx context.Context, invited *graph.NodeSet) (float64, error) {
	return ps.sess.Eval().EstimateF(ctx, invited, ps.trials)
}

// measureFMany estimates f for several invitation sets in one batched
// coverage query against the pair's evaluation pool: the pool's paths
// are scanned once for the whole batch instead of once per set.
func (ps *pairSession) measureFMany(ctx context.Context, invited []*graph.NodeSet) ([]float64, error) {
	return ps.sess.Eval().EstimateFMany(ctx, invited, ps.trials)
}

// Fig3Row is one x-position of the basic experiment: average acceptance
// probabilities at a fixed α, with the HD and SP sets sized to |I_RAF|.
type Fig3Row struct {
	Alpha float64
	Pmax  float64 // average p_max across pairs
	RAF   float64
	HD    float64
	SP    float64
	// AvgSize is the average |I_RAF| at this α.
	AvgSize float64
	// Pairs is the number of pairs that contributed (RAF failures are
	// skipped and counted in Skipped).
	Pairs   int
	Skipped int
}

// BasicExperiment reproduces Fig. 3: for each pair and each α in alphas,
// run RAF, size HD and SP to |I_RAF|, and average the measured acceptance
// probabilities per α. Pairs are the outer loop so that the whole α-sweep
// for one pair runs through a single session: the realization pool is
// sampled once and grown as needed, V_max and p_max are computed once,
// baseline rankings are ranked once, and every f measurement shares one
// evaluation pool.
func BasicExperiment(ctx context.Context, cfg Config, alphas []float64) ([]Fig3Row, error) {
	c := cfg.withDefaults()
	if len(alphas) == 0 {
		return nil, fmt.Errorf("eval: no alphas given")
	}
	hd, sp := baselines.HighDegree{}, baselines.ShortestPath{}
	rows := make([]Fig3Row, len(alphas))
	sums := make([][5]float64, len(alphas)) // per α: pmax, raf, hd, sp, size
	for ai, alpha := range alphas {
		rows[ai].Alpha = alpha
	}
	for pi, pair := range c.Pairs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ps, err := c.newPairSession(pi, pair)
		if err != nil {
			for ai := range rows {
				rows[ai].Skipped++
			}
			continue
		}
		err = func() error {
			defer ps.close()
			hdOrder, spOrder := hd.Rank(ps.in), sp.Rank(ps.in)
			for ai, alpha := range alphas {
				res, err := ps.sess.RAF(ctx, c.rafConfig(alpha))
				if err != nil {
					if errors.Is(err, core.ErrTargetUnreachable) {
						rows[ai].Skipped++
						continue
					}
					return fmt.Errorf("eval: RAF on pair (%d,%d): %w", pair.S, pair.T, err)
				}
				k := res.Invited.Len()
				// One batched coverage query measures RAF and both size-
				// matched baselines.
				fs, err := ps.measureFMany(ctx, []*graph.NodeSet{
					res.Invited,
					baselines.PrefixSet(c.Graph.NumNodes(), hdOrder, k),
					baselines.PrefixSet(c.Graph.NumNodes(), spOrder, k),
				})
				if err != nil {
					return err
				}
				rows[ai].Pairs++
				sums[ai][0] += pair.Pmax
				sums[ai][1] += fs[0]
				sums[ai][2] += fs[1]
				sums[ai][3] += fs[2]
				sums[ai][4] += float64(k)
			}
			return nil
		}()
		if err != nil {
			return nil, err
		}
	}
	for ai := range rows {
		if rows[ai].Pairs > 0 {
			div := float64(rows[ai].Pairs)
			rows[ai].Pmax = sums[ai][0] / div
			rows[ai].RAF = sums[ai][1] / div
			rows[ai].HD = sums[ai][2] / div
			rows[ai].SP = sums[ai][3] / div
			rows[ai].AvgSize = sums[ai][4] / div
		}
	}
	return rows, nil
}

// GrowthBin is one x-bin of Figs. 4–5: among growth points whose
// acceptance-probability ratio f(I_B)/f(I_RAF) falls in the bin, the
// average size ratio |I_B|/|I_RAF|.
type GrowthBin struct {
	// XCenter is the bin's nominal x (0.2, 0.4, 0.6, 0.8, 1.0).
	XCenter float64
	// SizeRatio is the average |I_B|/|I_RAF| in the bin.
	SizeRatio float64
	// Count is the number of contributing growth points.
	Count int
}

// GrowthResult is the outcome of CompareGrowth on one dataset.
type GrowthResult struct {
	Baseline string
	Bins     []GrowthBin
	// PairsUsed / PairsSkipped account for RAF failures.
	PairsUsed    int
	PairsSkipped int
}

// CompareGrowth reproduces Fig. 4 (baseline HD) and Fig. 5 (baseline SP):
// for each pair, run RAF, then grow the baseline's invitation set until it
// matches f(I_RAF) (or candidates run out), recording
// (f(I_B,k)/f(I_RAF), k/|I_RAF|) points, pooled over pairs into five bins.
func CompareGrowth(ctx context.Context, cfg Config, ranker baselines.Ranker) (*GrowthResult, error) {
	c := cfg.withDefaults()
	res := &GrowthResult{Baseline: ranker.Name()}
	type point struct{ x, y float64 }
	var points []point
	for pi, pair := range c.Pairs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ps, err := c.newPairSession(pi, pair)
		if err != nil {
			res.PairsSkipped++
			continue
		}
		err = func() error {
			defer ps.close()
			raf, err := ps.sess.RAF(ctx, c.rafConfig(c.Alpha))
			if err != nil {
				if errors.Is(err, core.ErrTargetUnreachable) {
					res.PairsSkipped++
					return nil
				}
				return fmt.Errorf("eval: RAF on pair (%d,%d): %w", pair.S, pair.T, err)
			}
			fRAF, err := ps.measureF(ctx, raf.Invited)
			if err != nil {
				return err
			}
			if fRAF <= 0 {
				res.PairsSkipped++
				return nil
			}
			kRAF := raf.Invited.Len()
			order := ranker.Rank(ps.in)
			// Geometric growth schedule: fine-grained near |I_RAF|, coarse
			// beyond, so breakpoints (Sec. IV-B) remain visible at bounded
			// cost. Every step's measurement is a coverage query against the
			// pair's one cached evaluation pool.
			for k := maxInt(1, kRAF/4); k <= len(order); {
				invited := baselines.PrefixSet(c.Graph.NumNodes(), order, k)
				fB, err := ps.measureF(ctx, invited)
				if err != nil {
					return err
				}
				points = append(points, point{x: fB / fRAF, y: float64(k) / float64(kRAF)})
				if fB >= fRAF {
					break
				}
				next := int(math.Ceil(float64(k) * 1.35))
				if next <= k {
					next = k + 1
				}
				k = next
				if k > len(order) && len(order) > 0 && points[len(points)-1].x < 1 {
					// Final point with the full candidate set.
					k = len(order)
					fAll, err := ps.measureF(ctx, baselines.PrefixSet(c.Graph.NumNodes(), order, k))
					if err != nil {
						return err
					}
					points = append(points, point{x: fAll / fRAF, y: float64(k) / float64(kRAF)})
					break
				}
			}
			res.PairsUsed++
			return nil
		}()
		if err != nil {
			return nil, err
		}
	}
	if res.PairsUsed == 0 {
		return nil, fmt.Errorf("%w: all pairs skipped", ErrNoPairs)
	}
	// Five bins centered at 0.2, 0.4, 0.6, 0.8, 1.0 over x ∈ (0, 1+].
	centers := []float64{0.2, 0.4, 0.6, 0.8, 1.0}
	res.Bins = make([]GrowthBin, len(centers))
	for i, x := range centers {
		res.Bins[i].XCenter = x
	}
	for _, p := range points {
		x := p.x
		if x > 1 {
			x = 1
		}
		idx := int(math.Ceil(x*5)) - 1
		if idx < 0 {
			idx = 0
		}
		if idx > 4 {
			idx = 4
		}
		res.Bins[idx].SizeRatio += p.y
		res.Bins[idx].Count++
	}
	for i := range res.Bins {
		if res.Bins[i].Count > 0 {
			res.Bins[i].SizeRatio /= float64(res.Bins[i].Count)
		}
	}
	return res, nil
}

// VmaxRow is Table II for one dataset: average |V_max|, |I_RAF| (α = 0.1)
// and their ratio.
type VmaxRow struct {
	AvgVmax      float64
	AvgRAF       float64
	AvgRatio     float64
	PairsUsed    int
	PairsSkipped int
}

// VmaxExperiment reproduces Table II.
func VmaxExperiment(ctx context.Context, cfg Config) (*VmaxRow, error) {
	c := cfg.withDefaults()
	row := &VmaxRow{}
	var sumVmax, sumRAF, sumRatio float64
	for pi, pair := range c.Pairs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ps, err := c.newPairSession(pi, pair)
		if err != nil {
			row.PairsSkipped++
			continue
		}
		err = func() error {
			defer ps.close()
			res, err := ps.sess.RAF(ctx, c.rafConfig(c.Alpha))
			if err != nil {
				if errors.Is(err, core.ErrTargetUnreachable) {
					row.PairsSkipped++
					return nil
				}
				return fmt.Errorf("eval: RAF on pair (%d,%d): %w", pair.S, pair.T, err)
			}
			vmSize := res.VmaxSize
			if vmSize == 0 {
				vm, err := ps.sess.Vmax()
				if err != nil {
					return err
				}
				vmSize = vm.Len()
			}
			k := res.Invited.Len()
			if k == 0 {
				row.PairsSkipped++
				return nil
			}
			row.PairsUsed++
			sumVmax += float64(vmSize)
			sumRAF += float64(k)
			sumRatio += float64(vmSize) / float64(k)
			return nil
		}()
		if err != nil {
			return nil, err
		}
	}
	if row.PairsUsed == 0 {
		return nil, fmt.Errorf("%w: all pairs skipped", ErrNoPairs)
	}
	div := float64(row.PairsUsed)
	row.AvgVmax = sumVmax / div
	row.AvgRAF = sumRAF / div
	row.AvgRatio = sumRatio / div
	return row, nil
}

// SweepPoint is one x-position of Fig. 6: the acceptance probability of
// the framework's output when only l realizations are used.
type SweepPoint struct {
	L int64
	F float64
	// Size is |I*| at this l.
	Size int
}

// RealizationSweep reproduces Fig. 6: fix β (from the equation system at
// cfg.Alpha) and sweep the number of realizations handed to Algorithm 3,
// measuring the resulting acceptance probability. The paper runs this on
// a single illustrative pair; the first pair of cfg.Pairs is used. The
// sweep shares one session, so each grid point's pool is the previous
// point's pool grown in place — every realization is sampled exactly once
// across the whole sweep.
func RealizationSweep(ctx context.Context, cfg Config, ls []int64) ([]SweepPoint, error) {
	c := cfg.withDefaults()
	if len(c.Pairs) == 0 {
		return nil, fmt.Errorf("%w: no pair provided", ErrNoPairs)
	}
	if len(ls) == 0 {
		return nil, fmt.Errorf("eval: empty realization grid")
	}
	ps, err := c.newPairSession(0, c.Pairs[0])
	if err != nil {
		return nil, fmt.Errorf("eval: pair (%d,%d): %w", c.Pairs[0].S, c.Pairs[0].T, err)
	}
	defer ps.close()
	vm, err := ps.sess.Vmax()
	if err != nil {
		return nil, err
	}
	dim := vm.Len()
	if dim == 0 {
		return nil, fmt.Errorf("%w: pair (%d,%d) unreachable", ErrNoPairs, c.Pairs[0].S, c.Pairs[0].T)
	}
	params, err := core.SolveEquationSystem(c.Alpha, c.Eps, float64(dim))
	if err != nil {
		return nil, err
	}
	sorted := append([]int64(nil), ls...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	// Solve every grid point first (each pool is the previous point's pool
	// grown in place), then measure all invitation sets in one batched
	// coverage query against the evaluation pool — the sweep table costs a
	// single scan of the paths instead of one per grid point.
	out := make([]SweepPoint, 0, len(sorted))
	var sets []*graph.NodeSet
	var measured []int // out indexes awaiting a measurement
	for _, l := range sorted {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		invited, _, _, err := ps.sess.Framework(ctx, params.Beta, l)
		if err != nil {
			if errors.Is(err, core.ErrTargetUnreachable) {
				out = append(out, SweepPoint{L: l, F: 0, Size: 0})
				continue
			}
			return nil, err
		}
		measured = append(measured, len(out))
		out = append(out, SweepPoint{L: l, Size: invited.Len()})
		sets = append(sets, invited)
	}
	if len(sets) > 0 { // all-unreachable sweeps need no evaluation pool
		fs, err := ps.measureFMany(ctx, sets)
		if err != nil {
			return nil, err
		}
		for i, oi := range measured {
			out[oi].F = fs[i]
		}
	}
	return out, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
