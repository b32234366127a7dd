package proto

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/server"
)

// Dispatcher maps decoded requests onto one server.Server and shapes
// replies. It is transport-agnostic and safe for concurrent use: the
// pipe transport (cmd/afserve) and the HTTP transport
// (internal/proto/httpapi) drive the same Dispatcher, so a request
// produces the same reply bytes on either.
//
// Parameter defaulting (solve's α/ε/N and caps, topk's budget,
// pmaxest's stopping-rule knobs) and invited-set validation call the
// same internal/server functions the public facade calls, and replies
// carry the facade's own result types, so the dispatcher answers what
// the facade would: both are views of the same server. Only the
// trials default of "acceptance" and "pmax" is the protocol's own.
type Dispatcher struct {
	sv *server.Server

	// topks retains finished topk results so "topkrefine" can resume
	// them, keyed by the query signature (s, targets, k, budget,
	// realizations) — deliberately excluding maxdraws, which refinement
	// itself enlarges. Bounded FIFO: the protocol is stateless on the
	// wire, so a evicted entry just means a refine request re-runs as a
	// fresh topk would.
	mu        sync.Mutex
	topks     map[string]*server.TopKResult
	topkOrder []string
}

// maxRetainedTopKs bounds the refine cache; see Dispatcher.topks.
const maxRetainedTopKs = 64

// NewDispatcher returns a dispatcher answering against sv.
func NewDispatcher(sv *server.Server) *Dispatcher {
	return &Dispatcher{sv: sv, topks: make(map[string]*server.TopKResult)}
}

// defaultTrials is the draw count for "acceptance" and "pmax" when the
// request omits trials.
const defaultTrials = 20000

// topkQuery builds the server query for a "topk"/"topkrefine" request.
func topkQuery(req Request) server.TopKQuery {
	return server.TopKDefaults(server.TopKQuery{
		S:            req.S,
		Targets:      req.Targets,
		K:            req.K,
		Budget:       req.Budget,
		Realizations: req.Realizations,
		MaxDraws:     req.MaxDraws,
	})
}

// topkKey is the refine-cache signature of a topk query; MaxDraws is
// excluded so a refined result stays reachable under its original key.
func topkKey(q server.TopKQuery) string {
	return fmt.Sprintf("%d|%v|%d|%d|%d", q.S, q.Targets, q.K, q.Budget, q.Realizations)
}

func (d *Dispatcher) retainTopK(key string, res *server.TopKResult) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.topks[key]; !ok {
		if len(d.topkOrder) >= maxRetainedTopKs {
			delete(d.topks, d.topkOrder[0])
			d.topkOrder = d.topkOrder[1:]
		}
		d.topkOrder = append(d.topkOrder, key)
	}
	d.topks[key] = res
}

func (d *Dispatcher) retainedTopK(key string) *server.TopKResult {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.topks[key]
}

// DispatchLine decodes and answers one request line.
func (d *Dispatcher) DispatchLine(ctx context.Context, line []byte) Response {
	req, errResp := DecodeRequest(line)
	if errResp != nil {
		return *errResp
	}
	return d.Dispatch(ctx, req)
}

// Dispatch answers one decoded request. The reply's Code classifies
// failures for the transport; its body is transport-independent.
func (d *Dispatcher) Dispatch(ctx context.Context, req Request) Response {
	resp := Response{ID: req.ID, Op: req.Op}
	trials := req.Trials
	if trials <= 0 {
		trials = defaultTrials
	}
	var result any
	var err error
	switch req.Op {
	case "solve":
		var res *core.Result
		cfg := core.Config{Alpha: req.Alpha, Eps: req.Eps, N: req.N, OverrideL: req.Realizations}
		res, err = d.sv.Solve(ctx, req.S, req.T, server.SolveDefaults(cfg, false))
		if err == nil {
			result = SolutionFrom(res)
		}
	case "solvemax":
		// A "budgets" list answers the whole sweep from one pool fold and
		// two batched coverage queries; "budget" answers a single solve.
		if len(req.Budgets) > 0 {
			rs, fs, err2 := d.sv.SolveMaxBudgets(ctx, req.S, req.T, req.Budgets, req.Realizations)
			err = err2
			if err == nil {
				result = MaxSolutionsFrom(rs, fs)
			}
		} else {
			res, f, err2 := d.sv.SolveMax(ctx, req.S, req.T, req.Budget, req.Realizations)
			err = err2
			if err == nil {
				result = MaxSolutionFrom(res, f)
			}
		}
	case "acceptance":
		var set *graph.NodeSet
		set, err = server.InvitedSet(d.sv.Graph(), req.Invited)
		if err == nil {
			var f float64
			f, err = d.sv.EstimateF(ctx, req.S, req.T, set, trials)
			result = map[string]float64{"f": f}
		}
	case "pmax":
		var f float64
		f, err = d.sv.Pmax(ctx, req.S, req.T, trials)
		result = map[string]float64{"pmax": f}
	case "pmaxest":
		e0, n, budget := server.PmaxDefaults(req.Eps, req.N, req.Trials)
		est, err2 := d.sv.PmaxEstimate(ctx, req.S, req.T, e0, n, budget)
		err = err2
		if err == nil {
			result = map[string]any{
				"pmax": est.Estimate, "draws": est.Draws, "reused": est.Reused,
				"sampled": est.Sampled, "truncated": est.Truncated,
			}
		}
	case "topk":
		q := topkQuery(req)
		var res *server.TopKResult
		res, err = d.sv.TopK(ctx, q)
		if err == nil {
			d.retainTopK(topkKey(q), res)
			result = TopKResultFrom(res)
		}
	case "topkrefine":
		q := topkQuery(req)
		prev := d.retainedTopK(topkKey(q))
		if prev == nil {
			err = fmt.Errorf("topkrefine: no retained topk result for this query signature (run topk first)")
			break
		}
		var res *server.TopKResult
		res, err = d.sv.TopKRefine(ctx, prev, req.ExtraDraws)
		if err == nil {
			d.retainTopK(topkKey(q), res)
			result = TopKResultFrom(res)
		}
	case "delta":
		// Mutate the served graph in place: cached pairs are migrated
		// across the new epoch by repair, not discarded. Requests already
		// in flight answer at the epoch they started on.
		gd := &graph.Delta{}
		for _, e := range req.Add {
			gd.Add = append(gd.Add, graph.Edge{U: e[0], V: e[1]})
		}
		for _, e := range req.Remove {
			gd.Remove = append(gd.Remove, graph.Edge{U: e[0], V: e[1]})
		}
		var res *server.DeltaResult
		res, err = d.sv.ApplyDelta(ctx, gd, nil)
		if err == nil {
			result = DeltaSummaryFrom(res)
		}
	case "stats":
		st := StatsWithMetrics{Stats: d.sv.Stats()}
		if o := d.sv.Obs(); o != nil {
			st.Metrics = o.Registry.Snapshot()
		}
		result = st
	default:
		resp.Error = fmt.Sprintf("unknown op %q", req.Op)
		resp.code = CodeUnknownOp
		return resp
	}
	if err != nil {
		resp.Error = err.Error()
		resp.code = CodeError
		if errors.Is(err, server.ErrOverloaded) {
			resp.code = CodeOverloaded
		}
		return resp
	}
	resp.OK = true
	resp.Result = result
	return resp
}
