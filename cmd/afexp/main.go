// Command afexp regenerates the paper's evaluation artifacts — every table
// and every figure of Sec. IV — on the synthetic Table I analogs.
//
// Usage:
//
//	afexp -exp table1 -scale 0.1
//	afexp -exp fig3 -datasets Wiki,HepTh -pairs 30 -scale 0.05
//	afexp -exp fig4 | -exp fig5 | -exp table2 | -exp fig6 | -exp topk | -exp all
//
// The topk experiment is this reproduction's addition rather than a
// paper artifact: it measures the batched ranking scheduler, running a
// successive-halving batch at a quarter of the exhaustive draw budget
// against the exhaustive batch, and reports the draw ratio, the
// precision@k the schedule retained, and a byte-identity check of the
// exhaustive batch against independent SolveMax queries.
//
// Scale, pair count and Monte-Carlo budgets default to laptop-friendly
// values; raise them (e.g. -scale 1 -pairs 500) to match the paper's
// setup exactly.
//
// Experiments route through the graph-level serving layer
// (internal/server): each pair's pool is sampled once, reused across the
// α-sweep (fig3), the growth curves (fig4/fig5) and the f measurements,
// and evicted least-recently-used when -maxbytes bounds the pool memory.
// All results are deterministic in -seed, independent of -workers and of
// the eviction schedule.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync/atomic"

	"repro/internal/baselines"
	"repro/internal/eval"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/obs/httpserve"
	"repro/internal/server"
	"repro/internal/tablewriter"
	"repro/internal/weights"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "afexp:", err)
		os.Exit(1)
	}
}

type options struct {
	exp      string
	datasets []string
	scale    float64
	pairs    int
	maxPmax  float64
	alpha    float64
	eps      float64
	bigN     float64
	maxReal  int64
	maxBytes int64
	trials   int64
	seed     int64
	workers  int
	csv      bool
}

func run(args []string) error {
	fs := flag.NewFlagSet("afexp", flag.ContinueOnError)
	exp := fs.String("exp", "all", "experiment: table1|fig3|fig4|fig5|table2|fig6|topk|all")
	datasets := fs.String("datasets", "Wiki,HepTh,HepPh,Youtube", "comma-separated dataset analogs")
	scale := fs.Float64("scale", 0.05, "dataset scale (1 = paper size)")
	pairs := fs.Int("pairs", 20, "number of (s,t) pairs per dataset (paper: 500)")
	maxPmax := fs.Float64("maxpmax", 0, "reject pairs with p_max above this (0 disables); keeps scaled analogs in the paper's p_max regime")
	alpha := fs.Float64("alpha", 0.1, "alpha for fig4/fig5/table2/fig6")
	eps := fs.Float64("eps", 0.01, "accuracy slack (paper: 0.01)")
	bigN := fs.Float64("N", 100000, "success control (paper: 100000)")
	maxReal := fs.Int64("maxreal", 60000, "realization cap per RAF run")
	maxBytes := fs.Int64("maxbytes", 0, "serving-layer pool memory budget in bytes (0 = unlimited)")
	trials := fs.Int64("trials", 20000, "Monte-Carlo trials per f estimate")
	seed := fs.Int64("seed", 1, "root seed")
	workers := fs.Int("workers", 0, "parallel workers (0 = CPUs)")
	csv := fs.Bool("csv", false, "emit CSV")
	obsCLI := httpserve.AddFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// One observability bundle spans every dataset's server; /statusz
	// follows the server currently running experiments.
	var ob *obs.Obs
	var curSv atomic.Pointer[server.Server]
	var obsOpts httpserve.Options
	if obsCLI.Enabled() {
		ob = obs.New()
		obsOpts = httpserve.Options{
			Registry: ob.Registry,
			Tracer:   ob.Tracer,
			Statusz: func(w io.Writer) {
				if sv := curSv.Load(); sv != nil {
					sv.WriteStatusz(w)
				}
			},
		}
	}
	obsSrv, err := obsCLI.Start(obsOpts)
	if err != nil {
		return err
	}
	defer obsSrv.Close()
	o := options{
		exp: *exp, datasets: strings.Split(*datasets, ","), scale: *scale,
		pairs: *pairs, maxPmax: *maxPmax, alpha: *alpha, eps: *eps, bigN: *bigN,
		maxReal: *maxReal, maxBytes: *maxBytes, trials: *trials, seed: *seed, workers: *workers,
		csv: *csv,
	}
	ctx := context.Background()

	emit := func(t *tablewriter.Table) error {
		if o.csv {
			return t.WriteCSV(os.Stdout)
		}
		if err := t.WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		return nil
	}

	if o.exp == "table1" || o.exp == "all" {
		if err := table1(o, emit); err != nil {
			return err
		}
	}
	wantsPairs := map[string]bool{"fig3": true, "fig4": true, "fig5": true, "table2": true, "fig6": true, "topk": true, "all": true}
	if !wantsPairs[o.exp] && o.exp != "table1" {
		return fmt.Errorf("unknown experiment %q", o.exp)
	}
	if o.exp == "table1" {
		return nil
	}

	var table2Rows []*eval.VmaxRow
	var table2Names []string
	for _, name := range o.datasets {
		name = strings.TrimSpace(name)
		d, err := gen.DatasetByName(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "== dataset %s (scale %.3f) ==\n", name, o.scale)
		g, err := d.Generate(o.scale, o.seed)
		if err != nil {
			return err
		}
		w := weights.NewDegree(g)
		ps, err := eval.SamplePairs(ctx, g, w, eval.PairConfig{
			Count: o.pairs, MinPmax: 0.01, MaxPmax: o.maxPmax, PreferDistant: true, ScreenTrials: 3000,
			Seed: o.seed, Workers: o.workers,
		})
		if err != nil {
			return fmt.Errorf("dataset %s: %w", name, err)
		}
		cfg := eval.Config{
			Graph: g, Weights: w, Pairs: ps,
			Alpha: o.alpha, Eps: o.eps, N: o.bigN,
			MaxRealizations: o.maxReal, EvalTrials: o.trials,
			Seed: o.seed, Workers: o.workers,
			Obs: ob,
		}
		// Route every pair's sessions through the serving layer: pools
		// are shared across experiments on this dataset and evicted
		// least-recently-used under -maxbytes.
		sv := server.New(g, w, server.Config{
			Seed: o.seed, Workers: o.workers, MaxPoolBytes: o.maxBytes, Obs: ob,
		})
		curSv.Store(sv)
		cfg.Server = sv
		if o.exp == "fig3" || o.exp == "all" {
			rows, err := eval.BasicExperiment(ctx, cfg, []float64{0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35})
			if err != nil {
				return err
			}
			if err := emit(eval.RenderFig3(name, rows)); err != nil {
				return err
			}
		}
		if o.exp == "fig4" || o.exp == "all" {
			res, err := eval.CompareGrowth(ctx, cfg, baselines.HighDegree{})
			if err != nil {
				return err
			}
			if err := emit(eval.RenderGrowth(name, res)); err != nil {
				return err
			}
		}
		if o.exp == "fig5" || o.exp == "all" {
			res, err := eval.CompareGrowth(ctx, cfg, baselines.ShortestPath{})
			if err != nil {
				return err
			}
			if err := emit(eval.RenderGrowth(name, res)); err != nil {
				return err
			}
		}
		if o.exp == "table2" || o.exp == "all" {
			cfg2 := cfg
			cfg2.Alpha = 0.1 // the paper's Table II setting
			row, err := eval.VmaxExperiment(ctx, cfg2)
			if err != nil {
				return err
			}
			table2Rows = append(table2Rows, row)
			table2Names = append(table2Names, name)
		}
		if o.exp == "topk" || o.exp == "all" {
			// Batched ranking experiment: the pairs' source s ranks the
			// pairs' targets as one scheduled top-k batch; the scheduled
			// run gets a quarter of the exhaustive draw budget.
			res, err := eval.TopKRanking(ctx, cfg, 5, 5)
			if err != nil {
				return err
			}
			if err := emit(eval.RenderTopK(name, res)); err != nil {
				return err
			}
		}
		if (o.exp == "fig6" || o.exp == "all") && name == strings.TrimSpace(o.datasets[0]) {
			// The paper's Fig. 6 uses a single illustrative pair from the
			// first (Wiki) dataset.
			pts, err := eval.RealizationSweep(ctx, cfg, []int64{1000, 5000, 10000, 50000, 100000, 200000, 400000})
			if err != nil {
				return err
			}
			if err := emit(eval.RenderFig6(name, pts)); err != nil {
				return err
			}
		}
		st := sv.Stats()
		fmt.Fprintf(os.Stderr, "server: %d pairs live, %d created, %d evicted, %d KiB held\n",
			st.SessionsLive, st.SessionsCreated, st.SessionsEvicted, st.BytesHeld>>10)
	}
	if len(table2Rows) > 0 {
		if err := emit(eval.RenderTable2(table2Names, table2Rows)); err != nil {
			return err
		}
	}
	return nil
}

func table1(o options, emit func(*tablewriter.Table) error) error {
	var names []string
	var stats []gen.Stats
	for _, d := range gen.Datasets() {
		g, err := d.Generate(o.scale, o.seed)
		if err != nil {
			return err
		}
		names = append(names, d.Name)
		stats = append(stats, gen.Summarize(g))
	}
	return emit(eval.RenderTable1(names, stats))
}
