package eval

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/tablewriter"
)

// RenderTable1 renders Table I (dataset statistics) for generated analogs.
// stats is keyed in registry order.
func RenderTable1(names []string, stats []gen.Stats) *tablewriter.Table {
	t := tablewriter.New("Table I: Datasets (synthetic analogs)",
		"dataset", "nodes", "edges", "edges/node", "max deg", "giant comp")
	for i, st := range stats {
		name := fmt.Sprintf("#%d", i)
		if i < len(names) {
			name = names[i]
		}
		t.AddRow(name, st.Nodes, st.Edges, st.EdgesPerNode, st.MaxDegree, st.GiantCompFrac)
	}
	return t
}

// RenderFig3 renders the basic-experiment series (Fig. 3) for one dataset.
func RenderFig3(dataset string, rows []Fig3Row) *tablewriter.Table {
	t := tablewriter.New(fmt.Sprintf("Fig. 3 (%s): acceptance probability vs alpha", dataset),
		"alpha", "pmax", "RAF", "HD", "SP", "avg |I|", "pairs", "skipped")
	for _, r := range rows {
		t.AddRow(r.Alpha, r.Pmax, r.RAF, r.HD, r.SP, r.AvgSize, r.Pairs, r.Skipped)
	}
	return t
}

// RenderGrowth renders a Fig. 4 / Fig. 5 series for one dataset.
func RenderGrowth(dataset string, res *GrowthResult) *tablewriter.Table {
	fig := "Fig. 4"
	if res.Baseline == "SP" {
		fig = "Fig. 5"
	}
	t := tablewriter.New(
		fmt.Sprintf("%s (%s): |I_%s|/|I_RAF| vs f(I_%s)/f(I_RAF)", fig, dataset, res.Baseline, res.Baseline),
		"f-ratio bin", "avg size ratio", "points")
	for _, b := range res.Bins {
		t.AddRow(b.XCenter, b.SizeRatio, b.Count)
	}
	return t
}

// RenderTable2 renders Table II rows across datasets.
func RenderTable2(names []string, rows []*VmaxRow) *tablewriter.Table {
	t := tablewriter.New("Table II: Comparing with Vmax (alpha = 0.1)",
		"dataset", "avg |Vmax|", "avg |I_RAF|", "avg ratio", "pairs")
	for i, r := range rows {
		name := fmt.Sprintf("#%d", i)
		if i < len(names) {
			name = names[i]
		}
		t.AddRow(name, r.AvgVmax, r.AvgRAF, r.AvgRatio, r.PairsUsed)
	}
	return t
}

// RenderFig6 renders the realization sweep (Fig. 6).
func RenderFig6(dataset string, pts []SweepPoint) *tablewriter.Table {
	t := tablewriter.New(fmt.Sprintf("Fig. 6 (%s): acceptance probability vs number of realizations", dataset),
		"realizations", "f(I)", "|I|")
	for _, p := range pts {
		t.AddRow(p.L, p.F, p.Size)
	}
	return t
}
