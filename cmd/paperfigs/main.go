// Command paperfigs regenerates every table and figure of the paper's
// evaluation: Table 1, the §3.4 worked example, Figures 2–4, the §3.3
// asymptotic availabilities, and the new lower-bound comparison — and, with
// -exp live, Figure 2's costs measured on a running cluster.
//
// Usage:
//
//	paperfigs                  # everything
//	paperfigs -exp fig3        # one experiment
//	paperfigs -exp live        # measured contacts across the spectrum, n=65
//	paperfigs -maxn 500 -p 0.8 # sweep and availability parameters
//	paperfigs -csv             # machine-readable series output
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"arbor/internal/analysis"
	"arbor/internal/core"
	"arbor/internal/figures"
	"arbor/internal/tree"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "paperfigs:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("paperfigs", flag.ContinueOnError)
	var (
		exp  = fs.String("exp", "all", "experiment: table1, example34, fig2, fig3, fig4, limits, lowerbound, validate, ablation, context, availability, correlated, live or all")
		maxN = fs.Int("maxn", 300, "largest system size in the figure sweeps")
		p    = fs.Float64("p", figures.DefaultP, "per-replica availability for expected loads")
		csv  = fs.Bool("csv", false, "emit figure series as CSV instead of text tables")
		plot = fs.Bool("plot", false, "append an ASCII chart to each figure")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	wants := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if wants("table1") {
		fmt.Println(figures.RenderTable1())
		ran = true
	}
	if wants("example34") {
		fmt.Println(figures.RenderExample34())
		ran = true
	}
	if wants("fig2") {
		s := figures.Figure2(*maxN)
		emitSeries("Figure 2 — communication costs of read and write operations",
			"read_cost", "write_cost", s, *csv)
		if *plot {
			fmt.Println(figures.Plot("Figure 2 (read costs)", s, figures.PlotRead, 64, 18))
			fmt.Println(figures.Plot("Figure 2 (write costs)", s, figures.PlotWrite, 64, 18))
		}
		ran = true
	}
	if wants("fig3") {
		s := figures.Figure3(*maxN, *p)
		emitSeries(fmt.Sprintf("Figure 3 — (expected) system loads of read operations (p=%.2f)", *p),
			"load", "expected_load", s, *csv)
		if *plot {
			fmt.Println(figures.Plot("Figure 3 (read loads)", s, figures.PlotRead, 64, 18))
		}
		ran = true
	}
	if wants("fig4") {
		s := figures.Figure4(*maxN, *p)
		emitSeries(fmt.Sprintf("Figure 4 — (expected) system loads of write operations (p=%.2f)", *p),
			"load", "expected_load", s, *csv)
		if *plot {
			fmt.Println(figures.Plot("Figure 4 (write loads)", s, figures.PlotWrite, 64, 18))
		}
		ran = true
	}
	if wants("limits") {
		fmt.Println(figures.RenderLimits())
		ran = true
	}
	if wants("lowerbound") {
		fmt.Println(figures.RenderLowerBound())
		ran = true
	}
	if wants("validate") {
		if err := emitValidation(*p); err != nil {
			return err
		}
		ran = true
	}
	if wants("correlated") {
		if err := emitCorrelated(); err != nil {
			return err
		}
		ran = true
	}
	if wants("availability") {
		out, err := figures.RenderAvailabilityCurve(100)
		if err != nil {
			return err
		}
		fmt.Println(out)
		ran = true
	}
	if wants("context") {
		out, err := figures.RenderContext(*maxN/3, *p)
		if err != nil {
			return err
		}
		fmt.Println(out)
		ran = true
	}
	if wants("ablation") {
		out, err := figures.RenderAblation(64, *p)
		if err != nil {
			return err
		}
		fmt.Println(out)
		ran = true
	}
	if wants("live") {
		if err := emitLive(os.Stdout); err != nil {
			return err
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}

// emitCorrelated contrasts the paper's independent-failure availabilities
// with whole-level (zone-outage) correlated failures on the n=100
// Algorithm 1 tree.
func emitCorrelated() error {
	t, err := tree.Algorithm1(100)
	if err != nil {
		return err
	}
	a := core.Analyze(t)
	fmt.Println("correlated failures — independent replicas vs whole-level outages (n=100)")
	fmt.Printf("%5s %14s %14s %14s %14s\n", "p", "RD indep", "RD zone", "WR indep", "WR zone")
	for _, p := range []float64{0.8, 0.9, 0.95, 0.99} {
		cr, cw, err := analysis.CorrelatedAvailability(t, p)
		if err != nil {
			return err
		}
		fmt.Printf("%5.2f %14.4f %14.4f %14.4f %14.4f\n",
			p, a.ReadAvailability(p), cr, a.WriteAvailability(p), cw)
	}
	fmt.Println("\nzone-correlated outages invert the trade-off: reads decay with the level")
	fmt.Println("count while writes (any one surviving zone suffices) become near-perfect.")
	fmt.Println()
	return nil
}

// emitValidation cross-checks the closed forms against Monte Carlo
// estimates on representative trees (experiments V-AV and V-LD of
// DESIGN.md).
func emitValidation(p float64) error {
	fmt.Printf("validation — closed forms vs Monte Carlo (p=%.2f, 100k trials)\n", p)
	fmt.Printf("%-22s %10s %10s %10s %10s %10s %10s %10s %10s\n",
		"tree", "RDav form", "RDav MC", "WRav form", "WRav MC",
		"L_RD form", "L_RD MC", "L_WR form", "L_WR MC")
	specs := []string{"1-3-5", "1-4-4-8", "1-2-2-2-2"}
	for _, spec := range specs {
		t, err := tree.ParseSpec(spec)
		if err != nil {
			return err
		}
		if err := printValidation(t, p); err != nil {
			return err
		}
	}
	big, err := tree.Algorithm1(400)
	if err != nil {
		return err
	}
	return printValidation(big, p)
}

func printValidation(t *tree.Tree, p float64) error {
	v, err := analysis.Validate(t, p, 100000, 1)
	if err != nil {
		return err
	}
	name := t.Spec()
	if len(name) > 22 {
		name = fmt.Sprintf("Algorithm1(n=%d)", t.N())
	}
	fmt.Printf("%-22s %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f\n",
		name, v.ReadFormula, v.ReadEstimate, v.WriteFormula, v.WriteEstimate,
		v.ReadLoadFormula, v.ReadLoadSample, v.WriteLoad, v.WriteLoadSample)
	return nil
}

func emitSeries(title, readCol, writeCol string, series []figures.Series, csv bool) {
	if !csv {
		fmt.Println(figures.RenderSeries(title, readCol, writeCol, series))
		return
	}
	fmt.Printf("# %s\n", title)
	fmt.Printf("configuration,n,%s,%s\n", readCol, writeCol)
	for _, s := range series {
		for _, pt := range s.Points {
			fmt.Printf("%s,%d,%g,%g\n", strings.ToLower(s.Name), pt.N, pt.Read, pt.Write)
		}
	}
	fmt.Println()
}
