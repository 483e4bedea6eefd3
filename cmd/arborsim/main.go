// Command arborsim runs deterministic chaos campaigns against the
// tree-structured replica control protocol and replays .arb scenario
// files, the one textual description of a run.
//
// Campaign mode (the default) executes -runs seeded runs, each a fresh
// cluster driven through a random fault schedule interleaved with client
// traffic, and checks one-copy semantics plus the durability and
// quorum-structure invariants after every run. On the first violation the
// failing run is shrunk to a minimal fault schedule and op list, written to
// -o as a .arb scenario, and the command exits nonzero.
//
// With -adapt the adaptation controller runs live inside every run, so
// migrations interleave with the chaos schedule and the history checker
// judges one-copy semantics across them; -phases shapes the op stream into
// consecutive workload phases (the drift the controller reacts to). On a
// violation the failing run's decision journal is written as JSON next to
// the reproducer.
//
// Scenario mode (-scenario file-or-dir) replays .arb scenario files — a
// single file or every *.arb under a directory — through the same
// deterministic harness and judges each run against the file's expect
// assertions. A file without any, which is what a campaign's reproducer
// is, fails on every invariant violation, so replaying a reproducer is
// this mode too. A failing adaptive scenario leaves its decision journal
// under -artifacts, and the command exits nonzero after trying the whole
// corpus.
//
// Self-test mode (-selftest) arms a deliberate durability bug — restarts
// skip write-ahead-journal replay — and fails unless the campaign both
// catches it and shrinks the schedule to at most five events.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"arbor/internal/scenario"
	"arbor/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "arborsim:", err)
		os.Exit(1)
	}
}

// options are the command line: a run spec plus what to do with it.
type options struct {
	spec                sim.Spec
	runs                int
	scenario, artifacts string
	out, journal        string
	trace, selftest     bool
}

// parseFlags fills the run spec from the flags, the same sim.Spec a .arb
// file describes.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("arborsim", flag.ContinueOnError)
	fs.IntVar(&o.runs, "runs", 20, "campaign runs; run i uses seed+i")
	fs.Int64Var(&o.spec.Seed, "seed", 1, "base seed")
	fs.StringVar(&o.spec.Tree, "spec", "1-3-5", "replica tree spec")
	fs.StringVar((*string)(&o.spec.Profile), "profile", "balanced", "workload profile: mostly-read|mostly-write|balanced")
	fs.IntVar(&o.spec.Ops, "ops", 60, "client operations per run")
	fs.IntVar(&o.spec.Faults, "faults", 6, "fault events per run (0: none)")
	fs.IntVar(&o.spec.Clients, "clients", 2, "protocol clients per run")
	fs.IntVar(&o.spec.Keys, "keys", 4, "key-population size")
	fs.DurationVar(&o.spec.Timeout, "timeout", 40*time.Millisecond, "client failure-detection deadline")
	fs.BoolVar(&o.spec.AntiEntropy, "antientropy", false, "recover replicas through anti-entropy catch-up and enforce the durability margin")
	fs.BoolVar(&o.spec.Overload, "overload", false, "add a derived overload stretch per run (saturate window + occasional graceful drain)")
	fs.BoolVar(&o.spec.Adapt, "adapt", false, "run the adaptation controller during each run (live migrations under chaos)")
	fs.IntVar(&o.spec.AdaptEvery, "adapt-every", 0, "op stride between controller steps (default 10)")
	fs.Func("phases", `workload phases "profile:ops[,profile:ops...]" (overrides -profile and -ops)`, func(v string) (err error) {
		o.spec.Phases, err = sim.ParsePhases(v)
		return err
	})
	fs.StringVar(&o.scenario, "scenario", "", "replay a .arb scenario file (or every *.arb in a directory) and check its expect assertions")
	fs.StringVar(&o.artifacts, "artifacts", ".", "directory for failing scenarios' decision journals (with -scenario)")
	fs.StringVar(&o.out, "o", "arborsim-repro.arb", "write the shrunk reproducer here on campaign failure (replay it with -scenario)")
	fs.StringVar(&o.journal, "journal", "arborsim-journal.json", "write the failing run's decision journal here on campaign failure (with -adapt)")
	fs.BoolVar(&o.trace, "trace", false, "print the per-op trace")
	fs.BoolVar(&o.selftest, "selftest", false, "inject a WAL-replay bug and verify the campaign catches it")
	err := fs.Parse(args)
	return o, err
}

func run(args []string) error {
	o, err := parseFlags(args)
	switch {
	case err != nil:
		return err
	case o.scenario != "":
		return replayScenarios(o.scenario, o.artifacts, o.trace)
	case o.selftest:
		return selftest(o.spec, o.runs)
	}
	return campaign(o.spec, o.runs, o.out, o.journal, o.trace)
}

func campaign(spec sim.Spec, runs int, out, journal string, trace bool) error {
	rep, err := sim.Campaign(spec, runs)
	if err != nil {
		return err
	}
	mode := "instant recovery"
	if spec.AntiEntropy {
		mode = "anti-entropy recovery"
	}
	fmt.Printf("campaign: %d runs, %d ops, %d faults injected (spec %s, profile %s, seed %d, %s)\n",
		rep.Runs, rep.OpsExecuted, rep.FaultsInjected, spec.Tree, spec.Profile, spec.Seed, mode)
	if !spec.AntiEntropy {
		fmt.Printf("campaign: %d durability-margin gap(s) across %d run(s)\n", rep.MarginGaps, rep.GappedRuns)
	}
	if spec.Adapt {
		fmt.Printf("campaign: %d controller-driven reconfiguration(s)\n", rep.Reconfigurations)
	}
	if spec.Overload {
		fmt.Printf("campaign: %d replica shed(s), %d op(s) failed overloaded\n", rep.Sheds, rep.Overloaded)
	}
	if rep.Failure == nil {
		fmt.Println("campaign: all invariants held")
		return nil
	}
	f := rep.Failure
	for _, v := range f.Violations {
		fmt.Println("violation:", v.Error())
	}
	if trace {
		printTrace(f.Input)
	}
	if err := os.WriteFile(out, []byte(scenario.FromInput(f.Input).String()), 0o644); err != nil {
		return fmt.Errorf("write reproducer: %w", err)
	}
	// With the controller live, the failing run's decision journal is part
	// of the evidence: persist it next to the reproducer so CI can archive
	// both and a human can see which migrations surrounded the violation.
	if spec.Adapt {
		data, err := json.MarshalIndent(f.Decisions, "", "  ")
		if err != nil {
			return fmt.Errorf("encode decision journal: %w", err)
		}
		if err := os.WriteFile(journal, data, 0o644); err != nil {
			return fmt.Errorf("write decision journal: %w", err)
		}
		fmt.Printf("campaign: decision journal (%d entries) written to %s\n", len(f.Decisions), journal)
	}
	return fmt.Errorf("run %d (seed %d) violated %d invariant(s); shrunk reproducer written to %s (replay: arborsim -scenario %s)",
		f.Run, f.Seed, len(f.Violations), out, out)
}

// replayScenarios replays one scenario file or a whole corpus directory.
// Every file runs even after a failure, so one broken scenario doesn't
// hide another, and the error totals them up at the end.
func replayScenarios(path, artifacts string, trace bool) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	files := []string{path}
	if info.IsDir() {
		files, err = filepath.Glob(filepath.Join(path, "*.arb"))
		if err != nil {
			return err
		}
		if len(files) == 0 {
			return fmt.Errorf("no *.arb scenarios under %s", path)
		}
		sort.Strings(files)
	}
	failed := 0
	for _, f := range files {
		if err := replayScenario(f, artifacts, trace); err != nil {
			fmt.Fprintln(os.Stderr, "scenario:", err)
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d scenario(s) failed", failed, len(files))
	}
	fmt.Printf("scenarios: all %d passed\n", len(files))
	return nil
}

// replayScenario compiles and executes one .arb file and judges the run
// against its expect assertions. A scenario without any expect lines
// still fails on invariant violations — silence is not a pass.
func replayScenario(path, artifacts string, trace bool) error {
	spec, err := scenario.Load(path)
	if err != nil {
		return err
	}
	in, err := sim.BuildInput(spec.Spec)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	res, err := sim.Execute(in)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	name := spec.Name
	if name == "" {
		name = strings.TrimSuffix(filepath.Base(path), ".arb")
	}
	if trace {
		for _, line := range res.Trace {
			fmt.Println(line)
		}
	}
	fmt.Printf("scenario %s: %d ops, %d faults applied, %d unavailable, %d margin gap(s), %d reconfiguration(s), final spec %s\n",
		name, res.OpsRun, res.FaultsApplied, res.Failures, len(res.MarginGaps), res.Reconfigurations, res.FinalSpec)
	fails := spec.Check(res)
	if len(spec.Expects) == 0 {
		for _, v := range res.Violations {
			fails = append(fails, fmt.Sprintf("no expects declared and an invariant violated: %v", v))
		}
	}
	if len(fails) == 0 {
		fmt.Printf("scenario %s: all %d expectation(s) held\n", name, len(spec.Expects))
		return nil
	}
	for _, f := range fails {
		fmt.Printf("scenario %s: FAIL %s\n", name, f)
	}
	if spec.Adapt {
		data, err := json.MarshalIndent(res.AdaptDecisions, "", "  ")
		if err != nil {
			return fmt.Errorf("%s: encode decision journal: %w", path, err)
		}
		journalPath := filepath.Join(artifacts, name+".journal.json")
		if err := os.WriteFile(journalPath, data, 0o644); err != nil {
			return fmt.Errorf("%s: write decision journal: %w", path, err)
		}
	}
	return fmt.Errorf("%s: %d expectation(s) failed", path, len(fails))
}

// selftest proves the harness end to end: with WAL replay skipped on
// restart, a campaign must find a lost acknowledged write and shrink the
// fault schedule to at most five events.
func selftest(spec sim.Spec, runs int) error {
	spec.SkipWALReplay = true
	rep, err := sim.Campaign(spec, runs)
	if err != nil {
		return err
	}
	if rep.Failure == nil {
		return fmt.Errorf("selftest: campaign of %d runs missed the injected WAL-replay bug", rep.Runs)
	}
	f := rep.Failure
	sched := scenario.FromInput(f.Input).Schedule // the faults, without phase markers
	if n := len(sched); n > 5 {
		return fmt.Errorf("selftest: shrunk schedule still has %d events (want ≤ 5): %q", n, sched)
	}
	fmt.Printf("selftest: bug found at run %d (seed %d) and shrunk to %d op(s), schedule %q\n",
		f.Run, f.Seed, len(f.Input.Ops), sched)
	return nil
}

func printTrace(in sim.Input) {
	res, err := sim.Execute(in)
	if err != nil {
		fmt.Println("trace unavailable:", err)
		return
	}
	for _, line := range res.Trace {
		fmt.Println(line)
	}
}
