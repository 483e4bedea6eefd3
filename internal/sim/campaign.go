package sim

import "arbor/internal/adapt"

// Failure describes the first failing run of a campaign, after shrinking.
type Failure struct {
	// Run is the failing run's index within the campaign.
	Run int
	// Seed is the failing run's derived seed (campaign seed + run index).
	Seed int64
	// Violations are the invariant failures the shrunken input still
	// reproduces.
	Violations []Violation
	// Input is the shrunken run; scenario.FromInput writes it as a
	// replayable .arb file.
	Input Input
	// Decisions is the adaptation controller's journal from the shrunken
	// failing run (nil without Spec.Adapt) — the evidence trail for "what
	// was the controller doing when the invariant broke".
	Decisions []adapt.Decision
}

// Report summarizes a campaign.
type Report struct {
	Runs           int
	OpsExecuted    int
	FaultsInjected int
	// Reconfigurations totals the controller-driven migrations across all
	// runs (zero without Spec.Adapt).
	Reconfigurations int
	// Sheds and Overloaded total the replica-side typed refusals and the
	// operations that failed overloaded across all runs (zero unless the
	// schedules armed overload faults — see Spec.Overload).
	Sheds      uint64
	Overloaded int
	// Failure is nil when every run satisfied every invariant.
	Failure *Failure
}

// Campaign executes up to the given number of runs, deriving run i's seed
// as spec.Seed+i, and stops at the first invariant violation. The failing
// input is shrunk to a minimal reproducer before returning; the runs
// executed so far stay counted in the report either way.
func Campaign(spec Spec, runs int) (*Report, error) {
	rep := &Report{}
	for run := 0; run < runs; run++ {
		in, err := BuildInput(spec)
		if err != nil {
			return nil, err
		}
		res, err := Execute(in)
		if err != nil {
			return nil, err
		}
		rep.Runs++
		rep.OpsExecuted += res.OpsRun
		rep.FaultsInjected += res.FaultsApplied
		rep.Reconfigurations += res.Reconfigurations
		rep.Sheds += res.Sheds
		rep.Overloaded += res.Overloaded
		if res.Failed() {
			shrunk := Shrink(in)
			sres, err := Execute(shrunk)
			if err != nil {
				return nil, err
			}
			rep.Failure = &Failure{
				Run:        run,
				Seed:       in.Spec.Seed,
				Violations: sres.Violations,
				Input:      shrunk,
				Decisions:  sres.AdaptDecisions,
			}
			return rep, nil
		}
		spec.Seed++
	}
	return rep, nil
}
