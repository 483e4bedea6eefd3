package analysis

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"arbor/internal/core"
	"arbor/internal/tree"
)

func mustTree(t *testing.T, spec string) *tree.Tree {
	t.Helper()
	tr, err := tree.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestMonteCarloMatchesFormulasSmall(t *testing.T) {
	tr := mustTree(t, "1-3-5")
	a := core.Analyze(tr)
	for _, p := range []float64{0.6, 0.7, 0.9} {
		av, err := MonteCarloAvailability(tr, p, 200000, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(av.Read-a.ReadAvailability(p)) > 0.01 {
			t.Errorf("p=%v: MC read %v vs formula %v", p, av.Read, a.ReadAvailability(p))
		}
		if math.Abs(av.Write-a.WriteAvailability(p)) > 0.01 {
			t.Errorf("p=%v: MC write %v vs formula %v", p, av.Write, a.WriteAvailability(p))
		}
	}
}

// TestSamplersRepeatUnderSeed: both estimators draw only from their own
// seeded source, so a second call with the same seed returns the same
// estimate, however many draws other code made in between.
func TestSamplersRepeatUnderSeed(t *testing.T) {
	tr := mustTree(t, "1-3-5-7")
	av1, err := MonteCarloAvailability(tr, 0.7, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	ls1, err := SampleLoads(tr, 2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	rand.Int63() // another caller draws from the global source
	av2, _ := MonteCarloAvailability(tr, 0.7, 2000, 3)
	ls2, _ := SampleLoads(tr, 2000, 3)
	if av1 != av2 {
		t.Errorf("MonteCarloAvailability with one seed: %+v, then %+v", av1, av2)
	}
	if ls1 != ls2 {
		t.Errorf("SampleLoads with one seed: %+v, then %+v", ls1, ls2)
	}
}

// TestMonteCarloLargeTree validates the availability formulas at a size
// (n=400) where exact 2^n enumeration is impossible.
func TestMonteCarloLargeTree(t *testing.T) {
	tr, err := tree.Algorithm1(400)
	if err != nil {
		t.Fatal(err)
	}
	a := core.Analyze(tr)
	const p = 0.8
	av, err := MonteCarloAvailability(tr, p, 100000, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(av.Read-a.ReadAvailability(p)) > 0.01 {
		t.Errorf("MC read %v vs formula %v", av.Read, a.ReadAvailability(p))
	}
	if math.Abs(av.Write-a.WriteAvailability(p)) > 0.01 {
		t.Errorf("MC write %v vs formula %v", av.Write, a.WriteAvailability(p))
	}
}

func TestMonteCarloEdgeProbabilities(t *testing.T) {
	tr := mustTree(t, "1-2-4")
	av, err := MonteCarloAvailability(tr, 1, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if av.Read != 1 || av.Write != 1 {
		t.Errorf("p=1 availability = %+v, want 1/1", av)
	}
	av, err = MonteCarloAvailability(tr, 0, 1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if av.Read != 0 || av.Write != 0 {
		t.Errorf("p=0 availability = %+v, want 0/0", av)
	}
}

func TestMonteCarloValidation(t *testing.T) {
	tr := mustTree(t, "1-2-4")
	if _, err := MonteCarloAvailability(tr, 0.5, 0, 1); err == nil {
		t.Error("zero trials accepted")
	}
	if _, err := MonteCarloAvailability(tr, -0.5, 10, 1); err == nil {
		t.Error("negative p accepted")
	}
	if _, err := MonteCarloAvailability(tr, 1.5, 10, 1); err == nil {
		t.Error("p>1 accepted")
	}
}

func TestSampleLoadsMatchesFormulas(t *testing.T) {
	tr := mustTree(t, "1-3-5")
	a := core.Analyze(tr)
	ls, err := SampleLoads(tr, 60000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ls.Read-a.ReadLoad) > 0.02 {
		t.Errorf("sampled read load %v vs formula %v", ls.Read, a.ReadLoad)
	}
	if math.Abs(ls.Write-a.WriteLoad) > 0.02 {
		t.Errorf("sampled write load %v vs formula %v", ls.Write, a.WriteLoad)
	}
	if _, err := SampleLoads(tr, 0, 1); err == nil {
		t.Error("zero ops accepted")
	}
}

func TestValidateSummary(t *testing.T) {
	tr := mustTree(t, "1-4-4-8")
	v, err := Validate(tr, 0.8, 60000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v.N != 16 || v.P != 0.8 {
		t.Errorf("identity: %+v", v)
	}
	if v.MaxError() > 0.02 {
		t.Errorf("max deviation %v too large: %+v", v.MaxError(), v)
	}
}

// TestQuickMonteCarloAgreesWithFormulas fuzzes random trees and p.
func TestQuickMonteCarloAgreesWithFormulas(t *testing.T) {
	if testing.Short() {
		t.Skip("sampling-heavy")
	}
	property := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		counts := make([]int, 1+r.Intn(4))
		for i := range counts {
			counts[i] = 1 + r.Intn(6)
		}
		tr, err := tree.PhysicalLevelSizes(counts...)
		if err != nil {
			return false
		}
		p := 0.4 + r.Float64()*0.6
		a := core.Analyze(tr)
		av, err := MonteCarloAvailability(tr, p, 40000, seed)
		if err != nil {
			return false
		}
		if math.Abs(av.Read-a.ReadAvailability(p)) > 0.02 {
			t.Logf("seed %d (%s, p=%.3f): read MC %v vs %v", seed, tr.Spec(), p, av.Read, a.ReadAvailability(p))
			return false
		}
		if math.Abs(av.Write-a.WriteAvailability(p)) > 0.02 {
			t.Logf("seed %d (%s, p=%.3f): write MC %v vs %v", seed, tr.Spec(), p, av.Write, a.WriteAvailability(p))
			return false
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
