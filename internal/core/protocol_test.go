package core

import (
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"arbor/internal/quorum"
	"arbor/internal/tree"
)

func newProtocol(t *testing.T, spec string) *Protocol {
	t.Helper()
	tr, err := tree.ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	p, err := New(tr)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("New(nil) succeeded")
	}
	tr := tree.Figure1()
	p, err := New(tr)
	if err != nil {
		t.Fatal(err)
	}
	if p.Tree() != tr {
		t.Error("Tree() does not return the bound tree")
	}
	if p.NumPhysicalLevels() != 2 {
		t.Errorf("NumPhysicalLevels = %d, want 2", p.NumPhysicalLevels())
	}
}

func TestEnumerateBiCoterieFigure1(t *testing.T) {
	p := newProtocol(t, "1-3-5+4")
	bc, err := p.EnumerateBiCoterie()
	if err != nil {
		t.Fatal(err)
	}
	if got := bc.Reads.Len(); got != 15 {
		t.Errorf("m(R) = %d, want 15", got)
	}
	if got := bc.Writes.Len(); got != 2 {
		t.Errorf("m(W) = %d, want 2", got)
	}
	if err := bc.Validate(); err != nil {
		t.Errorf("bicoterie property violated: %v", err)
	}
	// Every read quorum has exactly one site per physical level.
	for _, q := range bc.Reads.Quorums() {
		if len(q) != 2 {
			t.Errorf("read quorum %v has size %d, want 2", q, len(q))
		}
	}
	// The write quorums are the two levels exactly.
	if got := bc.Writes.Quorum(0); len(got) != 3 {
		t.Errorf("level-1 write quorum = %v, want 3 sites", got)
	}
	if got := bc.Writes.Quorum(1); len(got) != 5 {
		t.Errorf("level-2 write quorum = %v, want 5 sites", got)
	}
}

func TestEnumerateTooLarge(t *testing.T) {
	tr, err := tree.Algorithm1(4096) // m(R) = 4^7 * huge » 2^16
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.EnumerateBiCoterie(); err == nil {
		t.Error("enumeration of a huge system should fail")
	}
}

// TestOptimalLoadsMatchLP verifies the appendix results mechanically: the
// closed-form loads 1/d and 1/|K_phy| equal the exact LP optimum of the
// enumerated quorum systems.
func TestOptimalLoadsMatchLP(t *testing.T) {
	specs := []string{
		"1-3-5",
		"1-2-4",
		"1-2-2-2",
		"1*-2-3",
		"1-8",
		"1-3-3-4",
		"1-2-3+1-4+2",
	}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			p := newProtocol(t, spec)
			a := Analyze(p.Tree())
			bc, err := p.EnumerateBiCoterie()
			if err != nil {
				t.Fatal(err)
			}
			readLP, _, err := quorum.OptimalLoad(bc.Reads)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(readLP-a.ReadLoad) > 1e-6 {
				t.Errorf("read load: LP %v vs closed form %v", readLP, a.ReadLoad)
			}
			writeLP, _, err := quorum.OptimalLoad(bc.Writes)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(writeLP-a.WriteLoad) > 1e-6 {
				t.Errorf("write load: LP %v vs closed form %v", writeLP, a.WriteLoad)
			}
		})
	}
}

// TestUniformStrategyAchievesOptimalLoad re-proves the appendix upper
// bounds: the paper's uniform strategies induce exactly the optimal loads.
func TestUniformStrategyAchievesOptimalLoad(t *testing.T) {
	p := newProtocol(t, "1-3-5+4")
	a := Analyze(p.Tree())
	bc, err := p.EnumerateBiCoterie()
	if err != nil {
		t.Fatal(err)
	}
	readLoad, err := quorum.InducedLoad(bc.Reads, quorum.Uniform(bc.Reads.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(readLoad-a.ReadLoad) > 1e-12 {
		t.Errorf("uniform read strategy induces %v, want %v", readLoad, a.ReadLoad)
	}
	writeLoad, err := quorum.InducedLoad(bc.Writes, quorum.Uniform(bc.Writes.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(writeLoad-a.WriteLoad) > 1e-12 {
		t.Errorf("uniform write strategy induces %v, want %v", writeLoad, a.WriteLoad)
	}
}

// TestCertificates validates the Proposition 2.1 lower-bound certificates
// produced from the appendix proofs.
func TestCertificates(t *testing.T) {
	for _, spec := range []string{"1-3-5", "1-2-2-2", "1*-2-3", "1-8", "1-2-3+1-4+2"} {
		t.Run(spec, func(t *testing.T) {
			p := newProtocol(t, spec)
			a := Analyze(p.Tree())
			bc, err := p.EnumerateBiCoterie()
			if err != nil {
				t.Fatal(err)
			}
			if err := quorum.VerifyLowerBoundCertificate(bc.Reads, p.ReadLoadCertificate(), a.ReadLoad); err != nil {
				t.Errorf("read certificate invalid: %v", err)
			}
			if err := quorum.VerifyLowerBoundCertificate(bc.Writes, p.WriteLoadCertificate(), a.WriteLoad); err != nil {
				t.Errorf("write certificate invalid: %v", err)
			}
		})
	}
}

// TestAvailabilityFormulasMatchExactEnumeration checks the closed-form
// availabilities against exhaustive world-state enumeration of the real
// quorum systems.
func TestAvailabilityFormulasMatchExactEnumeration(t *testing.T) {
	for _, spec := range []string{"1-3-5", "1-2-4", "1-2-2-2", "1-8", "1*-2-3"} {
		for _, p := range []float64{0.55, 0.7, 0.9} {
			proto := newProtocol(t, spec)
			a := Analyze(proto.Tree())
			bc, err := proto.EnumerateBiCoterie()
			if err != nil {
				t.Fatal(err)
			}
			exactR, err := quorum.ExactAvailability(bc.Reads, p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(exactR-a.ReadAvailability(p)) > 1e-9 {
				t.Errorf("%s p=%v: read availability formula %v vs exact %v",
					spec, p, a.ReadAvailability(p), exactR)
			}
			exactW, err := quorum.ExactAvailability(bc.Writes, p)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(exactW-a.WriteAvailability(p)) > 1e-9 {
				t.Errorf("%s p=%v: write availability formula %v vs exact %v",
					spec, p, a.WriteAvailability(p), exactW)
			}
		}
	}
}

func TestPickReadQuorumUniform(t *testing.T) {
	p := newProtocol(t, "1-3-5+4")
	r := rand.New(rand.NewSource(7))
	counts := make(map[tree.SiteID]int)
	const trials = 30000
	for i := 0; i < trials; i++ {
		q := p.PickReadQuorum(r)
		if len(q) != 2 {
			t.Fatalf("read quorum size %d, want 2", len(q))
		}
		for _, s := range q {
			counts[s]++
		}
	}
	// Level 1 sites (1..3) should each appear ~trials/3; level 2 sites
	// (4..8) ~trials/5.
	for s := tree.SiteID(1); s <= 3; s++ {
		got := float64(counts[s]) / trials
		if math.Abs(got-1.0/3) > 0.02 {
			t.Errorf("site %d frequency %v, want ≈1/3", s, got)
		}
	}
	for s := tree.SiteID(4); s <= 8; s++ {
		got := float64(counts[s]) / trials
		if math.Abs(got-0.2) > 0.02 {
			t.Errorf("site %d frequency %v, want ≈1/5", s, got)
		}
	}
}

func TestPickWriteQuorumUniform(t *testing.T) {
	p := newProtocol(t, "1-3-5+4")
	r := rand.New(rand.NewSource(11))
	levelCount := make([]int, 2)
	const trials = 20000
	for i := 0; i < trials; i++ {
		u, sites := p.PickWriteQuorum(r)
		levelCount[u]++
		wantSize := 3
		if u == 1 {
			wantSize = 5
		}
		if len(sites) != wantSize {
			t.Fatalf("level %d quorum size %d, want %d", u, len(sites), wantSize)
		}
	}
	for u, c := range levelCount {
		got := float64(c) / trials
		if math.Abs(got-0.5) > 0.02 {
			t.Errorf("level %d picked with frequency %v, want ≈1/2", u, got)
		}
	}
}

// TestPicksRepeatUnderSeed: the samplers draw only from the source they
// are handed, so two sources seeded alike pick the same quorums in the
// same order. A figure regenerated from a seed depends on it.
func TestPicksRepeatUnderSeed(t *testing.T) {
	p := newProtocol(t, "1-3-5-7")
	picks := func(seed int64) (reads [][]tree.SiteID, writes []int) {
		r := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			reads = append(reads, p.PickReadQuorum(r))
			u, _ := p.PickWriteQuorum(r)
			writes = append(writes, u)
		}
		return reads, writes
	}
	r1, w1 := picks(5)
	r2, w2 := picks(5)
	if !reflect.DeepEqual(r1, r2) {
		t.Error("PickReadQuorum differs between two sources seeded alike")
	}
	if !reflect.DeepEqual(w1, w2) {
		t.Error("PickWriteQuorum differs between two sources seeded alike")
	}
}

func TestWriteQuorumAccessor(t *testing.T) {
	p := newProtocol(t, "1-3-5")
	if got := p.WriteQuorum(0); len(got) != 3 {
		t.Errorf("WriteQuorum(0) = %v", got)
	}
	if got := p.LevelSites(1); len(got) != 5 {
		t.Errorf("LevelSites(1) = %v", got)
	}
}

func TestEnumerateCountMatchesFact321(t *testing.T) {
	// Fact 3.2.1: m(R) = ∏ m_phy(k) for several shapes, via enumeration.
	for _, spec := range []string{"1-3-5", "1-2-2-2", "1-2-3+1-4+2", "1*-2-3"} {
		p := newProtocol(t, spec)
		bc, err := p.EnumerateBiCoterie()
		if err != nil {
			t.Fatal(err)
		}
		want := p.Tree().ReadQuorumCount()
		if got := big.NewInt(int64(bc.Reads.Len())); got.Cmp(want) != 0 {
			t.Errorf("%s: enumerated %v read quorums, fact says %v", spec, got, want)
		}
		if got := bc.Writes.Len(); got != p.Tree().WriteQuorumCount() {
			t.Errorf("%s: enumerated %d write quorums, fact says %d", spec, got, p.Tree().WriteQuorumCount())
		}
	}
}
