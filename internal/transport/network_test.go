package transport

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestSendAndReceive(t *testing.T) {
	n := NewNetwork(1, NetConfig{})
	defer n.Close()
	a, err := n.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Register(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, "hello"); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-b.Recv():
		if msg.From != 1 || msg.To != 2 || msg.Payload != "hello" {
			t.Errorf("got %+v", msg)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
	st := n.Stats()
	if st.Sent != 1 || st.Delivered != 1 || st.Dropped != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDrawJitterDeterministicPerSeed(t *testing.T) {
	for _, dist := range []JitterDist{JitterUniform, JitterExponential, JitterPareto} {
		r1 := rand.New(rand.NewSource(7))
		r2 := rand.New(rand.NewSource(7))
		for i := 0; i < 200; i++ {
			a := drawJitter(r1, dist, 10*time.Millisecond)
			b := drawJitter(r2, dist, 10*time.Millisecond)
			if a != b {
				t.Fatalf("dist %d draw %d: %v != %v with equal seeds", dist, i, a, b)
			}
		}
	}
}

func TestDrawJitterBoundsAndTails(t *testing.T) {
	const jitter = 10 * time.Millisecond
	caps := map[JitterDist]time.Duration{
		JitterUniform:     jitter,
		JitterExponential: 8 * jitter,
		JitterPareto:      16 * jitter,
	}
	for dist, cap := range caps {
		rng := rand.New(rand.NewSource(42))
		var overBase int
		for i := 0; i < 5000; i++ {
			d := drawJitter(rng, dist, jitter)
			if d < 0 || d > cap {
				t.Fatalf("dist %d drew %v outside [0, %v]", dist, d, cap)
			}
			if d > jitter {
				overBase++
			}
		}
		if dist == JitterUniform && overBase != 0 {
			t.Errorf("uniform drew %d samples above the jitter bound", overBase)
		}
		// The shaped distributions must actually produce a tail beyond the
		// uniform bound, else hedging benchmarks measure nothing.
		if dist != JitterUniform && overBase == 0 {
			t.Errorf("dist %d produced no delays above %v in 5000 draws", dist, jitter)
		}
	}
}

func TestJitterDistributionOptionWiring(t *testing.T) {
	n := NewNetwork(3, NetConfig{Jitter: time.Microsecond, JitterDist: JitterPareto})
	defer n.Close()
	a, err := n.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Register(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, "x"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Recv():
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
	// Pareto's minimum is jitter/4 > 0, so the delivery must be counted as
	// delayed.
	if st := n.Stats(); st.Delayed != 1 {
		t.Errorf("stats = %+v, want Delayed=1", st)
	}
}

func TestRegisterDuplicate(t *testing.T) {
	n := NewNetwork(1, NetConfig{})
	defer n.Close()
	if _, err := n.Register(1); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Register(1); !errors.Is(err, ErrDuplicateAddr) {
		t.Errorf("err = %v, want ErrDuplicateAddr", err)
	}
}

func TestSendUnknownDestination(t *testing.T) {
	n := NewNetwork(1, NetConfig{})
	defer n.Close()
	a, err := n.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(9, "x"); !errors.Is(err, ErrUnknownAddr) {
		t.Errorf("err = %v, want ErrUnknownAddr", err)
	}
	if st := n.Stats(); st.Dropped != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestClosedNetwork(t *testing.T) {
	n := NewNetwork(1, NetConfig{})
	a, err := n.Register(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.Register(2); err != nil {
		t.Fatal(err)
	}
	n.Close()
	n.Close() // idempotent
	if err := a.Send(2, "x"); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
	if _, err := n.Register(3); !errors.Is(err, ErrClosed) {
		t.Errorf("register after close: %v", err)
	}
}

func TestLatency(t *testing.T) {
	n := NewNetwork(1, NetConfig{Latency: 30 * time.Millisecond})
	defer n.Close()
	a, _ := n.Register(1)
	b, _ := n.Register(2)
	start := time.Now()
	if err := a.Send(2, "x"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Recv():
		if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
			t.Errorf("delivered after %v, want ≥ ~30ms", elapsed)
		}
	case <-time.After(time.Second):
		t.Fatal("message not delivered")
	}
}

func TestLatencyWithJitter(t *testing.T) {
	n := NewNetwork(3, NetConfig{Latency: 5 * time.Millisecond, Jitter: 10 * time.Millisecond})
	defer n.Close()
	a, _ := n.Register(1)
	b, _ := n.Register(2)
	for i := 0; i < 5; i++ {
		if err := a.Send(2, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		select {
		case <-b.Recv():
		case <-time.After(time.Second):
			t.Fatal("message not delivered")
		}
	}
}

func TestDropProbability(t *testing.T) {
	n := NewNetwork(1, NetConfig{DropProb: 1})
	defer n.Close()
	a, _ := n.Register(1)
	b, _ := n.Register(2)
	if err := a.Send(2, "x"); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-b.Recv():
		t.Errorf("message %v delivered despite 100%% loss", msg)
	case <-time.After(50 * time.Millisecond):
	}
	if st := n.Stats(); st.Dropped != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestDropsRepeatUnderSeed: random loss draws from the network's seeded
// source, so two networks seeded alike lose the same messages of one
// stream, and a chaos schedule replays.
func TestDropsRepeatUnderSeed(t *testing.T) {
	delivered := func() []int {
		n := NewNetwork(9, NetConfig{DropProb: 0.5})
		defer n.Close()
		a, _ := n.Register(1)
		b, _ := n.Register(2)
		for i := 0; i < 64; i++ {
			if err := a.Send(2, i); err != nil {
				t.Fatal(err)
			}
		}
		var got []int
		for len(b.Recv()) > 0 {
			got = append(got, (<-b.Recv()).Payload.(int))
		}
		return got
	}
	first, second := delivered(), delivered()
	if !reflect.DeepEqual(first, second) {
		t.Errorf("two networks seeded alike delivered\n%v\nand\n%v", first, second)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := NewNetwork(1, NetConfig{})
	defer n.Close()
	a, _ := n.Register(1)
	b, _ := n.Register(2)
	c, _ := n.Register(3)

	n.Partition([]Addr{1}, []Addr{2, 3})
	if err := a.Send(2, "blocked"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Recv():
		t.Error("cross-partition message delivered")
	case <-time.After(30 * time.Millisecond):
	}
	// Same-group traffic flows.
	if err := b.Send(3, "ok"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Recv():
	case <-time.After(time.Second):
		t.Fatal("same-partition message lost")
	}

	n.Heal()
	if err := a.Send(2, "healed"); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-b.Recv():
		if msg.Payload != "healed" {
			t.Errorf("got %v", msg.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("post-heal message lost")
	}
}

func TestUnlistedAddressesFormImplicitGroup(t *testing.T) {
	n := NewNetwork(1, NetConfig{})
	defer n.Close()
	a, _ := n.Register(1)
	b, _ := n.Register(2)
	n.Partition([]Addr{3}) // neither 1 nor 2 listed → both in group 0
	if err := a.Send(2, "x"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Recv():
	case <-time.After(time.Second):
		t.Fatal("implicit-group message lost")
	}
}

func TestBufferOverflowDrops(t *testing.T) {
	n := NewNetwork(1, NetConfig{})
	defer n.Close()
	a, _ := n.Register(1)
	if _, err := n.Register(2); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < inboxSize+3; i++ {
		if err := a.Send(2, i); err != nil {
			t.Fatal(err)
		}
	}
	st := n.Stats()
	if st.Delivered != inboxSize || st.Dropped != 3 {
		t.Errorf("stats = %+v, want %d delivered / 3 dropped", st, inboxSize)
	}
}

func TestEndpointAddr(t *testing.T) {
	n := NewNetwork(1, NetConfig{})
	defer n.Close()
	e, _ := n.Register(7)
	if e.Addr() != 7 {
		t.Errorf("Addr = %v", e.Addr())
	}
}

func TestLinkLatencyTopology(t *testing.T) {
	// Sites 1,2 share a zone; site 3 is remote: cross-zone links cost 40ms.
	zone := func(a Addr) int {
		if a <= 2 {
			return 0
		}
		return 1
	}
	n := NewNetwork(1, NetConfig{LinkLatency: func(from, to Addr) time.Duration {
		if zone(from) != zone(to) {
			return 40 * time.Millisecond
		}
		return 0
	}})
	defer n.Close()
	a, _ := n.Register(1)
	b, _ := n.Register(2)
	c, _ := n.Register(3)

	start := time.Now()
	if err := a.Send(2, "local"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-b.Recv():
		if e := time.Since(start); e > 20*time.Millisecond {
			t.Errorf("intra-zone delivery took %v", e)
		}
	case <-time.After(time.Second):
		t.Fatal("local message lost")
	}

	start = time.Now()
	if err := a.Send(3, "remote"); err != nil {
		t.Fatal(err)
	}
	select {
	case <-c.Recv():
		if e := time.Since(start); e < 35*time.Millisecond {
			t.Errorf("cross-zone delivery took only %v, want ≥ ~40ms", e)
		}
	case <-time.After(time.Second):
		t.Fatal("remote message lost")
	}
}
