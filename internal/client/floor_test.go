package client

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"arbor/internal/obs"
	"arbor/internal/replica"
)

func ver(v uint64) replica.Timestamp { return replica.Timestamp{Version: v, Site: -1} }

// sameSet returns n distinct hashes that land in one set of the table.
func sameSet(n int) []uint64 {
	hs := make([]uint64, n)
	for i := range hs {
		hs[i] = 5 + uint64(i*len(floorTable{}.sets))
	}
	return hs
}

func TestFloorTable(t *testing.T) {
	t.Run("put never lowers", func(t *testing.T) {
		var ft floorTable
		ft.put(9, ver(7))
		ft.put(9, ver(3))
		ft.put(9, replica.Timestamp{})
		if got := ft.get(9); got != ver(7) {
			t.Errorf("floor = %v, want %v", got, ver(7))
		}
		ft.put(9, ver(8))
		if got := ft.get(9); got != ver(8) {
			t.Errorf("floor = %v, want %v", got, ver(8))
		}
		if got := ft.get(10); got != (replica.Timestamp{}) {
			t.Errorf("floor of a hash never put = %v, want none", got)
		}
	})
	t.Run("eviction keeps the way touched last", func(t *testing.T) {
		var ft floorTable
		h := sameSet(3)
		ft.put(h[0], ver(1))
		ft.put(h[1], ver(2))
		ft.put(h[0], ver(1)) // a touch: nothing to raise, still the last one used
		ft.put(h[2], ver(3))
		for i, want := range []replica.Timestamp{ver(1), {}, ver(3)} {
			if got := ft.get(h[i]); got != want {
				t.Errorf("floor of hash %d = %v, want %v", i, got, want)
			}
		}
		// A get is no touch: only operations that end in a put keep an entry.
		ft.get(h[0])
		ft.put(h[1], ver(4))
		if got := ft.get(h[0]); got != (replica.Timestamp{}) {
			t.Errorf("the way put longest ago survived an eviction: %v", got)
		}
	})
	t.Run("size", func(t *testing.T) {
		if size := unsafe.Sizeof(floorTable{}); size > 100<<10 {
			t.Errorf("table is %d bytes, over 100 KiB", size)
		}
	})
	t.Run("8 goroutines", func(t *testing.T) {
		var ft floorTable
		hs := append(sameSet(2), 77, 78) // two full sets, nothing evicted
		const rounds = 2000
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 1; i <= rounds; i++ {
					h := hs[(g+i)%len(hs)]
					before := ft.get(h)
					ft.put(h, ver(uint64(i)))
					if after := ft.get(h); before.After(after) {
						t.Errorf("floor went from %v down to %v", before, after)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		for _, h := range hs {
			if got := ft.get(h); got.Version < rounds-uint64(len(hs)) {
				t.Errorf("floor of %d ended at %v, want one of the last %d puts", h, got, len(hs))
			}
		}
	})
}

// randomSpec draws a tree of 1 to 5 physical levels of 1 to 4 sites.
func randomSpec(rng *rand.Rand) string {
	spec := "1"
	for u, levels := 0, 1+rng.Intn(5); u < levels; u++ {
		spec += fmt.Sprintf("-%d", 1+rng.Intn(4))
	}
	return spec
}

// TestHintedReadIsAPlainRead is the property the floor rests on: whatever
// the table says and whatever each member stores, a read with a floor
// returns the (Value, TS, Found) of a read without one, for h contacts when
// the winner is at or above the floor and 2h when it is not. The reference
// is a second client with the same seed, which therefore probes the same
// sites pass for pass, running bare zero-floor quorums.
func TestHintedReadIsAPlainRead(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	ctx := context.Background()
	refetches, tsOnly := uint64(0), uint64(0)
	for trial := 0; trial < 25; trial++ {
		spec := randomSpec(rng)
		// A hedge delay above the timeout: no hedges, and no measured
		// latency can reorder sites, so both clients stay in step.
		h := newMemHarness(t, spec, WithHedgeDelay(time.Hour))
		ep, err := h.net.Register(-2)
		if err != nil {
			t.Fatal(err)
		}
		ref := New(-2, ep, h.proto, WithTimeout(80*time.Millisecond), WithSeed(1), WithHedgeDelay(time.Hour))
		t.Cleanup(ref.Close)
		levels := h.proto.NumPhysicalLevels()
		for i := 0; i < 20; i++ {
			key := fmt.Sprintf("k%d", i)
			for _, r := range h.replicas {
				switch v := uint64(rng.Intn(8)); {
				case v == 0: // this member never stored the key
				case v == 1:
					r.Store().Apply(key, nil, ver(v)) // an empty value is a value
				default:
					r.Store().Apply(key, []byte(fmt.Sprintf("%s@%d", key, v)), ver(v))
				}
			}
			var floor replica.Timestamp // one time in ten there is none
			if v := uint64(rng.Intn(10)); v > 0 {
				floor = ver(v) // v8 and v9 are above every member
			}
			h.cli.floors.put(keyHash(key), floor)
			before := h.cli.Metrics().ReadRefetches

			got, err := h.cli.readQuorum(ctx, key, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.probeLevels(ctx, replica.ReadReq{Key: key}, "read", "read-quorum", nil)
			if err != nil {
				t.Fatal(err)
			}
			wantRefetch := want.Found && floor != (replica.Timestamp{}) && floor.After(want.TS)
			if wantRefetch {
				if want, err = ref.probeLevels(ctx, replica.ReadReq{Key: key}, "read", "read-quorum", nil); err != nil {
					t.Fatal(err)
				}
				want.Contacts += levels
				refetches++
			}
			if string(got.Value) != string(want.Value) || got.TS != want.TS || got.Found != want.Found || got.Contacts != want.Contacts {
				t.Fatalf("%s %s floor %v: hinted read = (%q, %v, %v, %d contacts), plain read = (%q, %v, %v, %d contacts)",
					spec, key, floor, got.Value, got.TS, got.Found, got.Contacts, want.Value, want.TS, want.Found, want.Contacts)
			}
			if n := h.cli.Metrics().ReadRefetches - before; (n == 1) != wantRefetch || n > 1 {
				t.Fatalf("%s %s floor %v, winner %v: %d refetches", spec, key, floor, want.TS, n)
			}
			raised := floor
			if got.Found && got.TS.After(floor) {
				raised = got.TS
			}
			if tbl := h.cli.floors.get(keyHash(key)); tbl != raised {
				t.Fatalf("%s %s: table says %v after a read of %v under floor %v", spec, key, tbl, got.TS, floor)
			}
		}
		for _, r := range h.replicas {
			tsOnly += r.Stats().ReadsTSOnly
		}
	}
	// The draw must have exercised both sides of the rule.
	if refetches < 20 || tsOnly < 100 {
		t.Errorf("%d refetches and %d value-less serves: the property was hardly tested", refetches, tsOnly)
	}
}

// TestSharedFloorEntryCostsARefetch: a key that shares its table entry with
// a key written more often sends that key's floor. Every such read pays a
// second quorum and returns exactly what it would have without the table.
func TestSharedFloorEntryCostsARefetch(t *testing.T) {
	h := newMemHarness(t, "1-2-3")
	ctx := context.Background()
	if _, err := h.cli.Write(ctx, "rare", []byte("r")); err != nil {
		t.Fatal(err)
	}
	var busy WriteResult
	for i := 0; i < 5; i++ {
		var err error
		if busy, err = h.cli.Write(ctx, "busy", []byte("b")); err != nil {
			t.Fatal(err)
		}
	}
	// What a 64-bit collision does: "rare" finds the floor of "busy".
	h.cli.floors.put(keyHash("rare"), busy.TS)
	for i := 1; i <= 3; i++ {
		rd, err := h.cli.Read(ctx, "rare")
		if err != nil || string(rd.Value) != "r" || rd.TS.Version != 1 || rd.Contacts != 4 {
			t.Fatalf("read %d = (%q, %v, %d contacts, %v), want r@v1 for 4 contacts", i, rd.Value, rd.TS, rd.Contacts, err)
		}
		if n := h.cli.Metrics().ReadRefetches; n != uint64(i) {
			t.Fatalf("%d refetches after %d reads under a shared entry", n, i)
		}
	}
	if rd, err := h.cli.Read(ctx, "busy"); err != nil || string(rd.Value) != "b" || rd.Contacts != 2 {
		t.Errorf("read of the entry's other key = (%q, %d contacts, %v)", rd.Value, rd.Contacts, err)
	}
}

// TestFloorRaisedByCleanCommitOnly: a write and a transaction raise the
// floor of what they wrote when every member acknowledged the commit, and
// leave it alone when the outcome is in doubt.
func TestFloorRaisedByCleanCommitOnly(t *testing.T) {
	h := newMemHarness(t, "1-2-3", WithTimeout(30*time.Millisecond))
	ctx := context.Background()
	floorOf := func(key string) replica.Timestamp { return h.cli.floors.get(keyHash(key)) }

	clean, err := h.cli.WriteAt(ctx, "k", []byte("v1"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := floorOf("k"); got != clean.TS {
		t.Errorf("floor after a clean write = %v, want %v", got, clean.TS)
	}
	h.replicas[0].SetFailPoint(replica.FailOnCommit) // site 1, level 0: votes yes, dies on the commit
	doubt, err := h.cli.WriteAt(ctx, "k", []byte("v2"), 0)
	if !errors.Is(err, ErrInDoubt) || !doubt.TS.After(clean.TS) {
		t.Fatalf("write through a member failing on commit = %v, %v; want in doubt above %v", doubt.TS, err, clean.TS)
	}
	if got := floorOf("k"); got != clean.TS {
		t.Errorf("floor after a write in doubt = %v, want it left at %v", got, clean.TS)
	}
	h.replicas[0].Recover(replica.SyncPlan{})

	txn := h.cli.NewTxn()
	for _, key := range []string{"a", "b"} {
		if err := txn.Write(key, []byte("t")); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a", "b"} {
		if got := floorOf(key); got != ver(1) {
			t.Errorf("floor of %q after its transaction committed = %v, want %v", key, got, ver(1))
		}
	}
}

// TestReadRefetchEndToEnd walks the one way a correct table entry ends up
// above a whole quorum: a member votes yes and crashes on the commit, the
// client then reads the new version from the member's sibling — that sets
// the floor — and the member comes back without catching up (an empty
// plan: it replays its journal and rejoins live) and is the only one of its
// level left to ask. Every level answers below the floor, the
// quorum is read again without one, and the client returns the old version:
// the stale read a client without a table returns here too (the in-doubt
// write is only partly applied), now counted and labelled on the trace.
func TestReadRefetchEndToEnd(t *testing.T) {
	o := obs.NewObserver(16)
	h := newMemHarness(t, "1-2-3", WithTimeout(30*time.Millisecond), WithHedging(false), WithObserver(o))
	ctx := context.Background()
	member, sibling := h.replicas[0], h.replicas[1] // sites 1 and 2: level 0

	old, err := h.cli.WriteAt(ctx, "k", []byte("old"), 0)
	if err != nil {
		t.Fatal(err)
	}
	member.SetFailPoint(replica.FailOnCommit)
	if _, err := h.cli.WriteAt(ctx, "k", []byte("new"), 0); !errors.Is(err, ErrInDoubt) {
		t.Fatalf("write = %v, want in doubt", err)
	}
	if !member.Crashed() {
		t.Fatal("the fail point did not fire")
	}
	rd, err := h.cli.Read(ctx, "k")
	if err != nil || string(rd.Value) != "new" {
		t.Fatalf("read through the sibling = %q, %v", rd.Value, err)
	}
	if n := h.cli.Metrics().ReadRefetches; n != 0 {
		t.Fatalf("%d refetches before anything was stale", n)
	}
	member.Recover(replica.SyncPlan{})
	sibling.Crash()

	rd, err = h.cli.Read(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	// The client without a table: a fresh one, asking the same members.
	ep, err := h.net.Register(-2)
	if err != nil {
		t.Fatal(err)
	}
	plain := New(-2, ep, h.proto, WithTimeout(30*time.Millisecond), WithHedging(false))
	defer plain.Close()
	want, err := plain.Read(ctx, "k")
	if err != nil {
		t.Fatal(err)
	}
	if string(rd.Value) != "old" || rd.TS != old.TS || string(rd.Value) != string(want.Value) || rd.TS != want.TS {
		t.Errorf("read through the recovered member = %q@%v, a client without a floor reads %q@%v, want old@%v from both", rd.Value, rd.TS, want.Value, want.TS, old.TS)
	}
	if m := h.cli.Metrics(); m.ReadRefetches != 1 {
		t.Errorf("ReadRefetches = %d, want 1", m.ReadRefetches)
	}
	if rd.Contacts < 4 {
		t.Errorf("contacts = %d, want both passes counted (at least 2 levels twice)", rd.Contacts)
	}
	if n := member.Stats().ReadsTSOnly; n != 1 {
		t.Errorf("the recovered member served %d reads without the value, want 1", n)
	}
	var sb strings.Builder
	if err := o.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "arbor_client_read_refetches_total 1\n") {
		t.Error("arbor_client_read_refetches_total is not 1 on /metrics")
	}

	// The trace shows both passes: level attempts read-quorum then
	// read-refetch, and the member's first answer as a read-ts contact.
	traces := o.Rec().Last(1)
	if len(traces) != 1 {
		t.Fatal("the read left no trace")
	}
	phases := map[string]int{}
	var memberContacts []string
	for _, at := range traces[0].Attempts {
		phases[at.Phase]++
		for _, c := range at.Contacts {
			if c.Site == member.Site() && c.Err == "" {
				memberContacts = append(memberContacts, c.Phase)
			}
		}
	}
	if phases["read-quorum"] != 2 || phases["read-refetch"] != 2 {
		t.Errorf("level attempts by phase = %v, want 2 read-quorum and 2 read-refetch", phases)
	}
	if got := strings.Join(memberContacts, ","); got != "read-ts,read" {
		t.Errorf("the member's contacts on the trace = %q, want read-ts,read", got)
	}
	if traces[0].Contacts != rd.Contacts {
		t.Errorf("trace counts %d contacts, the result %d", traces[0].Contacts, rd.Contacts)
	}
}
