package main

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"

	"arbor/internal/client"
	"arbor/internal/core"
	"arbor/internal/obs"
	"arbor/internal/replica"
	"arbor/internal/transport"
	"arbor/internal/tree"
)

// walRoot picks the directory the run's journals live under and reports
// whether it is memory-backed. WAL.Append writes and syncs every record;
// on tmpfs that pays the WAL's code path but not a device's latency, which
// on this box's shared virtual disk did not repeat within a tenth between
// runs (see README.md). The fallback stays inside the checkout.
func walRoot() (dir string, tmpfs bool, err error) {
	shmErr := shmRoom()
	if shmErr == nil {
		if dir, shmErr = os.MkdirTemp("/dev/shm", "arborbench-"); shmErr == nil {
			return dir, true, nil
		}
	}
	if err = os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", false, err
	}
	if dir, err = os.MkdirTemp(".bench_build", "wal-"); err != nil {
		return "", false, err
	}
	fmt.Fprintf(os.Stderr, "WARNING: /dev/shm is unusable (%v); journals go to %s and fsync on a real device, so write timings will not repeat\n", shmErr, dir)
	return dir, false, nil
}

// shmNeeded is the room /dev/shm must have: a trial of large-value journals
// about 0.6 GiB before its directory is removed. The store drops a journal
// error, so on a full tmpfs the run would go on without the writes it is
// meant to pay for; a small /dev/shm (a container's default is 64 MiB) is
// treated as unusable instead.
const shmNeeded = 1 << 30

func shmRoom() error {
	var st syscall.Statfs_t
	if err := syscall.Statfs("/dev/shm", &st); err != nil {
		return err
	}
	if free := st.Bavail * uint64(st.Bsize); free < shmNeeded {
		return fmt.Errorf("%d MiB free, %d needed", free>>20, shmNeeded>>20)
	}
	return nil
}

// analyze returns the closed-form costs of the workload's tree (§3.2 of the
// paper), the yardstick measured contacts are held against.
func (w workloadDef) analyze() (core.Analysis, error) {
	t, err := tree.ParseSpec(w.spec)
	if err != nil {
		return core.Analysis{}, err
	}
	return core.Analyze(t), nil
}

// fixture is one cluster instance wired layer by layer, the way
// examples/tcpcluster does it: loopback TCP sockets with the binary codec,
// one replica with an attached journal per site, one client per caller.
// Product defaults everywhere (hedging, breakers, timeouts).
type fixture struct {
	net      *transport.TCPNetwork
	replicas []*replica.Replica
	wals     []*replica.WAL
	clients  []*client.Client
	walDir   string

	// Set only on a traced fixture: the shims around every endpoint and
	// the observer attached to read its hedge/retry/coalesce counters.
	tracer   *tracer
	observer *obs.Observer
}

// newFixture builds and starts a cluster for the workload's tree with its
// journals in a fresh directory under root. A non-nil tracer wraps every
// endpoint in a shim and attaches an observer to the clients.
func newFixture(w workloadDef, root string, tr *tracer) (fx *fixture, err error) {
	t, err := tree.ParseSpec(w.spec)
	if err != nil {
		return nil, err
	}
	proto, err := core.New(t)
	if err != nil {
		return nil, err
	}
	fx = &fixture{net: transport.NewTCPNetwork(), tracer: tr}
	defer func() {
		if err != nil {
			fx.close()
		}
	}()
	if fx.walDir, err = os.MkdirTemp(root, "trial-"); err != nil {
		return nil, err
	}
	wrap := func(c transport.Conn) transport.Conn { return c }
	var copts []client.Option
	if tr != nil {
		wrap = func(c transport.Conn) transport.Conn { return tr.wrap(c) }
		fx.observer = obs.NewObserver(0)
		copts = append(copts, client.WithObserver(fx.observer))
	}
	for _, site := range t.Sites() {
		ep, err := fx.net.Listen(transport.Addr(site))
		if err != nil {
			return nil, err
		}
		r := replica.New(int(site), wrap(ep))
		wal, err := replica.OpenWAL(filepath.Join(fx.walDir, fmt.Sprintf("site-%d.wal", site)))
		if err != nil {
			return nil, err
		}
		fx.wals = append(fx.wals, wal)
		r.Store().AttachJournal(wal)
		r.Start()
		fx.replicas = append(fx.replicas, r)
	}
	for c := 0; c < callers; c++ {
		id := -(c + 1)
		ep, err := fx.net.Dial(transport.Addr(id))
		if err != nil {
			return nil, err
		}
		fx.clients = append(fx.clients, client.New(id, wrap(ep), proto, copts...))
	}
	return fx, nil
}

// close tears the cluster down completely: clients, replicas, sockets,
// shims, journals and their directory.
func (fx *fixture) close() {
	for _, c := range fx.clients {
		c.Close()
	}
	for _, r := range fx.replicas {
		r.Stop()
	}
	fx.net.Close()
	if fx.tracer != nil {
		fx.tracer.stop()
	}
	for _, w := range fx.wals {
		_ = w.Close() // nothing reads the journal after the run
	}
	if fx.walDir != "" {
		_ = os.RemoveAll(fx.walDir)
	}
}

// journalBytes is the total size of the cluster's journals.
func (fx *fixture) journalBytes() uint64 {
	var total uint64
	for _, w := range fx.wals {
		if st, err := os.Stat(w.Path()); err == nil {
			total += uint64(st.Size())
		}
	}
	return total
}
