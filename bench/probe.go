package main

import (
	"bufio"
	"encoding/binary"
	"io"
	"net"
	"sync"
	"time"
)

// The machine probe is a fixed piece of work that no commit to arbor can
// change — it uses the standard library only — and that leans on the
// machine the way the benchmark does: two closed-loop callers, each op a
// parallel fan-out of two framed messages over loopback TCP to servers
// that, like a replica, hand every frame from a read-loop goroutine to an
// event-loop goroutine and write the reply from there.
//
// It exists because the reference box has phases, lasting a minute to a
// quarter of an hour, in which all of this gets slower together by up to a
// third (README.md has the measurements), while a register-only loop slows
// by a tenth at most: goroutine hand-overs, wake-ups and socket calls are
// what suffers, so that is what the probe does. Timing it before and after
// every trial says how fast the machine was during the trial, and the
// trial's timings are reported as they would have read at the probe's
// nominal speed.
const (
	probeServers = 4
	probeOps     = 8000 // per caller
	probeFrame   = 64   // payload bytes, about a small arbor message
	// probeNominal is what the probe takes on the reference box in its
	// fast phase; a slowdown of 1.0 means "as fast as that".
	probeNominal = 285 * time.Millisecond
)

// machineSlowdown runs the probe once and returns measured time over
// nominal time: above 1 when the machine is slower than the reference.
func machineSlowdown() (float64, error) {
	d, err := machineProbe()
	if err != nil {
		return 0, err
	}
	return float64(d) / float64(probeNominal), nil
}

// readFrame reads one [4-byte length][payload] frame.
func readFrame(br *bufio.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	b := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	_, err := io.ReadFull(br, b)
	return b, err
}

func frame(payload []byte) []byte {
	out := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(out, uint32(len(payload)))
	copy(out[4:], payload)
	return out
}

// probeServe accepts connections until the listener closes. Each one gets
// a read loop that queues frames and an event loop that echoes them.
func probeServe(ln net.Listener, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		inbox := make(chan []byte, 64) // a caller has at most one frame in flight per connection
		wg.Add(2)
		go func() {
			defer wg.Done()
			defer close(inbox)
			br := bufio.NewReader(c)
			for {
				b, err := readFrame(br)
				if err != nil {
					return // the caller closed its end
				}
				inbox <- b
			}
		}()
		go func() {
			defer wg.Done()
			defer c.Close()
			for b := range inbox {
				if _, err := c.Write(frame(b)); err != nil {
					return
				}
			}
		}()
	}
}

// probeCall runs one caller: probeOps ops, each a frame to two servers in
// parallel, waiting for both echoes.
func probeCall(addrs []string, wg *sync.WaitGroup) error {
	conns := make([]net.Conn, len(addrs))
	replies := make([]chan struct{}, len(addrs))
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()
	for i, addr := range addrs {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		conns[i], replies[i] = c, make(chan struct{}, 1)
		wg.Add(1)
		go func(c net.Conn, got chan<- struct{}) {
			defer wg.Done()
			defer close(got)
			br := bufio.NewReader(c)
			for {
				if _, err := readFrame(br); err != nil {
					return
				}
				got <- struct{}{}
			}
		}(c, replies[i])
	}
	msg := frame(make([]byte, probeFrame))
	errs := make(chan error, 2)
	contact := func(s int) {
		if _, err := conns[s].Write(msg); err != nil {
			errs <- err
			return
		}
		if _, ok := <-replies[s]; !ok {
			errs <- io.ErrUnexpectedEOF
			return
		}
		errs <- nil
	}
	for i := 0; i < probeOps; i++ {
		go contact(i % len(addrs))
		go contact((i + 1) % len(addrs))
		e1, e2 := <-errs, <-errs
		if e1 != nil {
			return e1
		}
		if e2 != nil {
			return e2
		}
	}
	return nil
}

// machineProbe runs the fixed work once and returns how long it took.
// Every goroutine and socket it opened is gone when it returns.
func machineProbe() (time.Duration, error) {
	var wg sync.WaitGroup
	lns := make([]net.Listener, 0, probeServers)
	addrs := make([]string, 0, probeServers)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
		wg.Wait()
	}()
	for i := 0; i < probeServers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
		wg.Add(1)
		go probeServe(ln, &wg)
	}
	errs := make(chan error, callers)
	start := time.Now()
	for c := 0; c < callers; c++ {
		go func() { errs <- probeCall(addrs, &wg) }()
	}
	var first error
	for c := 0; c < callers; c++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return time.Since(start), first
}
