package rpc

import (
	"bytes"
	"errors"
	"testing"

	"gpufs/internal/faults"
	"gpufs/internal/hostfs"
	"gpufs/internal/simtime"
)

// faultyHarness is harness with an injector installed on the server.
func faultyHarness(t *testing.T, cfg faults.Config) (*Server, *Client, *hostfs.FS, *faults.Injector) {
	t.Helper()
	srv, cl, host := harness(t)
	inj := faults.New(cfg)
	srv.SetFaultInjector(inj)
	host.SetFaultInjector(inj)
	return srv, cl, host, inj
}

func TestTransientFailuresAreRetried(t *testing.T) {
	srv, cl, host, inj := faultyHarness(t, faults.Config{Seed: 1, RPCTransientProb: 0.5})
	host.WriteFile(simtime.NewClock(0), "/f", bytes.Repeat([]byte("z"), 1024), rwMode)
	c := simtime.NewClock(0)

	f := open(t, cl, c, host, "/f", hostfs.O_RDONLY)
	dst := make([]byte, 1024)
	for i := 0; i < 50; i++ {
		var n int
		err := cl.Do(c, OpReadPages, readOp(cl, f, 0, dst, &n))
		if err != nil || n != 1024 {
			t.Fatalf("read %d under 0.5 transient rate: n=%d err=%v", i, n, err)
		}
	}
	if cl.Retries() == 0 {
		t.Fatalf("0.5 transient rate over 50 reads caused no retries")
	}
	if inj.Injected(faults.RPCTransient) == 0 {
		t.Fatalf("injector never fired")
	}
	// Each bounced attempt is a separate ring transaction.
	if srv.Requests(OpReadPages) <= 50 {
		t.Fatalf("request count %d does not include retries", srv.Requests(OpReadPages))
	}
}

func TestDroppedResponsesDedupExactlyOnce(t *testing.T) {
	// Every write's response has a 40% chance of being lost. The client
	// retries; the server's dedup table must keep retries from re-applying
	// the pwrite. The host inode's generation counts every applied
	// mutation, so N logical writes must move it by exactly N.
	srv, cl, host, _ := faultyHarness(t, faults.Config{Seed: 2, RPCDropResponseProb: 0.4})
	srv.cfg.MaxAttempts = 12 // drive per-op give-up odds to ~0
	host.WriteFile(simtime.NewClock(0), "/f", nil, rwMode)
	before, _ := host.Stat("/f")
	c := simtime.NewClock(0)

	f := open(t, cl, c, host, "/f", hostfs.O_RDWR)
	const writes = 40
	for i := 0; i < writes; i++ {
		if err := cl.Do(c, OpWritePages, writeOp(cl, f, int64(i), []byte{byte(i)})); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	after, _ := host.Stat("/f")
	if got := after.Generation - before.Generation; got != writes {
		t.Fatalf("%d writes moved generation by %d: dedup broken", writes, got)
	}
	if cl.Timeouts() == 0 {
		t.Fatalf("0.4 drop rate over %d writes caused no timeouts", writes)
	}
	// Lost responses cost virtual time: each timeout spins for cfg.Timeout.
	if c.Now() < simtime.Time(srv.cfg.Timeout) {
		t.Fatalf("timeouts cost no virtual time")
	}
}

func TestRetryBudgetExhaustion(t *testing.T) {
	srv, cl, host, _ := faultyHarness(t, faults.Config{Seed: 3, RPCDropResponseProb: 1.0})
	host.WriteFile(simtime.NewClock(0), "/f", []byte("x"), rwMode)
	c := simtime.NewClock(0)

	var f *hostfs.File
	err := cl.Do(c, OpOpen, openOp(host, "/f", hostfs.O_RDONLY, &f))
	if err == nil {
		t.Fatalf("open with every response dropped succeeded")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("exhaustion error is %v, want ErrTimeout", err)
	}
	if got := cl.Retries(); got != int64(srv.cfg.MaxAttempts-1) {
		t.Fatalf("retries = %d, want MaxAttempts-1 = %d", got, srv.cfg.MaxAttempts-1)
	}
}

func TestEIOIsNotRetried(t *testing.T) {
	// A real I/O error is a valid reply: it must come back on the first
	// attempt, not burn the retry budget.
	srv, cl, host, _ := faultyHarness(t, faults.Config{Seed: 4, HostReadEIOProb: 1.0})
	host.WriteFile(simtime.NewClock(0), "/f", []byte("data"), rwMode)
	c := simtime.NewClock(0)

	f := open(t, cl, c, host, "/f", hostfs.O_RDONLY)
	base := cl.Retries()
	var n int
	err := cl.Do(c, OpReadPages, readOp(cl, f, 0, make([]byte, 4), &n))
	if !errors.Is(err, hostfs.ErrIO) {
		t.Fatalf("read error = %v, want ErrIO", err)
	}
	if cl.Retries() != base {
		t.Fatalf("EIO consumed retries")
	}
	_ = srv
}

func TestHappyPathUnchangedByDisabledInjector(t *testing.T) {
	// With the injector disabled, request counts AND virtual timing must be
	// bit-identical to a server with no injector at all.
	run := func(install bool) (simtime.Time, int64) {
		srv, cl, host := harness(t)
		if install {
			inj := faults.New(faults.Config{Seed: 9, RPCDropResponseProb: 0.5})
			inj.SetEnabled(false)
			srv.SetFaultInjector(inj)
			host.SetFaultInjector(inj)
		}
		host.WriteFile(simtime.NewClock(0), "/f", bytes.Repeat([]byte("q"), 1<<16), rwMode)
		c := simtime.NewClock(0)
		f := open(t, cl, c, host, "/f", hostfs.O_RDWR)
		buf := make([]byte, 4096)
		for i := int64(0); i < 16; i++ {
			var n int
			if err := cl.Do(c, OpReadPages, readOp(cl, f, i*4096, buf, &n)); err != nil {
				t.Fatal(err)
			}
		}
		if err := cl.Do(c, OpWritePages, writeOp(cl, f, 0, buf)); err != nil {
			t.Fatal(err)
		}
		if err := cl.Do(c, OpClose, closeOp(f)); err != nil {
			t.Fatal(err)
		}
		return c.Now(), srv.TotalRequests()
	}
	bareT, bareN := run(false)
	injT, injN := run(true)
	if bareT != injT || bareN != injN {
		t.Fatalf("disabled injector perturbed the happy path: time %v vs %v, requests %d vs %d",
			bareT, injT, bareN, injN)
	}
}
