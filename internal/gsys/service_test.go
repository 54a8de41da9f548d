package gsys

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"gpufs/internal/faults"
	"gpufs/internal/hostfs"
	"gpufs/internal/pcie"
	"gpufs/internal/rpc"
	"gpufs/internal/simtime"
	"gpufs/internal/wrapfs"
)

// The file-semantics tests of the host syscall handlers, driven through
// gsys.Client exactly as internal/core drives them. Every read test runs
// on both read paths of the Service (staging copy and zero-copy), so both
// branches of sysRead and sysReadVec are covered.

const rwMode = hostfs.ModeRead | hostfs.ModeWrite

// harness is one GPU's syscall endpoint over a fresh host file system,
// rpc daemon and PCIe link.
type harness struct {
	srv  *rpc.Server
	rc   *rpc.Client // the consistency-metadata calls live on the rpc endpoint
	cl   *Client
	host *hostfs.FS
}

func newHarness(t testing.TB, zeroCopy bool) *harness {
	t.Helper()
	host := hostfs.New(hostfs.Options{
		DiskBandwidth:   132 * simtime.MBps,
		DiskSeek:        simtime.Millisecond,
		MemBandwidth:    6600 * simtime.MBps,
		CacheBytes:      64 << 20,
		SyscallOverhead: 4 * simtime.Microsecond,
	})
	bus := pcie.New(pcie.Config{
		Bandwidth:        5731 * simtime.MBps,
		DMALatency:       15 * simtime.Microsecond,
		Channels:         4,
		HostMemBandwidth: 6600 * simtime.MBps,
	}, host.MemBus())
	srv := rpc.NewServer(rpc.Config{
		PollInterval:  10 * simtime.Microsecond,
		HandleCost:    12 * simtime.Microsecond,
		ReturnLatency: 2 * simtime.Microsecond,
	}, wrapfs.New(host))
	rc := srv.NewClient(0, bus.NewLink(0, nil, 0))
	return &harness{srv: srv, rc: rc, cl: NewClient(NewService(srv, zeroCopy), rc), host: host}
}

// faulty installs an injector on the daemon and the host file system.
func (h *harness) faulty(cfg faults.Config) *faults.Injector {
	inj := faults.New(cfg)
	h.srv.SetFaultInjector(inj)
	h.host.SetFaultInjector(inj)
	return inj
}

// bothReadPaths runs fn as one subtest per read path of the Service.
func bothReadPaths(t *testing.T, fn func(t *testing.T, zeroCopy bool)) {
	for _, zc := range []bool{false, true} {
		name := "staging"
		if zc {
			name = "zerocopy"
		}
		t.Run(name, func(t *testing.T) { fn(t, zc) })
	}
}

func TestOpenReadWriteRoundTrip(t *testing.T) {
	bothReadPaths(t, func(t *testing.T, zeroCopy bool) {
		h := newHarness(t, zeroCopy)
		cl := h.cl
		c := simtime.NewClock(0)
		want := []byte("through the ring and back")
		if err := h.host.WriteFile(simtime.NewClock(0), "/f", want, rwMode); err != nil {
			t.Fatal(err)
		}

		fd, info, err := cl.Open(c, "/f", hostfs.O_RDWR, rwMode)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size != int64(len(want)) {
			t.Fatalf("size %d", info.Size)
		}

		dst := make([]byte, len(want))
		n, err := cl.ReadPages(c, fd, 0, dst)
		if err != nil || n != len(want) {
			t.Fatalf("read: n=%d err=%v", n, err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("payload mismatch")
		}

		if _, err := cl.WritePages(c, fd, int64(len(want)), []byte("!")); err != nil {
			t.Fatal(err)
		}
		st, err := cl.Stat(c, fd)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size != int64(len(want))+1 {
			t.Fatalf("after write, size %d", st.Size)
		}
		if err := cl.Fsync(c, fd); err != nil {
			t.Fatal(err)
		}
		if err := cl.Close(c, fd); err != nil {
			t.Fatal(err)
		}
		if err := cl.Close(c, fd); err == nil {
			t.Fatalf("double close should fail")
		}
		srv := h.srv
		if srv.Requests(rpc.OpOpen) != 1 || srv.Requests(rpc.OpReadPages) != 1 || srv.Requests(rpc.OpWritePages) != 1 {
			t.Fatalf("request counts wrong: %d %d %d",
				srv.Requests(rpc.OpOpen), srv.Requests(rpc.OpReadPages), srv.Requests(rpc.OpWritePages))
		}
		if c.Now() == 0 {
			t.Fatalf("RPCs should cost virtual time")
		}
	})
}

// TestZeroCopyReadSkipsStaging pins what the Service's read-path switch
// changes: the same strong read and the same vectored read each cost
// less host-memory-bus time with zero-copy on (no staging pass before
// the DMA), and land the same bytes.
func TestZeroCopyReadSkipsStaging(t *testing.T) {
	want := bytes.Repeat([]byte("0123456789abcdef"), 4096) // 64 KiB
	half := len(want) / 2
	run := func(zeroCopy bool) (readBusy, vecBusy simtime.Duration, got []byte) {
		h := newHarness(t, zeroCopy)
		if err := h.host.WriteFile(simtime.NewClock(0), "/f", want, rwMode); err != nil {
			t.Fatal(err)
		}
		c := simtime.NewClock(0)
		fd, _, err := h.cl.Open(c, "/f", hostfs.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		bus := h.host.MemBus()
		got = make([]byte, len(want))
		start := bus.Busy()
		if n, err := h.cl.ReadPages(c, fd, 0, got[:half]); err != nil || n != half {
			t.Fatalf("read: n=%d err=%v", n, err)
		}
		mid := bus.Busy()
		ns, _, err := h.cl.ReadPagesVecAsync(c, fd, int64(half), [][]byte{got[half : half+half/2], got[half+half/2:]})
		if err != nil || ns[0]+ns[1] != half {
			t.Fatalf("vec read: ns=%v err=%v", ns, err)
		}
		return mid - start, bus.Busy() - mid, got
	}
	stagedRead, stagedVec, staged := run(false)
	zcRead, zcVec, zc := run(true)
	if !bytes.Equal(staged, want) || !bytes.Equal(zc, want) {
		t.Fatalf("read paths returned different bytes")
	}
	if zcRead >= stagedRead {
		t.Fatalf("zero-copy read: host memory bus busy %v, not below staging's %v", zcRead, stagedRead)
	}
	if zcVec >= stagedVec {
		t.Fatalf("zero-copy vec read: host memory bus busy %v, not below staging's %v", zcVec, stagedVec)
	}
}

func TestUnknownFd(t *testing.T) {
	bothReadPaths(t, func(t *testing.T, zeroCopy bool) {
		cl := newHarness(t, zeroCopy).cl
		c := simtime.NewClock(0)
		if _, err := cl.ReadPages(c, 999, 0, make([]byte, 8)); err == nil {
			t.Fatalf("unknown fd read must fail")
		}
		if _, err := cl.Stat(c, 999); err == nil {
			t.Fatalf("unknown fd stat must fail")
		}
	})
}

func TestTruncateAndUnlink(t *testing.T) {
	h := newHarness(t, false)
	cl := h.cl
	c := simtime.NewClock(0)
	h.host.WriteFile(simtime.NewClock(0), "/f", make([]byte, 100), rwMode)

	fd, _, err := cl.Open(c, "/f", hostfs.O_RDWR, rwMode)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Truncate(c, fd, 10); err != nil {
		t.Fatal(err)
	}
	st, _ := cl.Stat(c, fd)
	if st.Size != 10 {
		t.Fatalf("truncate: size %d", st.Size)
	}
	cl.Close(c, fd)
	if err := cl.Unlink(c, "/f"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.host.Stat("/f"); err == nil {
		t.Fatalf("file survived unlink")
	}
}

// TestServerErrorPaths drives the handlers' error returns table-style:
// unknown descriptors across every fd-taking syscall, double close, and a
// truncation racing an in-flight read. Descriptor errors are real
// replies, never classified transient.
func TestServerErrorPaths(t *testing.T) {
	t.Run("unknown fd", func(t *testing.T) {
		bothReadPaths(t, func(t *testing.T, zeroCopy bool) {
			cl := newHarness(t, zeroCopy).cl
			c := simtime.NewClock(0)
			cases := []struct {
				name string
				call func() error
			}{
				{"close", func() error { return cl.Close(c, 404) }},
				{"read", func() error { _, err := cl.ReadPages(c, 404, 0, make([]byte, 8)); return err }},
				{"readAsync", func() error { _, _, err := cl.ReadPagesAsync(c, 404, 0, make([]byte, 8)); return err }},
				{"readVec", func() error {
					_, _, err := cl.ReadPagesVecAsync(c, 404, 0, [][]byte{make([]byte, 8)})
					return err
				}},
				{"write", func() error { _, err := cl.WritePages(c, 404, 0, []byte("x")); return err }},
				{"truncate", func() error { return cl.Truncate(c, 404, 0) }},
				{"stat", func() error { _, err := cl.Stat(c, 404); return err }},
				{"fsync", func() error { return cl.Fsync(c, 404) }},
			}
			for _, tc := range cases {
				err := tc.call()
				if err == nil {
					t.Errorf("%s on unknown fd succeeded", tc.name)
				} else if rpc.Retryable(err) || errors.Is(err, rpc.ErrTimeout) {
					t.Errorf("%s: unknown fd classified transient: %v", tc.name, err)
				}
			}
		})
	})

	t.Run("double close", func(t *testing.T) {
		h := newHarness(t, false)
		cl := h.cl
		c := simtime.NewClock(0)
		h.host.WriteFile(simtime.NewClock(0), "/f", []byte("x"), rwMode)
		fd, _, err := cl.Open(c, "/f", hostfs.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Close(c, fd); err != nil {
			t.Fatal(err)
		}
		err = cl.Close(c, fd)
		if err == nil {
			t.Fatalf("second close of %d succeeded", fd)
		}
		if rpc.Retryable(err) || errors.Is(err, rpc.ErrTimeout) {
			t.Fatalf("double close classified transient: %v", err)
		}
	})

	t.Run("truncate while read in flight", func(t *testing.T) {
		bothReadPaths(t, func(t *testing.T, zeroCopy bool) {
			h := newHarness(t, zeroCopy)
			h.host.WriteFile(simtime.NewClock(0), "/f", bytes.Repeat([]byte("ab"), 4096), rwMode)
			cr, ct := simtime.NewClock(0), simtime.NewClock(0)
			fd, _, err := h.cl.Open(cr, "/f", hostfs.O_RDWR, rwMode)
			if err != nil {
				t.Fatal(err)
			}
			// Both requests enter the ring at the same instant; the
			// single-threaded daemon serializes them in either order. The
			// read must return a prefix of the original content (full or
			// truncated), never garbage, and never a protocol error.
			type res struct {
				n   int
				err error
			}
			readDone := make(chan res)
			dst := make([]byte, 8192)
			go func() {
				n, err := h.cl.Bind(0).ReadPages(cr, fd, 0, dst)
				readDone <- res{n, err}
			}()
			if err := h.cl.Bind(1).Truncate(ct, fd, 16); err != nil {
				t.Fatal(err)
			}
			r := <-readDone
			if r.err != nil {
				t.Fatalf("in-flight read failed: %v", r.err)
			}
			if r.n != 16 && r.n != 8192 {
				t.Fatalf("read observed a partial truncate: n=%d", r.n)
			}
			want := bytes.Repeat([]byte("ab"), 4096)
			if !bytes.Equal(dst[:r.n], want[:r.n]) {
				t.Fatalf("read returned corrupt data")
			}
		})
	})
}

func TestValidatePiggybacksConsistency(t *testing.T) {
	h := newHarness(t, false)
	cl, rc, srv := h.cl, h.rc, h.srv
	c := simtime.NewClock(0)
	h.host.WriteFile(simtime.NewClock(0), "/f", []byte("x"), rwMode)
	info, _ := h.host.Stat("/f")

	rc.RecordCached(info.Ino, info.Generation)
	if !cl.Validate(c, info.Ino, info.Generation) {
		t.Fatalf("validate failed for fresh record")
	}
	if srv.Requests(rpc.OpValidate) != 1 {
		t.Fatalf("validate should be a daemon request")
	}
	// PeekValid costs no daemon request.
	before := srv.TotalRequests()
	if !rc.PeekValid(c, info.Ino, info.Generation) {
		t.Fatalf("peek failed")
	}
	if srv.TotalRequests() != before {
		t.Fatalf("peek must not go through the daemon")
	}
	rc.Forget(info.Ino)
	if rc.PeekValid(c, info.Ino, info.Generation) {
		t.Fatalf("peek after forget")
	}
}

func TestValidateConservativeUnderTimeout(t *testing.T) {
	h := newHarness(t, false)
	h.faulty(faults.Config{Seed: 6, RPCDropResponseProb: 1.0})
	h.host.WriteFile(simtime.NewClock(0), "/f", []byte("x"), rwMode)
	info, _ := h.host.Stat("/f")
	h.rc.RecordCached(info.Ino, info.Generation)
	c := simtime.NewClock(0)
	if h.cl.Validate(c, info.Ino, info.Generation) {
		t.Fatalf("validate with all responses lost reported valid")
	}
}

func TestShortReadsAreCompleted(t *testing.T) {
	// The read handler's loop must assemble full pages despite injected
	// short reads, or fillPage would zero-fill mid-file data.
	bothReadPaths(t, func(t *testing.T, zeroCopy bool) {
		h := newHarness(t, zeroCopy)
		inj := h.faulty(faults.Config{Seed: 5, HostShortReadProb: 0.7})
		want := bytes.Repeat([]byte{0xA5, 0x5A, 0x33}, 3000)
		h.host.WriteFile(simtime.NewClock(0), "/f", want, rwMode)
		c := simtime.NewClock(0)

		fd, _, err := h.cl.Open(c, "/f", hostfs.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ {
			dst := make([]byte, len(want))
			n, err := h.cl.ReadPages(c, fd, 0, dst)
			if err != nil || n != len(want) {
				t.Fatalf("read %d: n=%d err=%v", i, n, err)
			}
			if !bytes.Equal(dst, want) {
				t.Fatalf("short-read completion returned corrupt data")
			}
		}
		if inj.Injected(faults.HostShortRead) == 0 {
			t.Fatalf("short reads never fired")
		}
	})
}

func TestReadPagesAsync(t *testing.T) {
	bothReadPaths(t, func(t *testing.T, zeroCopy bool) {
		h := newHarness(t, zeroCopy)
		cl := h.cl
		want := []byte("prefetch me")
		h.host.WriteFile(simtime.NewClock(0), "/f", want, rwMode)

		c := simtime.NewClock(0)
		fd, _, err := cl.Open(c, "/f", hostfs.O_RDONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		before := c.Now()
		dst := make([]byte, len(want))
		n, done, err := cl.ReadPagesAsync(c, fd, 0, dst)
		if err != nil || n != len(want) {
			t.Fatalf("async read: n=%d err=%v", n, err)
		}
		if !bytes.Equal(dst, want) {
			t.Fatalf("payload")
		}
		if c.Now() != before {
			t.Fatalf("async read must not advance the caller's clock (moved %v)", c.Now()-before)
		}
		if done <= before {
			t.Fatalf("completion time %v not in the future of %v", done, before)
		}
		if _, _, err := cl.ReadPagesAsync(c, 999, 0, dst); err == nil {
			t.Fatalf("unknown fd must fail")
		}
	})
}

// vecFile stages /vec with size bytes of a deterministic pattern and
// returns its content and an open descriptor.
func vecFile(t testing.TB, h *harness, size int) (int64, []byte) {
	t.Helper()
	data := make([]byte, size)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	if err := h.host.WriteFile(simtime.NewClock(0), "/vec", data, rwMode); err != nil {
		t.Fatal(err)
	}
	fd, _, err := h.cl.Open(simtime.NewClock(0), "/vec", hostfs.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	return fd, data
}

// sentinelVec builds pages destination frames of pageBytes each, filled
// with a sentinel so an untouched byte is distinguishable from a copied
// zero.
func sentinelVec(pages, pageBytes int) [][]byte {
	dsts := make([][]byte, pages)
	for i := range dsts {
		dsts[i] = bytes.Repeat([]byte{0xEE}, pageBytes)
	}
	return dsts
}

// TestReadPagesVecShortAtEOF pins the per-page count contract when the
// vector runs past end of file: full counts for covered pages, a short
// count for the page straddling EOF, zero for pages wholly past it — and
// the bytes of every untouched tail still hold the caller's sentinel.
func TestReadPagesVecShortAtEOF(t *testing.T) {
	bothReadPaths(t, func(t *testing.T, zeroCopy bool) {
		h := newHarness(t, zeroCopy)
		const page = 1024
		fd, data := vecFile(t, h, 2*page+512) // 2.5 pages

		dsts := sentinelVec(4, page)
		c := simtime.NewClock(0)
		ns, done, err := h.cl.ReadPagesVecAsync(c, fd, 0, dsts)
		if err != nil {
			t.Fatal(err)
		}
		if done <= 0 {
			t.Fatalf("completion time %v not in the future", done)
		}
		want := []int{page, page, 512, 0}
		for i, n := range ns {
			if n != want[i] {
				t.Fatalf("page %d count = %d, want %d (ns=%v)", i, n, want[i], ns)
			}
			if n > 0 && !bytes.Equal(dsts[i][:n], data[i*page:i*page+n]) {
				t.Fatalf("page %d bytes differ from file content", i)
			}
			for j := n; j < page; j++ {
				if dsts[i][j] != 0xEE {
					t.Fatalf("page %d byte %d overwritten past the short count", i, j)
				}
			}
		}
		// Speculative reads must not advance the issuing block's clock.
		if c.Now() != 0 {
			t.Fatalf("async vec read advanced the block clock to %v", c.Now())
		}
	})
}

// TestReadPagesVecPersistentShortReads forces EVERY host pread short
// (probability 1) and checks the handler's reassembly loop still delivers
// the full extent: short reads are a host artifact the vec syscall must
// hide, not a result the GPU ever sees.
func TestReadPagesVecPersistentShortReads(t *testing.T) {
	bothReadPaths(t, func(t *testing.T, zeroCopy bool) {
		h := newHarness(t, zeroCopy)
		inj := h.faulty(faults.Config{Seed: 7, HostShortReadProb: 1})

		const page = 1024
		fd, data := vecFile(t, h, 4*page)

		dsts := sentinelVec(4, page)
		ns, _, err := h.cl.ReadPagesVecAsync(simtime.NewClock(0), fd, 0, dsts)
		if err != nil {
			t.Fatal(err)
		}
		for i, n := range ns {
			if n != page {
				t.Fatalf("page %d count = %d under short reads, want %d", i, n, page)
			}
			if !bytes.Equal(dsts[i], data[i*page:(i+1)*page]) {
				t.Fatalf("page %d bytes differ after short-read reassembly", i)
			}
		}
		if inj.Injected(faults.HostShortRead) < 2 {
			t.Fatalf("only %d short reads injected; the reassembly loop never ran",
				inj.Injected(faults.HostShortRead))
		}
	})
}

// TestReadPagesVecMidVectorEIO is the partial-failure oracle: short reads
// at probability 1 force the handler's reassembly loop to issue several
// preads per vec syscall, and a 30% EIO rate makes some of those
// CONTINUATION preads fail — an error striking after part of the extent
// has already been read. The contract under any such fault is
// all-or-nothing: either the call succeeds with exact per-page counts and
// bytes, or it returns the error with no counts and every destination
// frame untouched. No seed may leak a partially filled vector.
func TestReadPagesVecMidVectorEIO(t *testing.T) {
	const (
		page  = 1024
		pages = 4
		seeds = 120
	)
	bothReadPaths(t, func(t *testing.T, zeroCopy bool) {
		var sawClean, sawFirst, sawMid int
		for seed := int64(1); seed <= seeds; seed++ {
			h := newHarness(t, zeroCopy)
			inj := h.faulty(faults.Config{
				Seed:              seed,
				HostShortReadProb: 1,
				HostReadEIOProb:   0.3,
			})
			fd, data := vecFile(t, h, pages*page)

			dsts := sentinelVec(pages, page)
			ns, _, err := h.cl.ReadPagesVecAsync(simtime.NewClock(0), fd, 0, dsts)
			if err == nil {
				sawClean++
				for i, n := range ns {
					if n != page {
						t.Fatalf("seed %d: clean run page %d count = %d, want %d", seed, i, n, page)
					}
					if !bytes.Equal(dsts[i], data[i*page:(i+1)*page]) {
						t.Fatalf("seed %d: clean run page %d bytes differ", seed, i)
					}
				}
				continue
			}
			// Failed run: the fault may have hit the first pread or a
			// continuation pread after bytes were already staged; the
			// caller-visible result must be identical either way.
			if inj.Injected(faults.HostReadEIO) == 0 {
				t.Fatalf("seed %d: vec read failed without an injected EIO: %v", seed, err)
			}
			if inj.Injected(faults.HostShortRead) > 0 {
				sawMid++ // a short pread landed before the EIO: mid-vector failure
			} else {
				sawFirst++
			}
			for i, n := range ns {
				if n != 0 {
					t.Fatalf("seed %d: failed vec read leaked count %d for page %d", seed, n, i)
				}
			}
			for i := range dsts {
				if !bytes.Equal(dsts[i], bytes.Repeat([]byte{0xEE}, page)) {
					t.Fatalf("seed %d: failed vec read wrote into page %d", seed, i)
				}
			}
		}
		t.Logf("vec EIO oracle: %d clean, %d failed on first pread, %d failed mid-vector", sawClean, sawFirst, sawMid)
		if sawClean == 0 || sawMid == 0 {
			t.Fatalf("seed sweep unbalanced (clean=%d first=%d mid=%d); faults not exercising the mid-vector path",
				sawClean, sawFirst, sawMid)
		}
	})
}

// TestReadHandlersHostAllocs pins the Go allocation of the read handlers:
// file bytes move straight from the host file into the destination
// frames, so a 256 KiB page read allocates only the call's bookkeeping,
// not a page-sized staging buffer.
func TestReadHandlersHostAllocs(t *testing.T) {
	const (
		page  = 256 << 10
		pages = 4
		calls = 256
		limit = 16 << 10 // bytes allocated per call
	)
	bothReadPaths(t, func(t *testing.T, zeroCopy bool) {
		h := newHarness(t, zeroCopy)
		fd, data := vecFile(t, h, pages*page)
		dst := make([]byte, page)
		dsts := [][]byte{dst}
		c := simtime.NewClock(0)
		perCall := func(read func(off int64)) uint64 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for i := 0; i < calls; i++ {
				read(int64(i%pages) * page)
			}
			runtime.ReadMemStats(&after)
			return (after.TotalAlloc - before.TotalAlloc) / calls
		}
		check := func(name string, off int64) {
			if !bytes.Equal(dst, data[off:off+page]) {
				t.Fatalf("%s at %d: bytes differ from the file", name, off)
			}
		}
		got := perCall(func(off int64) {
			if n, err := h.cl.ReadPages(c, fd, off, dst); err != nil || n != page {
				t.Fatalf("ReadPages at %d: n=%d err=%v", off, n, err)
			}
			check("ReadPages", off)
		})
		if got >= limit {
			t.Errorf("ReadPages allocates %d B per 256 KiB page, want < %d", got, limit)
		}
		got = perCall(func(off int64) {
			ns, done, err := h.cl.ReadPagesVecAsync(c, fd, off, dsts)
			if err != nil || ns[0] != page {
				t.Fatalf("ReadPagesVecAsync at %d: ns=%v err=%v", off, ns, err)
			}
			c.AdvanceTo(done)
			check("ReadPagesVecAsync", off)
		})
		if got >= limit {
			t.Errorf("ReadPagesVecAsync allocates %d B per 256 KiB page, want < %d", got, limit)
		}
	})
}

// TestStagedReadMatchesDirectTiming: an injector that is enabled but
// fires nothing sends reads down readFull's staged reassembly path, and
// no injector sends them down the direct preadv. The two paths must be
// indistinguishable in virtual time and bytes, for the strong read, the
// relaxed read, the vectored read and the write. Every extent lies inside
// the file: at EOF the reassembly loop pays a modelled probe pread that
// the direct path does not.
func TestStagedReadMatchesDirectTiming(t *testing.T) {
	const page = 4096
	type result struct {
		now       simtime.Time
		dones     []simtime.Time
		memBus    simtime.Duration
		read, vec []byte
		file      []byte
	}
	run := func(t *testing.T, zeroCopy, staged bool) result {
		h := newHarness(t, zeroCopy)
		fd, _ := vecFile(t, h, 8*page)
		if staged {
			h.faulty(faults.Config{Seed: 11})
		}
		var r result
		c := simtime.NewClock(0)
		fdw, _, err := h.cl.Open(c, "/vec", hostfs.O_RDWR, rwMode)
		if err != nil {
			t.Fatal(err)
		}
		r.read = make([]byte, 3*page)
		if n, err := h.cl.ReadPages(c, fd, 100, r.read); err != nil || n != len(r.read) {
			t.Fatalf("ReadPages: n=%d err=%v", n, err)
		}
		n, done, err := h.cl.ReadPagesAsync(c, fd, 5*page, make([]byte, page))
		if err != nil || n != page {
			t.Fatalf("ReadPagesAsync: n=%d err=%v", n, err)
		}
		r.dones = append(r.dones, done)
		dsts := [][]byte{make([]byte, page), make([]byte, page/2), make([]byte, 2*page)}
		ns, done, err := h.cl.ReadPagesVecAsync(c, fd, page+7, dsts)
		if err != nil || ns[0]+ns[1]+ns[2] != 3*page+page/2 {
			t.Fatalf("ReadPagesVecAsync: ns=%v err=%v", ns, err)
		}
		r.dones = append(r.dones, done)
		r.vec = bytes.Join(dsts, nil)
		if n, err := h.cl.WritePages(c, fdw, 2*page+5, bytes.Repeat([]byte{0x42}, 1000)); err != nil || n != 1000 {
			t.Fatalf("WritePages: n=%d err=%v", n, err)
		}
		r.now, r.memBus = c.Now(), h.host.MemBus().Busy()
		h.host.SetFaultInjector(nil)
		if r.file, err = h.host.ReadFile(simtime.NewClock(0), "/vec"); err != nil {
			t.Fatal(err)
		}
		return r
	}
	bothReadPaths(t, func(t *testing.T, zeroCopy bool) {
		direct, staged := run(t, zeroCopy, false), run(t, zeroCopy, true)
		if direct.now != staged.now {
			t.Errorf("block clock: direct %v, staged %v", direct.now, staged.now)
		}
		for i := range direct.dones {
			if direct.dones[i] != staged.dones[i] {
				t.Errorf("relaxed read %d completes at %v direct, %v staged", i, direct.dones[i], staged.dones[i])
			}
		}
		if direct.memBus != staged.memBus {
			t.Errorf("memory bus busy: direct %v, staged %v", direct.memBus, staged.memBus)
		}
		if !bytes.Equal(direct.read, staged.read) || !bytes.Equal(direct.vec, staged.vec) ||
			!bytes.Equal(direct.file, staged.file) {
			t.Errorf("the paths moved different bytes")
		}
	})
}

// BenchmarkReadPagesVec is the host cost of one vectored read of a
// 256 KiB page from a resident host file: the read-ahead RPC of a
// streaming read.
func BenchmarkReadPagesVec(b *testing.B) {
	const page = 256 << 10
	h := newHarness(b, true)
	fd, _ := vecFile(b, h, page)
	dsts := [][]byte{make([]byte, page)}
	c := simtime.NewClock(0)
	b.ReportAllocs()
	b.SetBytes(page)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ns, done, err := h.cl.ReadPagesVecAsync(c, fd, 0, dsts)
		if err != nil || ns[0] != page {
			b.Fatalf("ns=%v err=%v", ns, err)
		}
		c.AdvanceTo(done)
	}
}
