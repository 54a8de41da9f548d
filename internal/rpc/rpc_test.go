package rpc

import (
	"testing"

	"gpufs/internal/hostfs"
	"gpufs/internal/pcie"
	"gpufs/internal/simtime"
	"gpufs/internal/wrapfs"
)

func harness(t *testing.T) (*Server, *Client, *hostfs.FS) {
	t.Helper()
	host := hostfs.New(hostfs.Options{
		DiskBandwidth:   132 * simtime.MBps,
		DiskSeek:        simtime.Millisecond,
		MemBandwidth:    6600 * simtime.MBps,
		CacheBytes:      64 << 20,
		SyscallOverhead: 4 * simtime.Microsecond,
	})
	layer := wrapfs.New(host)
	bus := pcie.New(pcie.Config{
		Bandwidth:        5731 * simtime.MBps,
		DMALatency:       15 * simtime.Microsecond,
		Channels:         4,
		HostMemBandwidth: 6600 * simtime.MBps,
	}, host.MemBus())
	srv := NewServer(Config{
		PollInterval:  10 * simtime.Microsecond,
		HandleCost:    12 * simtime.Microsecond,
		ReturnLatency: 2 * simtime.Microsecond,
	}, layer)
	return srv, srv.NewClient(0, bus.NewLink(0, nil, 0)), host
}

const rwMode = hostfs.ModeRead | hostfs.ModeWrite

// The transport tests drive Client.Do with the small handlers below,
// which stand in for the syscall table of internal/gsys: each does its
// host file work directly on the daemon worker's clock.

// openOp opens path on the host, storing the file in *out.
func openOp(host *hostfs.FS, path string, flags int, out **hostfs.File) Handler {
	return func(cclk *simtime.Clock) (simtime.Time, error) {
		f, err := host.Open(cclk, path, flags, rwMode)
		*out = f
		return 0, err
	}
}

// closeOp closes f.
func closeOp(f *hostfs.File) Handler {
	return func(*simtime.Clock) (simtime.Time, error) { return 0, f.Close() }
}

// statOp stats f.
func statOp(f *hostfs.File) Handler {
	return func(cclk *simtime.Clock) (simtime.Time, error) {
		_, err := f.Fstat(cclk)
		return 0, err
	}
}

// readOp preads len(dst) bytes of f at off into dst and DMAs them to the
// device; *got receives the byte count.
func readOp(cl *Client, f *hostfs.File, off int64, dst []byte, got *int) Handler {
	return func(cclk *simtime.Clock) (simtime.Time, error) {
		n, err := f.Pread(cclk, dst, off)
		if err != nil {
			return 0, err
		}
		*got = n
		return cl.Link().Charge(cclk.Now(), pcie.HostToDevice, int64(n)), nil
	}
}

// writeOp DMAs src off the device and pwrites it to f at off.
func writeOp(cl *Client, f *hostfs.File, off int64, src []byte) Handler {
	return func(cclk *simtime.Clock) (simtime.Time, error) {
		cclk.AdvanceTo(cl.Link().Charge(cclk.Now(), pcie.DeviceToHost, int64(len(src))))
		_, err := f.Pwrite(cclk, src, off)
		return 0, err
	}
}

// open runs openOp as one blocking request and fails the test on error.
func open(t *testing.T, cl *Client, c *simtime.Clock, host *hostfs.FS, path string, flags int) *hostfs.File {
	t.Helper()
	var f *hostfs.File
	if err := cl.Do(c, OpOpen, openOp(host, path, flags, &f)); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestDaemonSerializesRequests(t *testing.T) {
	srv, cl, host := harness(t)
	host.WriteFile(simtime.NewClock(0), "/f", make([]byte, 1<<20), rwMode)

	// Two concurrent clients issue requests at t=0; the single-threaded
	// daemon must order them.
	c1, c2 := simtime.NewClock(0), simtime.NewClock(0)
	open(t, cl, c1, host, "/f", hostfs.O_RDONLY)
	open(t, cl, c2, host, "/f", hostfs.O_RDONLY)
	if c1.Now() == c2.Now() {
		t.Fatalf("concurrent opens completed at the same instant: daemon not serialized")
	}
	if srv.Requests(OpOpen) != 2 {
		t.Fatalf("open requests = %d, want 2", srv.Requests(OpOpen))
	}
	if srv.DaemonBusy() == 0 {
		t.Fatalf("daemon busy time not accounted")
	}
}

func TestWriterRegistration(t *testing.T) {
	srv, cl, host := harness(t)
	host.WriteFile(simtime.NewClock(0), "/f", []byte("x"), rwMode)
	info, _ := host.Stat("/f")
	cl2 := srv.NewClient(1, cl.Link())

	if err := cl.BeginWrite(info.Ino, false); err != nil {
		t.Fatal(err)
	}
	if err := cl2.BeginWrite(info.Ino, false); err == nil {
		t.Fatalf("second exclusive writer allowed")
	}
	cl.EndWrite(info.Ino)
	if err := cl2.BeginWrite(info.Ino, false); err != nil {
		t.Fatal(err)
	}
	cl2.EndWrite(info.Ino)
}

func TestQueueDepthTracking(t *testing.T) {
	_, cl, host := harness(t)
	host.WriteFile(simtime.NewClock(0), "/f", []byte("x"), rwMode)
	c := simtime.NewClock(0)
	f := open(t, cl, c, host, "/f", hostfs.O_RDONLY)
	if err := cl.Do(c, OpClose, closeOp(f)); err != nil {
		t.Fatal(err)
	}
	if cl.MaxQueueDepth() < 1 {
		t.Fatalf("queue depth never recorded")
	}
	if cl.GPUID() != 0 {
		t.Fatalf("gpu id")
	}
}

func TestOpString(t *testing.T) {
	if OpOpen.String() != "open" || OpReadPages.String() != "read" {
		t.Fatalf("op names wrong")
	}
	if Op(99).String() == "" {
		t.Fatalf("unknown op must render")
	}
}
