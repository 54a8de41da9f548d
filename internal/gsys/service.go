package gsys

import (
	"fmt"
	"sync"

	"gpufs/internal/hostfs"
	"gpufs/internal/pcie"
	"gpufs/internal/rpc"
	"gpufs/internal/simtime"
)

// The host side of the syscall subsystem: a table of registered handlers
// indexed by Sysno. Each host file operation has exactly one
// implementation, its handler here. A handler runs on a daemon worker's
// clock with the decoded request frame and the call's out-of-band device
// buffers, and returns the completion time of any asynchronous DMA it
// started. Data handlers move file bytes straight between the host file
// and the device buffers (a preadv into the destination frames, a pwrite
// from the source) with no per-request Go buffer. The read handlers model
// one of two DMA paths, fixed when the Service is built: through a pinned
// staging buffer (pcie.Charge, whose extra host-memory pass is a modelled
// charge only), or zero-copy (pcie.ChargePinned). A Go staging buffer
// exists only on the fault-injected short-read reassembly path, where it
// keeps a read all-or-nothing.

// Reply carries a syscall's typed results back to the issuing client.
// Result scalars ride the response slot; bulk data never does (it is
// DMA'd straight to the device buffers referenced by the call).
type Reply struct {
	FD      int64
	Info    hostfs.FileInfo
	N       int
	Ns      []int
	Valid   bool
	Dirents []hostfs.FileInfo
	Next    int64
	EOF     bool
	// WaitAt is a would-block hint: the virtual time at which the
	// blocking condition was last known to clear (pipe space freed).
	WaitAt simtime.Time
}

// call is one in-flight syscall: the client view that issued it, the
// frame as decoded from the wire, the out-of-band device buffers, and the
// reply under construction.
type call struct {
	cli   *Client
	fr    *Frame
	dst   []byte   // read destination (device memory)
	dsts  [][]byte // vectored read destinations
	src   []byte   // write source (device memory)
	reply Reply
}

// handlerFunc is one syscall-table entry.
type handlerFunc func(s *Service, c *call, cclk *simtime.Clock) (simtime.Time, error)

// Service is the host-side syscall service shared by every GPU of a
// system: the syscall table, the host descriptor table, and the pipe
// table. It layers over the rpc daemon, which keeps the worker pool and
// the consistency layer.
type Service struct {
	srv   *rpc.Server
	table [numSysno]handlerFunc
	pipes pipeTable

	// zeroCopy selects the charge of the read handlers: the DMA without
	// the staging pass (pcie.Charge*Pinned) instead of with it
	// (pcie.Charge*). It selects only the charge; the bytes move the same
	// way on both paths.
	zeroCopy bool

	mu     sync.Mutex
	fds    map[int64]*hostfs.File
	nextFd int64
}

// NewService builds the syscall table over the given rpc daemon. zeroCopy
// selects the zero-copy read path for every GPU the service serves.
func NewService(srv *rpc.Server, zeroCopy bool) *Service {
	s := &Service{srv: srv, zeroCopy: zeroCopy, fds: make(map[int64]*hostfs.File), nextFd: 3}
	s.pipes.init()
	s.table = [numSysno]handlerFunc{
		SysOpen:      (*Service).sysOpen,
		SysClose:     (*Service).sysClose,
		SysRead:      (*Service).sysRead,
		SysReadVec:   (*Service).sysReadVec,
		SysWrite:     (*Service).sysWrite,
		SysTruncate:  (*Service).sysTruncate,
		SysUnlink:    (*Service).sysUnlink,
		SysStat:      (*Service).sysStat,
		SysFsync:     (*Service).sysFsync,
		SysValidate:  (*Service).sysValidate,
		SysReaddir:   (*Service).sysReaddir,
		SysPipeOpen:  (*Service).sysPipeOpen,
		SysPipeRead:  (*Service).sysPipeRead,
		SysPipeWrite: (*Service).sysPipeWrite,
		SysPipeClose: (*Service).sysPipeClose,
	}
	return s
}

// allocFD registers an open host file in the descriptor table and
// returns its handle.
func (s *Service) allocFD(f *hostfs.File) int64 {
	s.mu.Lock()
	h := s.nextFd
	s.nextFd++
	s.fds[h] = f
	s.mu.Unlock()
	return h
}

// file resolves a descriptor handle to its host file.
func (s *Service) file(fd int64) (*hostfs.File, error) {
	s.mu.Lock()
	f, ok := s.fds[fd]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("gsys: unknown host fd %d", fd)
	}
	return f, nil
}

// releaseFD removes a descriptor handle from the table and returns its
// host file. The caller closes the file.
func (s *Service) releaseFD(fd int64) (*hostfs.File, error) {
	s.mu.Lock()
	f, ok := s.fds[fd]
	delete(s.fds, fd)
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("gsys: unknown host fd %d", fd)
	}
	return f, nil
}

// readFull reads the extent of dsts at off straight into them, as one
// host read. With no fault injector a single preadv is already
// full-or-EOF and all-or-nothing, so it is the whole read. With one, the
// reassembly loop below completes injected short reads (n == 0 is true
// EOF); a continuation pread may fail after earlier preads copied, so
// that loop alone reads into a staging buffer and scatters it into dsts
// only on success: a failed read leaves every destination untouched.
func (s *Service) readFull(cclk *simtime.Clock, f *hostfs.File, dsts [][]byte, off int64) (int, error) {
	if !s.srv.FaultInjector().Enabled() {
		return f.Preadv(cclk, dsts, off)
	}
	total := 0
	for _, d := range dsts {
		total += len(d)
	}
	staging := make([]byte, total)
	n, err := f.Pread(cclk, staging, off)
	for err == nil && n < total {
		var m int
		if m, err = f.Pread(cclk, staging[n:], off+int64(n)); m == 0 {
			break // true EOF, or the error
		}
		n += m
	}
	if err != nil {
		return 0, err
	}
	rest := staging[:n]
	for _, d := range dsts {
		rest = rest[copy(d, rest):]
	}
	return n, nil
}

// dispatch routes a decoded frame to its table entry.
func (s *Service) dispatch(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	h := s.table[c.fr.Desc.Sysno]
	if h == nil {
		return 0, fmt.Errorf("gsys: no handler registered for %v", c.fr.Desc.Sysno)
	}
	return h(s, c, cclk)
}

func (s *Service) sysOpen(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	f, err := s.srv.Layer().FS().Open(cclk, c.fr.Path, int(c.fr.Args[0]), hostfs.Mode(c.fr.Args[1]))
	if err != nil {
		return 0, err
	}
	fi, err := f.Fstat(cclk)
	if err != nil {
		f.Close()
		return 0, err
	}
	c.reply.FD, c.reply.Info = s.allocFD(f), fi
	return 0, nil
}

func (s *Service) sysClose(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	f, err := s.releaseFD(int64(c.fr.Args[0]))
	if err != nil {
		return 0, err
	}
	return 0, f.Close()
}

func (s *Service) sysRead(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	f, err := s.file(int64(c.fr.Args[0]))
	if err != nil {
		return 0, err
	}
	n, err := s.readFull(cclk, f, [][]byte{c.dst}, int64(c.fr.Args[1]))
	if err != nil {
		return 0, err
	}
	c.reply.N = n
	if s.zeroCopy {
		// Zero-copy: the modelled pread lands in the pinned page frame
		// the GPU supplied, so the DMA charge skips the staging pass on
		// the host memory bus.
		return c.cli.rpc.Link().ChargePinned(cclk.Now(), pcie.HostToDevice, int64(n)), nil
	}
	return c.cli.rpc.Link().Charge(cclk.Now(), pcie.HostToDevice, int64(n)), nil
}

// sysReadVec is one host preadv over the iovec of destination frames and
// one scattered DMA. Both read paths move the bytes the same way,
// straight into the frames; the staging path's pass through a pinned
// host buffer is a modelled charge only (ChargeScatter), which zero-copy
// skips (ChargeScatterPinned).
func (s *Service) sysReadVec(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	f, err := s.file(int64(c.fr.Args[0]))
	if err != nil {
		return 0, err
	}
	n, err := s.readFull(cclk, f, c.dsts, int64(c.fr.Args[1]))
	if err != nil {
		return 0, err
	}
	ns := make([]int, len(c.dsts))
	rest := n
	for i, d := range c.dsts {
		ns[i] = min(rest, len(d))
		rest -= ns[i]
	}
	c.reply.Ns = ns
	if s.zeroCopy {
		return c.cli.rpc.Link().ChargeScatterPinned(cclk.Now(), pcie.HostToDevice, int64(n), len(c.dsts)), nil
	}
	return c.cli.rpc.Link().ChargeScatter(cclk.Now(), pcie.HostToDevice, int64(n), len(c.dsts)), nil
}

// sysWrite pwrites the device source directly: callers hand it a private
// copy (write-back ships a frame snapshot), and Pwrite decides an injected
// EIO before it touches the file.
func (s *Service) sysWrite(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	f, err := s.file(int64(c.fr.Args[0]))
	if err != nil {
		return 0, err
	}
	done := c.cli.rpc.Link().Charge(cclk.Now(), pcie.DeviceToHost, int64(len(c.src)))
	cclk.AdvanceTo(done)
	n, err := f.Pwrite(cclk, c.src, int64(c.fr.Args[1]))
	c.reply.N = n
	return 0, err
}

func (s *Service) sysTruncate(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	f, err := s.file(int64(c.fr.Args[0]))
	if err != nil {
		return 0, err
	}
	return 0, f.Ftruncate(cclk, int64(c.fr.Args[1]))
}

func (s *Service) sysUnlink(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	return 0, s.srv.Layer().FS().Unlink(c.fr.Path)
}

func (s *Service) sysStat(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	f, err := s.file(int64(c.fr.Args[0]))
	if err != nil {
		return 0, err
	}
	fi, err := f.Fstat(cclk)
	c.reply.Info = fi
	return 0, err
}

func (s *Service) sysFsync(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	f, err := s.file(int64(c.fr.Args[0]))
	if err != nil {
		return 0, err
	}
	return 0, f.Fsync(cclk)
}

func (s *Service) sysValidate(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	c.reply.Valid = s.srv.Layer().Validate(c.cli.rpc.GPUID(), int64(c.fr.Args[0]), int64(c.fr.Args[1]))
	return 0, nil
}

// direntWireBytes is the marshaled size of one directory entry in the
// response stream: the fixed scalar fields plus the name.
func direntWireBytes(fi *hostfs.FileInfo) int64 { return 48 + int64(len(fi.Name)) }

func (s *Service) sysReaddir(c *call, cclk *simtime.Clock) (simtime.Time, error) {
	infos, err := s.srv.Layer().FS().ReadDir(c.fr.Path)
	if err != nil {
		return 0, err
	}
	cookie, max := int64(c.fr.Args[0]), int(c.fr.Args[1])
	if cookie < 0 || cookie > int64(len(infos)) {
		return 0, fmt.Errorf("gsys: readdir cookie %d out of range [0,%d]", cookie, len(infos))
	}
	window := infos[cookie:]
	if max > 0 && len(window) > max {
		window = window[:max]
	}
	c.reply.Dirents = window
	c.reply.Next = cookie + int64(len(window))
	if c.reply.Next >= int64(len(infos)) {
		c.reply.Next = -1 // enumeration complete
	}
	var total int64
	for i := range window {
		total += direntWireBytes(&window[i])
	}
	if total == 0 {
		return 0, nil
	}
	return c.cli.rpc.Link().Charge(cclk.Now(), pcie.HostToDevice, total), nil
}
