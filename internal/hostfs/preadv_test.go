package hostfs

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"gpufs/internal/faults"
	"gpufs/internal/simtime"
)

// Preadv is one pread over the concatenation of its iovec: these tests
// run the same read as a Pread of one flat buffer and as a Preadv of the
// same buffer cut into pieces, each on its own identically prepared file
// system, and require the same count, error, bytes, clock and memory-bus
// busy time. Bytes past the returned count must keep their sentinel.

const (
	vecFileSize = 3*sectorSize + 100
	sentinel    = 0xEE
)

// vecTwin is one side of a comparison: a file system holding /v and a
// read-write descriptor on it.
type vecTwin struct {
	fs *FS
	f  *File
	c  *simtime.Clock
}

func newVecTwin(t *testing.T, cold bool, inj *faults.Injector) *vecTwin {
	t.Helper()
	fs := newFS()
	if err := fs.WriteFile(clk(), "/v", vecData(), rw); err != nil {
		t.Fatal(err)
	}
	if cold {
		fs.DropCaches()
	}
	fs.ResetTime()
	f, err := fs.Open(clk(), "/v", O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	fs.SetFaultInjector(inj)
	return &vecTwin{fs: fs, f: f, c: clk()}
}

// vecData is the content of /v.
func vecData() []byte {
	data := make([]byte, vecFileSize)
	for i := range data {
		data[i] = byte(i*13 + 1)
	}
	return data
}

func sentinelBuf(n int) []byte { return bytes.Repeat([]byte{sentinel}, n) }

// splitAt cuts buf at the given ascending offsets (repeats give
// zero-length elements).
func splitAt(buf []byte, cuts []int) [][]byte {
	iov := make([][]byte, 0, len(cuts)+1)
	prev := 0
	for _, c := range cuts {
		iov = append(iov, buf[prev:c])
		prev = c
	}
	return append(iov, buf[prev:])
}

// randomCuts draws k ascending cut points in [0, n], repeats allowed.
func randomCuts(rng *rand.Rand, n, k int) []int {
	cuts := make([]int, k)
	for i := range cuts {
		cuts[i] = rng.Intn(n + 1)
	}
	for i := 1; i < len(cuts); i++ {
		for j := i; j > 0 && cuts[j] < cuts[j-1]; j-- {
			cuts[j], cuts[j-1] = cuts[j-1], cuts[j]
		}
	}
	return cuts
}

// compareVec runs Pread(flat) on a and Preadv(split) on b and checks every
// observable matches.
func compareVec(t *testing.T, a, b *vecTwin, off int64, length int, cuts []int) (int, error) {
	t.Helper()
	flat, vec := sentinelBuf(length), sentinelBuf(length)
	n1, err1 := a.f.Pread(a.c, flat, off)
	n2, err2 := b.f.Preadv(b.c, splitAt(vec, cuts), off)
	if n1 != n2 || (err1 == nil) != (err2 == nil) {
		t.Fatalf("off %d len %d cuts %v: Pread (%d, %v), Preadv (%d, %v)", off, length, cuts, n1, err1, n2, err2)
	}
	if err1 != nil && err1.Error() != err2.Error() {
		t.Fatalf("off %d len %d: errors differ: %v vs %v", off, length, err1, err2)
	}
	if !bytes.Equal(flat, vec) {
		t.Fatalf("off %d len %d cuts %v: bytes differ", off, length, cuts)
	}
	if n2 > 0 && !bytes.Equal(vec[:n2], vecData()[off:off+int64(n2)]) {
		t.Fatalf("off %d len %d cuts %v: bytes differ from the file", off, length, cuts)
	}
	if !bytes.Equal(vec[n2:], sentinelBuf(length-n2)) {
		t.Fatalf("off %d len %d cuts %v: wrote past the returned count %d", off, length, cuts, n2)
	}
	if a.c.Now() != b.c.Now() {
		t.Fatalf("off %d len %d cuts %v: clock %v vs %v", off, length, cuts, a.c.Now(), b.c.Now())
	}
	if a.fs.MemBus().Busy() != b.fs.MemBus().Busy() {
		t.Fatalf("off %d len %d cuts %v: membus busy %v vs %v", off, length, cuts,
			a.fs.MemBus().Busy(), b.fs.MemBus().Busy())
	}
	return n2, err2
}

func TestPreadvMatchesPread(t *testing.T) {
	for _, cold := range []bool{false, true} {
		name := "resident"
		if cold {
			name = "cold"
		}
		t.Run(name, func(t *testing.T) {
			a, b := newVecTwin(t, cold, nil), newVecTwin(t, cold, nil)
			rng := rand.New(rand.NewSource(1))
			cases := []struct {
				off    int64
				length int
			}{
				{0, vecFileSize},              // whole file
				{100, 2 * sectorSize},         // interior
				{vecFileSize - 50, 200},       // runs across EOF
				{vecFileSize, 64},             // starts at EOF
				{vecFileSize + 4096, 64},      // starts past EOF
				{sectorSize - 1, sectorSize},  // straddles a sector
				{7, 0},                        // empty read inside the file
				{0, vecFileSize + sectorSize}, // more than the file
			}
			for _, tc := range cases {
				for _, cuts := range [][]int{
					nil,
					{0},
					{tc.length},
					{0, 0, tc.length, tc.length},
					randomCuts(rng, tc.length, 3),
					randomCuts(rng, tc.length, 9),
				} {
					n, err := compareVec(t, a, b, tc.off, tc.length, cuts)
					if err != nil {
						t.Fatalf("off %d len %d: %v", tc.off, tc.length, err)
					}
					want := int(max(0, min(int64(tc.length), vecFileSize-tc.off)))
					if n != want {
						t.Fatalf("off %d len %d: n = %d, want %d", tc.off, tc.length, n, want)
					}
				}
			}
		})
	}
}

func TestPreadvErrorsMatchPread(t *testing.T) {
	t.Run("negative offset", func(t *testing.T) {
		a, b := newVecTwin(t, false, nil), newVecTwin(t, false, nil)
		if _, err := compareVec(t, a, b, -1, 64, []int{10}); !errors.Is(err, ErrInvalid) {
			t.Fatalf("err = %v, want ErrInvalid", err)
		}
	})
	t.Run("closed fd", func(t *testing.T) {
		a, b := newVecTwin(t, false, nil), newVecTwin(t, false, nil)
		a.f.Close()
		b.f.Close()
		if _, err := compareVec(t, a, b, 0, 64, []int{10}); !errors.Is(err, ErrBadFd) {
			t.Fatalf("err = %v, want ErrBadFd", err)
		}
	})
	t.Run("write-only fd", func(t *testing.T) {
		a, b := newVecTwin(t, false, nil), newVecTwin(t, false, nil)
		for _, tw := range []*vecTwin{a, b} {
			f, err := tw.fs.Open(clk(), "/v", O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			tw.f = f
		}
		if _, err := compareVec(t, a, b, 0, 64, []int{10}); !errors.Is(err, ErrWriteOnly) {
			t.Fatalf("err = %v, want ErrWriteOnly", err)
		}
	})
}

// TestPreadvInjectedFaults pins the fault contract: every fault is decided
// before a byte moves, so a short Preadv writes exactly its count and a
// failed one writes nothing.
func TestPreadvInjectedFaults(t *testing.T) {
	t.Run("short reads", func(t *testing.T) {
		cfg := faults.Config{Seed: 3, HostShortReadProb: 1}
		a, b := newVecTwin(t, false, faults.New(cfg)), newVecTwin(t, false, faults.New(cfg))
		rng := rand.New(rand.NewSource(2))
		for i := 0; i < 50; i++ {
			off := int64(rng.Intn(vecFileSize))
			length := 2 + rng.Intn(2*sectorSize)
			n, err := compareVec(t, a, b, off, length, randomCuts(rng, length, 4))
			if err != nil {
				t.Fatal(err)
			}
			if avail := vecFileSize - off; avail > 1 && int64(n) >= min(int64(length), avail) {
				t.Fatalf("off %d len %d: n = %d, not short under HostShortReadProb 1", off, length, n)
			}
		}
	})
	t.Run("EIO", func(t *testing.T) {
		cfg := faults.Config{Seed: 4, HostReadEIOProb: 1}
		a, b := newVecTwin(t, false, faults.New(cfg)), newVecTwin(t, false, faults.New(cfg))
		for _, off := range []int64{0, 100, vecFileSize - 10} {
			// compareVec checks both buffers still hold only the sentinel.
			if _, err := compareVec(t, a, b, off, sectorSize, []int{0, 17, 17, 3000}); !errors.Is(err, ErrIO) {
				t.Fatalf("off %d: err = %v, want ErrIO", off, err)
			}
		}
	})
}
