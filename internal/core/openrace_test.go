package core

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"

	"gpufs/internal/gpu"
)

// TestColdOpensRacePagingPass races cold gopens against paging passes. An
// opener publishes its entry's file cache and host descriptor after the
// entry already sits in the open file table, where pickVictims reads both
// fields under the table lock; the race detector (go test -race) flags
// the publication unless it takes the same lock.
func TestColdOpensRacePagingPass(t *testing.T) {
	const (
		rounds = 4
		files  = 32
		size   = 16 << 10
	)
	h := newHarness(t, 1, defaultOpt())
	fs := h.fss[0]
	for r := 0; r < rounds; r++ {
		for i := 0; i < files; i++ {
			h.write(t, fmt.Sprintf("/r%d-cold%d", r, i), pattern(size, byte(i)))
		}
	}

	var passes atomic.Int64
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, v := range fs.pickVictims() {
				if v.fc == nil {
					t.Errorf("victim without a file cache: %+v", v)
				}
			}
			passes.Add(1)
		}
	}()
	defer func() {
		close(stop)
		<-done
	}()
	for r := 0; r < rounds; r++ {
		h.runBlocks(t, 0, files, func(b *gpu.Block) error {
			path := fmt.Sprintf("/r%d-cold%d", r, b.Idx)
			fd, err := fs.Open(b, path, O_RDONLY)
			if err != nil {
				return err
			}
			buf := make([]byte, size)
			if _, err := fs.Read(b, fd, buf, 0); err != nil {
				return err
			}
			if !bytes.Equal(buf, pattern(size, byte(b.Idx))) {
				return fmt.Errorf("%s: wrong bytes", path)
			}
			return nil // left open: the entry stays in the open table
		})
	}
	if passes.Load() == 0 {
		t.Fatalf("no paging pass ran during the opens")
	}
}
