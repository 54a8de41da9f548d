package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"time"

	"gpufs"
)

// hotWork re-reads a resident file while writers push data back (the
// buffer-cache hit path plus D2H write-back). One file, the reader region
// followed by the writer region, fits in the buffer cache and is made
// resident by a warm-up launch during set-up. In every launch 24 reader
// blocks do random 32K gread hits in the reader region and 4 writer
// blocks each gwrite one private 256K slice of the writer region, in 32K
// pieces, and gfsync it. Writer w's launch l writes slot l mod hotSlots
// of its own slots, so the host copy is checked after the round against
// the last content written to each slot.
type hotWork struct{}

const (
	hotReaders     = 24
	hotWriters     = 4
	hotReads       = 64 // greads per reader per launch
	hotSlice       = 256 << 10
	hotSlots       = 8 // slices per writer
	hotLaunches    = 16
	hotThreads     = 256
	hotPath        = "/hot/data.bin"
	hotReaderBytes = 32 << 20
)

func (w *hotWork) run(seed int64, idx int, tr *tracer) (*round, error) {
	r := &round{}
	cfg := gpufs.ScaledConfig(scale)
	cfg.NumGPUs = 1
	rseed := int64(mix(seed, int64(idx)))
	key := mix(rseed, 1)
	fileBytes := int64(hotReaderBytes + hotWriters*hotSlots*hotSlice)
	if fileBytes+16*cfg.PageSize > cfg.BufferCacheBytes {
		return nil, fmt.Errorf("hot file of %d bytes does not fit the %d-byte buffer cache", fileBytes, cfg.BufferCacheBytes)
	}
	data := make([]byte, fileBytes)
	fill(data, key, 0)

	t0 := time.Now()
	sys, err := gpufs.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	if err := sys.WriteHostFile(hotPath, data); err != nil {
		return nil, err
	}
	// Warm-up: one stripe per block faults the whole file in.
	chunks := int(fileBytes / chunk)
	v0, err := sys.GPU(0).Launch(sys.HostClock().Now(), 28, hotThreads, func(c *gpufs.BlockCtx) error {
		fd, err := c.Gopen(hotPath, gpufs.O_RDONLY)
		if err != nil {
			return err
		}
		for i := c.Idx * chunks / 28; i < (c.Idx+1)*chunks/28; i++ {
			if _, err := c.Gread(fd, c.Scratch[:chunk], int64(i)*chunk); err != nil {
				return err
			}
		}
		return c.Gclose(fd)
	})
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r.setup = time.Since(t0)

	// want[w][s] is the writer content key last written to writer w's slot s.
	var want [hotWriters][hotSlots]uint64
	for wi := range want {
		for s := range want[wi] {
			want[wi][s] = key // untouched slots keep the file's own content
		}
	}
	slotOff := func(wi, s int) int64 { return hotReaderBytes + int64(wi*hotSlots+s)*hotSlice }
	// Writer w's slice in launch l holds the generator content of key
	// mix(rseed, 2, l, w) at the slot's offsets, refilled per launch.
	src := make([][]byte, hotWriters)
	for i := range src {
		src[i] = make([]byte, hotSlice)
	}

	var root int
	var rootID int64
	if tr != nil {
		root = tr.open("workload.hot", 0, v0)
		rootID = tr.spans[root].ID
	}
	before := snapshot(sys)
	h0 := time.Now()
	at := v0 // the measured launches start where the warm-up ended
	dg := fnv.New64a()
	for l := 0; l < hotLaunches; l++ {
		slot := l % hotSlots
		for wi := range src {
			fill(src[wi], mix(rseed, 2, int64(l), int64(wi)), slotOff(wi, slot))
		}
		end, err := launch(sys, r, tr, rootID, at, hotReaders+hotWriters, hotThreads, true, func(c *gpufs.BlockCtx, p *probe) error {
			var fd int
			// Readers open O_RDWR like the writers: descriptors denote
			// files, so concurrent opens coalesce and their flags must agree.
			if err := p.do(c, opGopen, func() (err error) { fd, err = c.Gopen(hotPath, gpufs.O_RDWR); return }); err != nil {
				return err
			}
			if c.Idx < hotReaders {
				br := rng(mix(rseed, 3, int64(l), int64(c.Idx)))
				buf := c.Scratch[:chunk]
				for i := 0; i < hotReads; i++ {
					off := int64(br.intn(hotReaderBytes/chunk)) * chunk
					var n int
					if err := p.do(c, opGread, func() (err error) { n, err = c.Gread(fd, buf, off); return }); err != nil {
						return err
					}
					p.vbytes += int64(n)
					if at := check(buf[:n], key, off); at >= 0 || n != chunk {
						p.bad = mismatch(hotPath, off, at)
						return p.bad
					}
				}
			} else {
				wi := c.Idx - hotReaders
				base := slotOff(wi, slot)
				for off := int64(0); off < hotSlice; off += chunk {
					var n int
					if err := p.do(c, opGwrite, func() (err error) { n, err = c.Gwrite(fd, src[wi][off:off+chunk], base+off); return }); err != nil {
						return err
					}
					p.vbytes += int64(n)
				}
				if err := p.do(c, opGfsync, func() error { return c.Gfsync(fd) }); err != nil {
					return err
				}
			}
			return p.do(c, opGclose, func() error { return c.Gclose(fd) })
		})
		if err != nil {
			continue
		}
		for wi := range want {
			want[wi][slot] = mix(rseed, 2, int64(l), int64(wi))
		}
		r.latMS = append(r.latMS, float64(end-at)/1e6)
		stamp(dg, end)
		at = end
		r.jobs++
	}
	r.host = time.Since(h0)
	r.vspan = at.Sub(v0)
	after := snapshot(sys)
	if tr != nil {
		tr.close(root, at)
	}
	r.digest = dg.Sum64()
	if r.bad != nil {
		return nil, r.bad
	}
	if r.jobs == 0 {
		return nil, fmt.Errorf("every launch failed")
	}

	// Every writer slice must have reached the host unchanged, and the
	// reader region must be untouched.
	host, err := sys.ReadHostFile(hotPath)
	if err != nil {
		return nil, fmt.Errorf("output check: reading back %s: %w", hotPath, err)
	}
	if int64(len(host)) != fileBytes {
		return nil, fmt.Errorf("output check: %s is %d bytes, want %d", hotPath, len(host), fileBytes)
	}
	if at := check(host[:hotReaderBytes], key, 0); at >= 0 {
		return nil, mismatch(hotPath+" reader region on the host", 0, at)
	}
	exp := make([]byte, hotSlice)
	for wi := range want {
		for s := range want[wi] {
			off := slotOff(wi, s)
			fill(exp, want[wi][s], off)
			if !bytes.Equal(host[off:off+hotSlice], exp) {
				return nil, fmt.Errorf("output check: writer %d slot %d of %s differs on the host after gfsync", wi, s, hotPath)
			}
		}
	}

	r.layer = layerValues(sys, before, after, r.vspan, r.host)
	r.layer["gpu.launch_vms"] = median(r.latMS)
	if tr != nil {
		callQuantiles(r.layer, tr)
	}
	return r, nil
}
