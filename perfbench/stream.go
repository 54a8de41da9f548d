package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"gpufs"
)

// streamWork streams data files from a warm host page cache into a cold
// GPU buffer cache (the paper's Figure 4/6 read path). Eight files of
// half the buffer cache each total 4x the cache; every launch opens a
// file not among the two most recently read ones, so none of its pages
// are resident, while the history table still holds a profile for any
// file read before. 28 blocks (one per resident slot) each cover one
// stripe of the file in 32K greads, except that one block in four reads
// as many random 32K chunks of the whole file instead.
type streamWork struct {
	buf []byte // reused to generate one file at a time
}

const (
	streamFiles    = 8
	streamLaunches = 24 // measured launches per round
	streamBlocks   = 28
	streamThreads  = 256
)

func (w *streamWork) run(seed int64, idx int, tr *tracer) (*round, error) {
	r := &round{}
	cfg := gpufs.ScaledConfig(scale)
	cfg.NumGPUs = 1
	fileBytes := cfg.BufferCacheBytes / 2
	if int64(len(w.buf)) != fileBytes {
		w.buf = make([]byte, fileBytes)
	}
	rseed := int64(mix(seed, int64(idx)))
	keys := make([]uint64, streamFiles)
	paths := make([]string, streamFiles)

	t0 := time.Now()
	sys, err := gpufs.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	r.setup += time.Since(t0)
	for f := range paths {
		keys[f] = mix(rseed, 1, int64(f))
		paths[f] = fmt.Sprintf("/stream/data%d.bin", f)
		fill(w.buf, keys[f], 0)
		t := time.Now()
		if err := sys.WriteHostFile(paths[f], w.buf); err != nil {
			return nil, err
		}
		r.setup += time.Since(t)
	}
	tw := time.Now()
	// The launch sequence: never one of the two files last read, which
	// together fill the buffer cache. Launch 0 is a warm-up that belongs
	// to set-up, so the measured launches all find a full buffer cache.
	pick := rng(mix(rseed, 2))
	order := make([]int, streamLaunches+1)
	for i := range order {
		for {
			f := pick.intn(streamFiles)
			if (i < 1 || order[i-1] != f) && (i < 2 || order[i-2] != f) {
				order[i] = f
				break
			}
		}
	}

	chunks := int(fileBytes / chunk)
	// kernel reads file f in launch l: block b streams stripe b of the
	// file, except that every fourth block reads random chunks.
	kernel := func(l, f int) func(c *gpufs.BlockCtx, p *probe) error {
		path, key := paths[f], keys[f]
		return func(c *gpufs.BlockCtx, p *probe) error {
			var fd int
			if err := p.do(c, opGopen, func() (err error) { fd, err = c.Gopen(path, gpufs.O_RDONLY); return }); err != nil {
				return err
			}
			lo := c.Idx * chunks / streamBlocks
			hi := (c.Idx + 1) * chunks / streamBlocks
			br := rng(mix(rseed, 3, int64(l), int64(c.Idx)))
			buf := c.Scratch[:chunk]
			for i := lo; i < hi; i++ {
				ci := i
				if c.Idx%4 == 3 {
					ci = br.intn(chunks)
				}
				off := int64(ci) * chunk
				var n int
				if err := p.do(c, opGread, func() (err error) { n, err = c.Gread(fd, buf, off); return }); err != nil {
					return err
				}
				p.vbytes += int64(n)
				if at := check(buf[:n], key, off); at >= 0 || n != chunk {
					p.bad = mismatch(path, off, at)
					return p.bad
				}
			}
			return p.do(c, opGclose, func() error { return c.Gclose(fd) })
		}
	}
	// The machine's clocks are not rewound after set-up: the measured
	// launches start where the warm-up ended.
	v0, err := launch(sys, r, nil, 0, sys.HostClock().Now(), streamBlocks, streamThreads, false, kernel(0, order[0]))
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r.setup += time.Since(tw)

	var root int
	var rootID int64
	if tr != nil {
		root = tr.open("workload.stream", 0, v0)
		rootID = tr.spans[root].ID
	}
	before := snapshot(sys)
	h0 := time.Now()
	at := v0
	dg := fnv.New64a()
	for l := 1; l < len(order); l++ {
		end, err := launch(sys, r, tr, rootID, at, streamBlocks, streamThreads, true, kernel(l, order[l]))
		if err != nil {
			continue
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
	r.layer = layerValues(sys, before, after, r.vspan, r.host)
	r.layer["gpu.launch_vms"] = median(r.latMS)
	if tr != nil {
		callQuantiles(r.layer, tr)
	}
	return r, nil
}
