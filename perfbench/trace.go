package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"gpufs"
)

// span is one timed call at a layer boundary. Host times are nanoseconds
// since the run started; virtual times are the simulator's nanoseconds.
// Spans of one launch or one job share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	HostS  int64  `json:"host_start"`
	HostE  int64  `json:"host_end"`
	VS     int64  `json:"v_start"`
	VE     int64  `json:"v_end"`
}

// layer is the span name's prefix: workload, gpu, core or serve.
func (s *span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer collects the spans and per-call samples of one traced round. It
// is used from one goroutine; threadblocks record into their own probe
// and the launch merges the probes after Launch returns.
type tracer struct {
	t0     time.Time
	spans  []span
	nextID int64
	ops    [numOps]opStats
	gmax   atomic.Int64 // most goroutines seen while recording
}

// newTracer starts a tracer whose span IDs begin at firstID, so the
// spans of several traced rounds stay distinct.
func newTracer(t0 time.Time, firstID int64) *tracer { return &tracer{t0: t0, nextID: firstID} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// open starts a span of its own request and returns its index; close
// finishes it.
func (t *tracer) open(name string, parent int64, v gpufs.Time) int {
	t.add(span{Parent: parent, Name: name, HostS: t.now(), VS: int64(v)})
	return len(t.spans) - 1
}

func (t *tracer) close(i int, v gpufs.Time) {
	t.spans[i].HostE = t.now()
	t.spans[i].VE = int64(v)
}

// add records a finished span and returns its ID. A span without a
// request id starts a request of its own.
func (t *tracer) add(s span) int64 {
	s.ID = t.nextID
	t.nextID++
	if s.Req == 0 {
		s.Req = s.ID
	}
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) sampleGoroutines() {
	n := int64(runtime.NumGoroutine())
	for {
		cur := t.gmax.Load()
		if n <= cur || t.gmax.CompareAndSwap(cur, n) {
			return
		}
	}
}

// The block-level GPUfs calls the benchmark times.
const (
	opGopen = iota
	opGread
	opGwrite
	opGfsync
	opGclose
	numOps
)

var opNames = [numOps]string{"gopen", "gread", "gwrite", "gfsync", "gclose"}

// opStats accumulates one call kind.
type opStats struct {
	calls, errors int64
	hostNS        int64
	vus           []float64
}

// probe is one threadblock's recorder for one launch. Its counts are kept
// in every round; timings and spans only when t is set.
type probe struct {
	t      *tracer
	ops    [numOps]opStats
	spans  []span
	vbytes int64 // bytes the block's calls moved
	bad    error // the block's failed output check
}

// do runs one GPUfs call through the probe.
func (p *probe) do(c *gpufs.BlockCtx, op int, f func() error) error {
	st := &p.ops[op]
	st.calls++
	if p.t == nil {
		err := f()
		if err != nil {
			st.errors++
		}
		return err
	}
	h0, v0 := p.t.now(), c.Clock.Now()
	err := f()
	h1, v1 := p.t.now(), c.Clock.Now()
	if err != nil {
		st.errors++
	}
	st.hostNS += h1 - h0
	st.vus = append(st.vus, float64(v1-v0)/1e3)
	p.spans = append(p.spans, span{Name: "core." + opNames[op], HostS: h0, HostE: h1, VS: int64(v0), VE: int64(v1)})
	p.t.sampleGoroutines()
	return err
}

// launch runs one kernel of blocks on GPU 0 from virtual time at, each
// block with its own probe, under a gpu.launch span when tr is set. The
// probes are merged after Launch returns: into r when count is set (the
// measured launches, not warm-ups), into tr when traced, and a failed
// output check into r.bad. A failed call latches a kernel fault, so a
// failed launch restarts the GPU.
func launch(sys *gpufs.System, r *round, tr *tracer, parent int64, at gpufs.Time, blocks, threads int, count bool,
	body func(c *gpufs.BlockCtx, p *probe) error) (gpufs.Time, error) {
	ps := make([]probe, blocks)
	var ls int
	var id int64
	if tr != nil {
		ls = tr.open("gpu.launch", parent, at)
		id = tr.spans[ls].ID
	}
	end, err := sys.GPU(0).Launch(at, blocks, threads, func(c *gpufs.BlockCtx) error {
		p := &ps[c.Idx]
		p.t = tr
		return body(c, p)
	})
	if tr != nil {
		tr.close(ls, end)
	}
	for i := range ps {
		p := &ps[i]
		if p.bad != nil && r.bad == nil {
			r.bad = p.bad
		}
		if count {
			r.bytes += p.vbytes
		}
		for op := range p.ops {
			if count {
				r.attempted += p.ops[op].calls
				r.failed += p.ops[op].errors
			}
			if tr != nil {
				st := &tr.ops[op]
				st.calls += p.ops[op].calls
				st.errors += p.ops[op].errors
				st.hostNS += p.ops[op].hostNS
				st.vus = append(st.vus, p.ops[op].vus...)
			}
		}
		if tr != nil {
			for _, s := range p.spans {
				s.Parent, s.Req = id, id
				tr.add(s)
			}
		}
	}
	if err != nil {
		sys.GPU(0).Restart()
	}
	return end, err
}

// selfTimes sums, per layer, each span's duration minus the part of it
// its children cover, on the host and on the virtual clock.
func selfTimes(spans []span) (host, virt map[string]float64) {
	kids := map[int64][]*span{}
	for i := range spans {
		kids[spans[i].Parent] = append(kids[spans[i].Parent], &spans[i])
	}
	host, virt = map[string]float64{}, map[string]float64{}
	for i := range spans {
		s := &spans[i]
		var hc, vc [][2]int64
		for _, k := range kids[s.ID] {
			hc = append(hc, [2]int64{k.HostS, k.HostE})
			vc = append(vc, [2]int64{k.VS, k.VE})
		}
		host[s.layer()] += float64(s.HostE-s.HostS-covered(hc, s.HostS, s.HostE)) / 1e9
		virt[s.layer()] += float64(s.VE-s.VS-covered(vc, s.VS, s.VE)) / 1e6
	}
	return host, virt
}

// covered is the length of the union of intervals clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		s, e := max(x[0], lo), min(x[1], hi)
		if e <= s {
			continue
		}
		if open && s <= curE {
			curE = max(curE, e)
			continue
		}
		if open {
			total += curE - curS
		}
		curS, curE, open = s, e, true
	}
	if open {
		total += curE - curS
	}
	return total
}

// writeSpans writes the run's spans as JSON lines, once, at exit.
func writeSpans(dir, name string, seed int64, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans %d written to %s\n", len(spans), path)
	return nil
}
