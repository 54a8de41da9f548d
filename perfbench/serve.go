package main

import (
	"bytes"
	"container/heap"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sort"
	"time"

	"gpufs"
	"gpufs/internal/serve"
	"gpufs/internal/simtime"
	"gpufs/internal/workloads"
)

// serveWork is the many-small-jobs regime: two GPUs serve search, grep
// and transform jobs from 2048 tenants over 16 resident 2-page text
// files. Jobs arrive in an open-loop Poisson stream at a fixed rate about
// 1.7x the stack's measured maximum sustainable rate (17.5k jobs/s at
// this scale), so the run sits past the saturation knee. One generator,
// this goroutine, keeps a min-heap of due submissions, waits for each
// one's virtual instant and submits it; a refused job is resubmitted
// after the server's retry-after hint. A job's latency runs from its
// original scheduled arrival, so refusals and generator lag count.
type serveWork struct{}

const (
	serveGPUs  = 2
	serveFiles = 16
	servePages = 2
	serveRate  = 30000.0 // jobs per virtual second
	serveJobs  = 4096    // arrivals per round
	serveDepth = 8       // per-tenant admission bound
	// serveMinRetry floors the retry-after hint, so that a zero hint
	// cannot spin the generator at one virtual instant.
	serveMinRetry = 10 * simtime.Microsecond
)

type serveJob struct {
	tenant string
	spec   serve.Job
	arrive gpufs.Time // original scheduled arrival
	expect int64      // expected count (grep, search)
	out    []byte     // expected output (transform)

	subs []span // host spans of each SubmitAt attempt, when traced
	fut  *serve.Future
	res  serve.Result
}

// dueHeap orders pending submissions by due time, then job index.
type due struct {
	at  gpufs.Time
	job int
}
type dueHeap []due

func (h dueHeap) Len() int { return len(h) }
func (h dueHeap) Less(i, j int) bool {
	return h[i].at < h[j].at || (h[i].at == h[j].at && h[i].job < h[j].job)
}
func (h dueHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *dueHeap) Push(x any)   { *h = append(*h, x.(due)) }
func (h *dueHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

func (w *serveWork) run(seed int64, idx int, tr *tracer) (*round, error) {
	r := &round{}
	cfg := gpufs.ScaledConfig(scale)
	cfg.NumGPUs = serveGPUs
	tenants := cfg.ScaleCount(65536)
	rseed := int64(mix(seed, int64(idx)))

	dict := workloads.MakeDictionary(200)
	texts := make([][]byte, serveFiles)
	paths := make([]string, serveFiles)
	for f := range texts {
		paths[f] = fmt.Sprintf("/serve/doc%02d.txt", f)
		texts[f] = makeText(servePages*cfg.PageSize, dict.Words, rng(mix(rseed, 1, int64(f))))
	}

	// The seeded job mix: tenant, kind, file and needle of every arrival,
	// with its expected result computed on the host from the same bytes.
	// Grep words come from the dictionary's 20 most frequent; search
	// needles from eight two-letter strings drawn per round.
	g := rng(mix(rseed, 2))
	needles := make([]string, 8)
	for i := range needles {
		needles[i] = string([]byte{byte('a' + g.intn(26)), byte('a' + g.intn(26))})
	}
	words := dict.Words[:20]
	type countKey struct {
		file int
		word string
	}
	want := map[countKey]int64{}
	for f, text := range texts {
		for _, w := range needles {
			want[countKey{f, w}] = int64(bytes.Count(text, []byte(w)))
		}
		for w, n := range wholeWordCounts(text, words) {
			want[countKey{f, w}] = n
		}
	}
	jobs := make([]serveJob, serveJobs)
	at := 0.0
	for i := range jobs {
		j := &jobs[i]
		at += -math.Log(1-float64(g.next()>>11)/(1<<53)) / serveRate * 1e9
		j.arrive = gpufs.Time(at)
		j.tenant = fmt.Sprintf("t%05d", g.intn(tenants))
		f := g.intn(serveFiles)
		j.spec.Path = paths[f]
		switch k := g.intn(10); {
		case k < 4:
			j.spec.Kind = serve.JobSearch
			j.spec.Word = needles[g.intn(len(needles))]
			j.expect = want[countKey{f, j.spec.Word}]
		case k < 8:
			j.spec.Kind = serve.JobGrep
			j.spec.Word = words[g.intn(len(words))]
			j.expect = want[countKey{f, j.spec.Word}]
		default:
			j.spec.Kind = serve.JobTransform
			j.spec.MaxOutput = int64(4<<10) << g.intn(5)
			j.out = bytes.ToUpper(texts[f][:j.spec.MaxOutput])
		}
	}

	t0 := time.Now()
	sys, err := gpufs.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	for f := range texts {
		if err := sys.WriteHostFile(paths[f], texts[f]); err != nil {
			return nil, err
		}
	}
	srv := serve.New(sys, serve.Config{Policy: serve.PlaceAffinity, QueueDepth: serveDepth})
	r.setup = time.Since(t0)
	// The machine's clocks are not rewound after set-up: arrivals start
	// where writing the inputs ended.
	v0 := sys.HostClock().Now()
	for i := range jobs {
		jobs[i].arrive += v0
	}

	var root int
	if tr != nil {
		root = tr.open("workload.serve", 0, v0)
	}
	before := snapshot(sys)
	h0 := time.Now()
	hostNow := func() int64 { return int64(time.Since(t0)) }
	if tr != nil {
		hostNow = tr.now
	}

	h := make(dueHeap, 0, len(jobs))
	for i := range jobs {
		h = append(h, due{jobs[i].arrive, i})
	}
	heap.Init(&h)
	var (
		pending  []int
		refused  int64
		lagNS    float64
		submits  int64
		submitNS int64
		gmax     int
	)
	poll := func() {
		kept := pending[:0]
		for _, i := range pending {
			select {
			case res := <-jobs[i].fut.Done():
				jobs[i].res = res
			default:
				kept = append(kept, i)
			}
		}
		pending = kept
	}
	for h.Len() > 0 {
		d := heap.Pop(&h).(due)
		j := &jobs[d.job]
		srv.WaitUntil(d.at)
		if lag := srv.Now() - d.at; lag > 0 {
			lagNS += float64(lag)
		}
		hs := hostNow()
		fut, err := srv.SubmitAt(j.tenant, j.spec, d.at)
		he := hostNow()
		submits++
		submitNS += he - hs
		if tr != nil {
			j.subs = append(j.subs, span{Name: "serve.submit", HostS: hs, HostE: he, VS: int64(d.at), VE: int64(d.at)})
		}
		var oe *serve.OverloadError
		switch {
		case errors.As(err, &oe):
			refused++
			heap.Push(&h, due{d.at.Add(max(oe.RetryAfter, serveMinRetry)), d.job})
			continue
		case err != nil:
			srv.Drain()
			return nil, fmt.Errorf("submitting job %d: %w", d.job, err)
		}
		j.fut = fut
		pending = append(pending, d.job)
		if submits%64 == 0 {
			poll()
			gmax = max(gmax, runtime.NumGoroutine())
		}
	}
	srv.Drain()
	for _, i := range pending {
		jobs[i].res = jobs[i].fut.Wait()
	}
	r.host = time.Since(h0)
	after := snapshot(sys)
	st := srv.Stats()

	// Check every job and collect its virtual stamps.
	dg := fnv.New64a()
	var queue, exec []float64
	type batchKey struct {
		gpu int
		id  int64
	}
	batches := map[batchKey][2]gpufs.Time{}
	var end gpufs.Time
	for i := range jobs {
		j := &jobs[i]
		r.attempted++
		res := j.res
		stamp(dg, res.Done)
		if res.Err != nil {
			r.failed++
			continue
		}
		switch j.spec.Kind {
		case serve.JobTransform:
			if !bytes.Equal(res.Output, j.out) {
				return nil, fmt.Errorf("output check: job %d (transform %s) output differs from the host's", i, j.spec.Path)
			}
		default:
			if res.Count != j.expect {
				return nil, fmt.Errorf("output check: job %d (%v %q in %s) counted %d, host counts %d",
					i, j.spec.Kind, j.spec.Word, j.spec.Path, res.Count, j.expect)
			}
		}
		r.bytes += servePages * cfg.PageSize
		r.jobs++
		r.latMS = append(r.latMS, float64(res.Done-j.arrive)/1e6)
		queue = append(queue, float64(res.Started-res.Enqueued)/1e6)
		exec = append(exec, float64(res.Done-res.Started)/1e6)
		k := batchKey{res.GPU, res.Batch}
		b, ok := batches[k]
		if !ok || res.Started < b[0] {
			b[0] = res.Started
		}
		b[1] = max(b[1], res.Done)
		batches[k] = b
		end = max(end, res.Done)
	}
	r.digest = dg.Sum64()
	if r.jobs == 0 {
		return nil, fmt.Errorf("every job failed")
	}
	// The span runs to the later of the last arrival and the last
	// completion, as the serving layer's own open-loop rate does.
	r.vspan = max(end, jobs[len(jobs)-1].arrive).Sub(v0)

	if tr != nil {
		rootID := tr.spans[root].ID
		tr.close(root, v0.Add(r.vspan))
		for _, b := range batches {
			tr.add(span{Name: "gpu.launch", Parent: rootID, HostS: tr.spans[root].HostS, HostE: tr.spans[root].HostS, VS: int64(b[0]), VE: int64(b[1])})
		}
		for i := range jobs {
			j := &jobs[i]
			// A job's host extent is unobserved outside its submissions:
			// the job span and its queue and exec parts carry virtual time
			// only, so host self time stays with the timed SubmitAt calls.
			hs := j.subs[0].HostS
			id := tr.add(span{Name: "serve.job", Parent: rootID, HostS: hs, HostE: hs, VS: int64(j.arrive), VE: int64(j.res.Done)})
			for _, s := range j.subs {
				s.Parent, s.Req = id, id
				tr.add(s)
			}
			if j.res.Err == nil {
				tr.add(span{Name: "serve.queue", Parent: id, Req: id, HostS: hs, HostE: hs, VS: int64(j.res.Enqueued), VE: int64(j.res.Started)})
				tr.add(span{Name: "serve.exec", Parent: id, Req: id, HostS: hs, HostE: hs, VS: int64(j.res.Started), VE: int64(j.res.Done)})
			}
		}
	}

	r.layer = layerValues(sys, before, after, r.vspan, r.host)
	var launchVMS []float64
	for _, b := range batches {
		launchVMS = append(launchVMS, float64(b[1]-b[0])/1e6)
	}
	r.layer["gpu.launch_vms"] = median(launchVMS)
	r.layer["core.gopen.calls"] = float64(after.opens - before.opens)
	sort.Float64s(queue)
	sort.Float64s(exec)
	r.layer["serve.queue_vms_p50"] = quantileSorted(queue, 0.50)
	r.layer["serve.queue_vms_p99"] = quantileSorted(queue, 0.99)
	r.layer["serve.exec_vms_p50"] = quantileSorted(exec, 0.50)
	r.layer["serve.exec_vms_p99"] = quantileSorted(exec, 0.99)
	var batchesRun, launched, hits, completed, stolen, spilled int64
	for _, gs := range st.GPUs {
		batchesRun += gs.Batches
		launched += gs.Launched
		hits += gs.AffinityHits
		completed += gs.Completed
		stolen += gs.Stolen
		spilled += gs.Spilled
	}
	r.layer["serve.jobs_per_launch"] = frac(launched, batchesRun)
	r.layer["serve.affinity_hit_frac"] = frac(hits, completed)
	r.layer["serve.stolen"] = float64(stolen)
	r.layer["serve.spilled"] = float64(spilled)
	r.layer["serve.refused"] = float64(refused)
	r.layer["serve.gen_lag_vms"] = lagNS / float64(submits) / 1e6
	r.layer["serve.submit_host_us"] = float64(submitNS) / float64(submits) / 1e3
	if tr != nil {
		r.layer["sim.goroutines_max"] = float64(gmax)
	}
	return r, nil
}

// makeText returns size bytes of words separated by spaces and newlines:
// four in five drawn from words with a skew toward the first ones, the
// rest random lowercase strings.
func makeText(size int64, words []string, g rng) []byte {
	out := make([]byte, 0, size+32)
	for int64(len(out)) < size {
		if g.intn(5) < 4 {
			u := float64(g.next()>>11) / (1 << 53)
			out = append(out, words[int(u*u*u*float64(len(words)))]...)
		} else {
			for n := 3 + g.intn(10); n > 0; n-- {
				out = append(out, byte('a'+g.intn(26)))
			}
		}
		if g.intn(12) == 0 {
			out = append(out, '\n')
		} else {
			out = append(out, ' ')
		}
	}
	return out[:size]
}

// wholeWordCounts is the host-side recomputation of grep counts: how
// often each of words occurs in text as a maximal run of [a-z].
func wholeWordCounts(text []byte, words []string) map[string]int64 {
	n := make(map[string]int64, len(words))
	for _, w := range words {
		n[w] = 0
	}
	isLetter := func(b byte) bool { return b >= 'a' && b <= 'z' }
	for i := 0; i < len(text); {
		if !isLetter(text[i]) {
			i++
			continue
		}
		j := i
		for j < len(text) && isLetter(text[j]) {
			j++
		}
		if c, ok := n[string(text[i:j])]; ok {
			n[string(text[i:j])] = c + 1
		}
		i = j
	}
	return n
}
