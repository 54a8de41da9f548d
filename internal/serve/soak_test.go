package serve

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"gpufs"
	"gpufs/internal/workloads"
)

// soakCorpus writes files for the soak runs and precomputes every
// (kind, path, word) oracle so verification is O(1) per result.
type soakCorpus struct {
	paths []string
	words []string
	grep  map[string]int64 // path+word -> count
	srch  map[string]int64
}

func makeSoakCorpus(t *testing.T, sys *gpufs.System, numFiles int) *soakCorpus {
	t.Helper()
	dict := workloads.MakeDictionary(300)
	c := &soakCorpus{
		grep: make(map[string]int64),
		srch: make(map[string]int64),
	}
	for i := 0; i < 8; i++ {
		c.words = append(c.words, workloads.MakeWord(i*13))
	}
	for i := 0; i < numFiles; i++ {
		path := fmt.Sprintf("/soak/f%03d.txt", i)
		text := workloads.MakeText(4<<10, workloads.TextSpec{
			Dict: dict, DictFraction: 0.8, Seed: int64(5000 + i),
		})
		if err := sys.WriteHostFile(path, text); err != nil {
			t.Fatalf("WriteHostFile: %v", err)
		}
		c.paths = append(c.paths, path)
		for _, w := range c.words {
			c.grep[path+"\x00"+w] = wholeWordCount(text, w)
			c.srch[path+"\x00"+w] = int64(bytes.Count(text, []byte(w)))
		}
	}
	return c
}

// jobFor derives tenant ti's ji-th job deterministically, with a zipf-ish
// skew toward the first few files so cache affinity has something to win.
func (c *soakCorpus) jobFor(rng *rand.Rand) Job {
	var pi int
	if rng.Intn(100) < 70 {
		pi = rng.Intn(4) // hot set
	} else {
		pi = rng.Intn(len(c.paths))
	}
	w := c.words[rng.Intn(len(c.words))]
	switch rng.Intn(3) {
	case 0:
		return Job{Kind: JobGrep, Path: c.paths[pi], Word: w}
	case 1:
		return Job{Kind: JobSearch, Path: c.paths[pi], Word: w}
	default:
		return Job{Kind: JobTransform, Path: c.paths[pi], MaxOutput: 256}
	}
}

// check verifies one result against the precomputed oracles.
func (c *soakCorpus) check(t *testing.T, res Result) {
	t.Helper()
	key := res.Job.Path + "\x00" + res.Job.Word
	switch res.Job.Kind {
	case JobGrep:
		if res.Count != c.grep[key] {
			t.Errorf("job %d: grep %q in %s = %d, want %d",
				res.ID, res.Job.Word, res.Job.Path, res.Count, c.grep[key])
		}
	case JobSearch:
		if res.Count != c.srch[key] {
			t.Errorf("job %d: search %q in %s = %d, want %d",
				res.ID, res.Job.Word, res.Job.Path, res.Count, c.srch[key])
		}
	case JobTransform:
		if int64(len(res.Output)) > res.Job.MaxOutput {
			t.Errorf("job %d: transform output %d bytes exceeds cap %d",
				res.ID, len(res.Output), res.Job.MaxOutput)
		}
	}
}

// runSoak drives the closed-loop load: tenants × jobsPerTenant jobs, at
// most `outstanding` in flight per tenant, retrying on overload. Returns
// all results, exactly one per submitted job.
func runSoak(t *testing.T, srv *Server, c *soakCorpus, tenants, jobsPerTenant, outstanding int) []Result {
	t.Helper()
	results := make(chan Result, tenants*jobsPerTenant)
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			name := fmt.Sprintf("tenant-%d", ti)
			rng := rand.New(rand.NewSource(int64(7700 + ti)))
			sem := make(chan struct{}, outstanding)
			var inner sync.WaitGroup
			for ji := 0; ji < jobsPerTenant; ji++ {
				sem <- struct{}{}
				spec := c.jobFor(rng)
				var fut *Future
				for {
					var err error
					fut, err = srv.Submit(name, spec)
					if err == nil {
						break
					}
					if !errors.Is(err, ErrOverloaded) {
						t.Errorf("tenant %s: submit: %v", name, err)
						<-sem
						return
					}
					runtime.Gosched()
				}
				inner.Add(1)
				go func() {
					defer inner.Done()
					results <- fut.Wait()
					<-sem
				}()
			}
			inner.Wait()
		}(ti)
	}
	wg.Wait()
	close(results)

	var all []Result
	for res := range results {
		all = append(all, res)
	}
	return all
}

// verifySoak asserts the hard serving invariants: every job accounted for
// exactly once, no duplicated ids, stats consistent with results.
func verifySoak(t *testing.T, srv *Server, all []Result, wantJobs int) {
	t.Helper()
	if len(all) != wantJobs {
		t.Fatalf("got %d results, want %d (lost or duplicated jobs)", len(all), wantJobs)
	}
	seen := make(map[uint64]bool, len(all))
	var failed int64
	for _, res := range all {
		if seen[res.ID] {
			t.Fatalf("job id %d delivered twice", res.ID)
		}
		seen[res.ID] = true
		if res.Err != nil {
			failed++
		}
	}
	st := srv.Stats()
	if st.Queued != 0 || st.Inflight != 0 {
		t.Fatalf("after drain: queued=%d inflight=%d", st.Queued, st.Inflight)
	}
	if got := st.Completed() + st.Failed(); got != int64(wantJobs) {
		t.Fatalf("stats account for %d jobs, want %d", got, wantJobs)
	}
	if st.Failed() != failed {
		t.Fatalf("stats report %d failures, results show %d", st.Failed(), failed)
	}
}

// TestServeSoak is the acceptance soak: ≥1,000 jobs from 8 tenants over
// 2 GPUs, closed loop, race-detector clean, zero lost or duplicated
// results, every answer matching the host-side oracle, clean drain.
func TestServeSoak(t *testing.T) {
	const (
		numTenants    = 8
		jobsPerTenant = 128 // 1,024 jobs total
		outstanding   = 16
	)
	cfg := gpufs.ScaledConfig(testScale)
	cfg.NumGPUs = 2
	sys, err := gpufs.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := makeSoakCorpus(t, sys, 16)
	srv := New(sys, Config{QueueDepth: outstanding, MaxBatch: 16})

	all := runSoak(t, srv, c, numTenants, jobsPerTenant, outstanding)
	srv.Drain()
	verifySoak(t, srv, all, numTenants*jobsPerTenant)

	for _, res := range all {
		if res.Err != nil {
			t.Fatalf("job %d failed in fault-free soak: %v", res.ID, res.Err)
		}
		c.check(t, res)
	}

	st := srv.Stats()
	if bf := st.BatchFactor(); bf <= 1.0 {
		t.Errorf("batch factor %.2f: continuous batching never coalesced", bf)
	}
	for g, gs := range st.GPUs {
		if gs.Launched == 0 {
			t.Errorf("gpu %d never ran a job", g)
		}
	}
	t.Logf("soak:\n%s", st)
}

// TestServeSoakWithFaults injects the full RPC/host fault mix and checks
// the serving contract under fire: every job still completes exactly once
// — successfully or with an explicit error — and successes are correct.
func TestServeSoakWithFaults(t *testing.T) {
	const (
		numTenants    = 8
		jobsPerTenant = 32
		outstanding   = 8
	)
	cfg := gpufs.ScaledConfig(testScale)
	cfg.NumGPUs = 2
	sys, err := gpufs.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := makeSoakCorpus(t, sys, 8)
	sys.EnableFaults(gpufs.FaultConfig{
		Seed:                1,
		RPCPollDelayProb:    0.05,
		RPCDropResponseProb: 0.02,
		RPCDupResponseProb:  0.02,
		RPCTransientProb:    0.05,
		HostShortReadProb:   0.05,
		HostReadEIOProb:     0.02,
		DiskStallProb:       0.05,
		DMAStallProb:        0.05,
	})

	srv := New(sys, Config{QueueDepth: outstanding, MaxBatch: 8})
	all := runSoak(t, srv, c, numTenants, jobsPerTenant, outstanding)
	srv.Drain()
	verifySoak(t, srv, all, numTenants*jobsPerTenant)

	var failed int
	for _, res := range all {
		if res.Err != nil {
			// Explicit, classified failure — never a silent wrong answer.
			failed++
			continue
		}
		c.check(t, res)
	}
	t.Logf("faulty soak: %d/%d failed explicitly", failed, len(all))
}

// TestServeSoakSurvivesRestart fires GPU restarts while the load runs;
// restarts wipe device caches but must never lose or duplicate a job.
func TestServeSoakSurvivesRestart(t *testing.T) {
	const (
		numTenants    = 8
		jobsPerTenant = 24
		outstanding   = 8
	)
	cfg := gpufs.ScaledConfig(testScale)
	cfg.NumGPUs = 2
	sys, err := gpufs.NewSystem(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c := makeSoakCorpus(t, sys, 8)
	srv := New(sys, Config{QueueDepth: outstanding})

	stop := make(chan struct{})
	var restarter sync.WaitGroup
	restarter.Add(1)
	go func() {
		defer restarter.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			sys.GPU(i % 2).Restart()
			time.Sleep(time.Millisecond)
		}
	}()

	all := runSoak(t, srv, c, numTenants, jobsPerTenant, outstanding)
	close(stop)
	restarter.Wait()
	srv.Drain()
	verifySoak(t, srv, all, numTenants*jobsPerTenant)

	for _, res := range all {
		if res.Err != nil {
			t.Fatalf("job %d failed across restarts: %v", res.ID, res.Err)
		}
		c.check(t, res)
	}
}
