package serve

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"gpufs"
	"gpufs/internal/workloads"
)

// hostCostServer starts a one-GPU server over a 512 KiB text file that is
// already resident in the GPU's buffer cache, and returns the server, the
// file's path and its contents.
func hostCostServer(tb testing.TB) (*Server, string, []byte) {
	tb.Helper()
	cfg := gpufs.ScaledConfig(testScale)
	cfg.NumGPUs = 1
	sys, err := gpufs.NewSystem(cfg)
	if err != nil {
		tb.Fatalf("NewSystem: %v", err)
	}
	const path = "/hostcost/doc.txt"
	text := workloads.MakeText(512<<10, workloads.TextSpec{
		Dict: workloads.MakeDictionary(200), DictFraction: 0.8, Seed: 7,
	})[:512<<10]
	if err := sys.WriteHostFile(path, text); err != nil {
		tb.Fatalf("WriteHostFile: %v", err)
	}
	srv := New(sys, Config{QueueDepth: 1 << 10})
	tb.Cleanup(srv.Drain)
	// A warm-up wave pages the file in and sizes the blocks' buffers
	// before anything is measured.
	runJobWave(tb, srv, path, 0, 2*srv.Config().MaxBatch)
	if sys.GPU(0).ResidentPages(path) == 0 {
		tb.Fatalf("%s not resident after warm-up", path)
	}
	return srv, path, text
}

// runJobWave submits jobs first..first+n-1, alternating grep and search,
// and waits for all of them.
func runJobWave(tb testing.TB, srv *Server, path string, first, n int) []Result {
	tb.Helper()
	futs := make([]*Future, n)
	for i := range futs {
		kind := JobGrep
		if (first+i)%2 == 1 {
			kind = JobSearch
		}
		f, err := srv.Submit(fmt.Sprintf("t%d", i%8), Job{Kind: kind, Path: path, Word: workloads.MakeWord((first + i) % 20)})
		if err != nil {
			tb.Fatalf("Submit: %v", err)
		}
		futs[i] = f
	}
	out := make([]Result, n)
	for i, f := range futs {
		out[i] = f.Wait()
		if out[i].Err != nil {
			tb.Fatalf("job %d: %v", first+i, out[i].Err)
		}
	}
	return out
}

// TestServeJobHostAllocs pins the serving kernel's host cost: a grep or
// search job over a resident file scans a reused buffer, so the host heap
// it allocates is bookkeeping, far below the file's size.
func TestServeJobHostAllocs(t *testing.T) {
	srv, path, text := hostCostServer(t)
	const waves, perWave = 8, 64
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	var results []Result
	for w := 0; w < waves; w++ {
		results = append(results, runJobWave(t, srv, path, w*perWave, perWave)...)
	}
	runtime.ReadMemStats(&after)

	perJob := (after.TotalAlloc - before.TotalAlloc) / uint64(len(results))
	t.Logf("%d jobs over a %d KiB file: %d B allocated per job", len(results), len(text)>>10, perJob)
	if perJob >= 64<<10 {
		t.Fatalf("host allocation per job = %d B, want < 64 KiB", perJob)
	}
	for i, r := range results {
		want := wholeWordCount(text, r.Job.Word)
		if r.Job.Kind == JobSearch {
			want = int64(bytes.Count(text, []byte(r.Job.Word)))
		}
		if r.Count != want {
			t.Fatalf("job %d (%s %q): count %d, want %d", i, r.Job.Kind, r.Job.Word, r.Count, want)
		}
	}
}

// BenchmarkServeJobs measures the host (wall-clock) time and heap bytes a
// grep or search job costs the simulator over a resident 512 KiB file. One
// op is a wave of 64 jobs submitted together, so the batcher coalesces
// them as it does under load.
func BenchmarkServeJobs(b *testing.B) {
	srv, path, _ := hostCostServer(b)
	const perWave = 64
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	t0 := time.Now()
	for i := 0; i < b.N; i++ {
		runJobWave(b, srv, path, i*perWave, perWave)
	}
	elapsed := time.Since(t0)
	b.StopTimer()
	runtime.ReadMemStats(&after)
	jobs := float64(b.N * perWave)
	b.ReportMetric(float64(elapsed.Nanoseconds())/jobs, "ns/job")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/jobs, "B/job")
}

// TestServeReusedBufferNoStaleBytes runs jobs over a small file on the
// block whose buffer last held a larger one: each job must see only the
// bytes its own gread returned.
func TestServeReusedBufferNoStaleBytes(t *testing.T) {
	cfg := gpufs.ScaledConfig(testScale)
	cfg.NumGPUs = 1
	sys, err := gpufs.NewSystem(cfg)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	if err := sys.WriteHostFile("/big", []byte(strings.Repeat("word ", 4<<10))); err != nil {
		t.Fatalf("WriteHostFile: %v", err)
	}
	if err := sys.WriteHostFile("/small", []byte("a word")); err != nil {
		t.Fatalf("WriteHostFile: %v", err)
	}
	// One job per launch, so every job runs on block 0 and its buffer.
	srv := New(sys, Config{MaxBatch: 1})
	defer srv.Drain()
	for _, spec := range []Job{
		{Kind: JobGrep, Path: "/big", Word: "word"},
		{Kind: JobGrep, Path: "/small", Word: "word"},
		{Kind: JobSearch, Path: "/small", Word: "word"},
		{Kind: JobTransform, Path: "/small", MaxOutput: 1 << 10},
	} {
		checkResult(t, mustSubmit(t, srv, "t", spec).Wait(), oracle(t, sys, spec, srv.Config().MaxOutputBytes))
	}
}
