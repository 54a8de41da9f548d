// Command perfbench is the repository benchmark: three workloads (stream,
// hot, serve) that drive the simulated GPUfs machine only through its
// public entry points and time it from outside every layer.
//
// A run repeats rounds until its time budget is spent. A round builds a
// fresh System at the default configuration scaled to 1/32, writes the
// seeded inputs (timed as set-up), runs a fixed amount of work (timed as
// the measured phase) and checks every output. With -trace 0 all rounds
// are untraced and the end-to-end metrics are printed; with -trace 1
// untraced and traced rounds alternate, the per-layer metrics come from
// the traced rounds, and the host-time difference between the two kinds
// is the tracing overhead. The last line of standard output is one JSON
// object; any failed output check makes the exit code nonzero.
//
// Run it through run.py, which builds it from the checkout's sources:
//
//	python3 perfbench/run.py --workload stream --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"gpufs"
)

// scale is the capacity scale of every workload's machine: the default
// configuration (256K pages included) with memories scaled to 1/32, the
// scale of the committed BENCH files' serving numbers.
const scale = 1.0 / 32

// DefaultSeed is the seed used while the benchmark was developed;
// HeldOutSeed was never used during development and is kept for claims
// that must hold on unseen inputs.
const (
	DefaultSeed = 1
	HeldOutSeed = 918273645
)

// round is one set-up plus one fixed unit of measured work.
type round struct {
	setup     time.Duration // host: build the System and write the inputs
	host      time.Duration // host: the measured phase
	cal       []float64     // host seconds of the calibrate calls before the round
	vspan     gpufs.Duration
	bytes     int64     // file bytes moved through the GPUfs API
	jobs      int64     // completed jobs (kernel launches for stream and hot)
	latMS     []float64 // virtual latency of each job, ms
	attempted int64
	failed    int64
	digest    uint64 // FNV-1a over the round's virtual results
	bad       error  // the first failed output check
	layer     map[string]float64
}

// workload runs one round per call; tr is nil in untraced rounds.
type workload interface {
	run(seed int64, idx int, tr *tracer) (*round, error)
}

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		name    = flag.String("workload", "stream", "workload: stream, hot or serve")
		seed    = flag.Int64("seed", DefaultSeed, "input seed")
		seconds = flag.Float64("seconds", 20, "host seconds to spend measuring")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics from traced rounds")
		commit  = flag.String("commit", "unknown", "source revision, recorded in the metadata")
		source  = flag.String("source", "unknown", "digest of the sources, recorded in the metadata")
		outDir  = flag.String("out", ".bench_build/perfbench", "directory for the span file of a traced run")
	)
	flag.Parse()

	var w workload
	switch *name {
	case "stream":
		w = &streamWork{}
	case "hot":
		w = &hotWork{}
	case "serve":
		w = &serveWork{}
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: -trace must be 0 or 1\n")
		return 2
	}

	start := time.Now()
	budget := time.Duration(*seconds * float64(time.Second))
	var plain, withTrace []*round
	var spans []span
	var firstDigest uint64
	nextID := int64(1)
	var prev time.Duration // host length of the previous round
	for i := 0; ; i++ {
		var tr *tracer
		if *traced == 1 && i%2 == 1 {
			tr = newTracer(start, nextID)
		}
		// Each round starts from the same memory state: the previous
		// round's machine collected and its pages returned to the OS, so
		// every set-up gets fresh zeroed pages alike.
		debug.FreeOSMemory()
		// Calibrate for about a tenth of the previous round's length, so
		// a run holds enough samples of the machine's speed however long
		// its rounds are.
		cal := []float64{calibrate().Seconds()}
		for sum := cal[0]; sum < prev.Seconds()/10; sum += cal[len(cal)-1] {
			cal = append(cal, calibrate().Seconds())
		}
		t := time.Now()
		r, err := w.run(*seed, i, tr)
		prev = time.Since(t)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s round %d: %v\n", *name, i, err)
			printResult(false, plain, withTrace, nil)
			return 1
		}
		r.cal = cal
		if i == 0 {
			firstDigest = r.digest
		}
		if tr != nil {
			withTrace = append(withTrace, r)
			spans = append(spans, tr.spans...)
			nextID = tr.nextID
		} else {
			plain = append(plain, r)
		}
		done := time.Since(start) >= budget
		if done && (*traced == 0 || len(withTrace) > 0) {
			break
		}
	}

	meta := map[string]any{
		"workload":      *name,
		"seed":          *seed,
		"default_seed":  DefaultSeed,
		"held_out_seed": HeldOutSeed,
		"seconds":       *seconds,
		"trace":         *traced,
		"scale":         scale,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"num_cpu":       runtime.NumCPU(),
		"go_version":    runtime.Version(),
		"commit":        *commit,
		"source":        *source,
		"rounds":        len(plain) + len(withTrace),
		"digest_round0": fmt.Sprintf("%016x", firstDigest),
	}
	mb, _ := json.Marshal(meta)
	fmt.Printf("run %s\n", mb)
	fmt.Printf("digest_round0 %016x: identical across runs of one seed only if virtual time repeated exactly\n", firstDigest)

	e2e := endToEnd(plain)
	printE2E(e2e)
	var metrics []metric
	if *traced == 0 {
		metrics = e2e
	} else {
		metrics = perLayer(withTrace, plain, spans)
		printLayers(metrics)
		if err := writeSpans(*outDir, *name, *seed, spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			printResult(false, plain, withTrace, nil)
			return 1
		}
	}
	printResult(true, plain, withTrace, metrics)
	return 0
}

// metric is one named, united value of the report.
type metric struct {
	name  string
	unit  string
	value float64
	note  string
}

func endToEnd(rs []*round) []metric {
	var setup, host, cal, vmbps, jps, lat []float64
	var attempted, failed int64
	for _, r := range rs {
		setup = append(setup, r.setup.Seconds())
		host = append(host, r.host.Seconds())
		cal = append(cal, r.cal...)
		vmbps = append(vmbps, float64(r.bytes)/1e6/r.vspan.Seconds())
		jps = append(jps, float64(r.jobs)/r.vspan.Seconds())
		lat = append(lat, r.latMS...)
		attempted += r.attempted
		failed += r.failed
	}
	sort.Float64s(lat)
	n := fmt.Sprintf("n=%d", len(lat))
	return []metric{
		{"setup_s", "s", median(setup), fmt.Sprintf("median of %d set-ups", len(setup))},
		{"host_s", "s", median(host) * calRef / median(cal),
			fmt.Sprintf("median of %d rounds: %.6g s measured, calibrate took %.6g s (median of %d)", len(host), median(host), median(cal), len(cal))},
		{"peak_rss_mb", "MB", peakRSSMB(), "process peak resident set"},
		{"vmbps", "vMB/s", median(vmbps), "median over rounds"},
		{"throughput_jps", "jobs/vs", median(jps), "median over rounds"},
		{"job_p50_ms", "vms", quantileSorted(lat, 0.50), n},
		{"job_p99_ms", "vms", quantileSorted(lat, 0.99), n},
		{"fail_frac", "frac", frac(failed, attempted), fmt.Sprintf("%d/%d", failed, attempted)},
	}
}

func printE2E(ms []metric) {
	for _, m := range ms {
		fmt.Printf("e2e %-16s %14.6g %-8s %s\n", m.name, m.value, m.unit, m.note)
	}
}

// printResult prints the closing JSON line. fail_frac stays out of the
// metrics object: it is 0 on a healthy run, and the attempted/failed
// fields carry it.
func printResult(correct bool, plain, traced []*round, ms []metric) {
	var attempted, failed int64
	for _, r := range append(append([]*round{}, plain...), traced...) {
		attempted += r.attempted
		failed += r.failed
	}
	out := map[string]any{
		"correct":   correct,
		"attempted": attempted,
		"failed":    failed,
	}
	mm := map[string]any{}
	for _, m := range ms {
		if m.name == "fail_frac" {
			continue
		}
		mm[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	out["metrics"] = mm
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return
	}
	fmt.Println(string(b))
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// quantileSorted is the exact nearest-rank quantile of sorted samples.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

func printLayers(ms []metric) {
	for _, m := range ms {
		flag := ""
		if strings.HasSuffix(m.name, "_util") && m.value > 1 {
			flag = "  VIOLATION: above the physical bound of 1"
		}
		fmt.Printf("layer %-28s %14.6g %-8s moves %s%s\n", m.name, m.value, m.unit, m.note, flag)
	}
}
