package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"gpufs"
	"gpufs/internal/rpc"
)

// counters is a snapshot of every layer's public counters and busy
// times. Per-GPU values are summed, except the resource busy times and
// link bytes that utilisation needs per device.
type counters struct {
	kernels                        int64
	memBusy, h2d, d2h              []float64 // per GPU: seconds busy, bytes
	transfers                      int64
	lockFree, locked               int64
	opens, hostOpens, closedReuses int64
	rpcRetries, rpcTimeouts        int64
	prefIssued, prefUsed           int64
	replayIssued, replayUsed       int64
	zeroCopy, cleaned              int64
	allocs, reclaimed, steals      int64
	requests                       int64
	req                            map[rpc.Op]int64
	daemonBusy                     float64
	membusBusy                     float64
	validations, invalidations     int64
	diskRead                       int64
	diskBusy                       float64
	totalAlloc, numGC, pauseNS     uint64
}

// reqOps are the RPC operations the report breaks out.
var reqOps = []rpc.Op{rpc.OpOpen, rpc.OpClose, rpc.OpReadPages, rpc.OpWritePages, rpc.OpFsync, rpc.OpStat, rpc.OpValidate}

func snapshot(sys *gpufs.System) counters {
	c := counters{req: map[rpc.Op]int64{}}
	for i := 0; i < sys.NumGPUs(); i++ {
		g := sys.GPU(i)
		c.kernels += g.Device().KernelsRun()
		c.memBusy = append(c.memBusy, time.Duration(g.Device().MemBandwidthResource().Busy()).Seconds())
		h2d, d2h, n := g.Link().Stats()
		c.h2d = append(c.h2d, float64(h2d))
		c.d2h = append(c.d2h, float64(d2h))
		c.transfers += n
		st := g.Stats()
		c.lockFree += st.LockFreeAccesses
		c.locked += st.LockedAccesses
		c.opens += st.Opens
		c.hostOpens += st.HostOpens
		c.closedReuses += st.ClosedTableReuses
		c.rpcRetries += st.RPCRetries
		c.rpcTimeouts += st.RPCTimeouts
		cs := g.FS().CacheStats()
		c.prefIssued += cs.PrefetchIssued
		c.prefUsed += cs.PrefetchUsed
		c.replayIssued += cs.ReplayIssued
		c.replayUsed += cs.ReplayUsed
		c.cleaned += cs.CleanedPages
		c.zeroCopy += g.FS().ZeroCopyReads()
		pc := g.FS().Cache()
		c.allocs += pc.Allocs()
		c.reclaimed += pc.Reclaimed()
		c.steals += pc.Steals()
	}
	srv := sys.Server()
	c.requests = srv.TotalRequests()
	for _, op := range reqOps {
		c.req[op] = srv.Requests(op)
	}
	c.daemonBusy = time.Duration(srv.DaemonBusy()).Seconds()
	c.membusBusy = time.Duration(sys.Host().MemBus().Busy()).Seconds()
	c.validations, c.invalidations = srv.Layer().Stats()
	rd, _, _ := sys.Host().Disk().Stats()
	c.diskRead = rd
	c.diskBusy = time.Duration(sys.Host().Disk().Busy()).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.totalAlloc, c.numGC, c.pauseNS = ms.TotalAlloc, uint64(ms.NumGC), ms.PauseTotalNs
	return c
}

// layerValues turns the counters moved during a round's measured phase
// into the round's per-layer metrics. span is the phase's virtual length.
func layerValues(sys *gpufs.System, a, b counters, span gpufs.Duration, host time.Duration) map[string]float64 {
	cfg := sys.Config()
	vs := span.Seconds()
	m := map[string]float64{}
	m["gpu.launches"] = float64(b.kernels - a.kernels)
	if n := b.kernels - a.kernels; n > 0 {
		m["gpu.launch_host_s"] = host.Seconds() / float64(n)
	}
	for i := range b.memBusy {
		m["gpu.mem_util"] = max(m["gpu.mem_util"], (b.memBusy[i]-a.memBusy[i])/vs)
		m["pcie.h2d_util"] = max(m["pcie.h2d_util"], (b.h2d[i]-a.h2d[i])/(float64(cfg.PCIeBandwidth)*vs))
		m["pcie.d2h_util"] = max(m["pcie.d2h_util"], (b.d2h[i]-a.d2h[i])/(float64(cfg.PCIeBandwidth)*vs))
		m["pcie.h2d_mb"] += (b.h2d[i] - a.h2d[i]) / 1e6
		m["pcie.d2h_mb"] += (b.d2h[i] - a.d2h[i]) / 1e6
	}
	m["pcie.transfers"] = float64(b.transfers - a.transfers)

	m["core.prefetch_issued"] = float64(b.prefIssued - a.prefIssued)
	m["core.prefetch_used_frac"] = frac(b.prefUsed-a.prefUsed, b.prefIssued-a.prefIssued)
	m["core.replay_used_frac"] = frac(b.replayUsed-a.replayUsed, b.replayIssued-a.replayIssued)
	m["core.host_opens"] = float64(b.hostOpens - a.hostOpens)
	m["core.closed_reuses"] = float64(b.closedReuses - a.closedReuses)
	m["core.zero_copy_reads"] = float64(b.zeroCopy - a.zeroCopy)
	m["core.cleaned_pages"] = float64(b.cleaned - a.cleaned)

	lf, lk := b.lockFree-a.lockFree, b.locked-a.locked
	m["radix.lockfree"] = float64(lf)
	m["radix.locked"] = float64(lk)
	m["radix.locked_frac"] = frac(lk, lf+lk)

	m["pcache.allocs"] = float64(b.allocs - a.allocs)
	m["pcache.reclaimed"] = float64(b.reclaimed - a.reclaimed)
	m["pcache.steals"] = float64(b.steals - a.steals)

	m["rpc.requests"] = float64(b.requests - a.requests)
	for _, op := range reqOps {
		m["rpc.req."+op.String()] = float64(b.req[op] - a.req[op])
	}
	m["rpc.daemon_busy_ms"] = (b.daemonBusy - a.daemonBusy) * 1e3
	m["rpc.daemon_util"] = (b.daemonBusy - a.daemonBusy) / (float64(sys.Server().Workers()) * vs)
	m["rpc.retries"] = float64(b.rpcRetries - a.rpcRetries)
	m["rpc.timeouts"] = float64(b.rpcTimeouts - a.rpcTimeouts)

	m["hostfs.membus_busy_ms"] = (b.membusBusy - a.membusBusy) * 1e3
	m["hostfs.membus_util"] = (b.membusBusy - a.membusBusy) / vs
	m["wrapfs.validations"] = float64(b.validations - a.validations)
	m["wrapfs.invalidations"] = float64(b.invalidations - a.invalidations)
	m["disk.read_mb"] = float64(b.diskRead-a.diskRead) / 1e6
	m["disk.busy_ms"] = (b.diskBusy - a.diskBusy) * 1e3

	m["sim.alloc_mb"] = float64(b.totalAlloc-a.totalAlloc) / 1e6
	m["sim.gc_cycles"] = float64(b.numGC - a.numGC)
	m["sim.gc_pause_ms"] = float64(b.pauseNS-a.pauseNS) / 1e6
	m["sim.vs_per_host_s"] = vs / host.Seconds()
	return m
}

// layerMetric names one per-layer metric, its unit, and the end-to-end
// metric and workload it should move.
type layerMetric struct{ name, unit, moves string }

// layerMetrics is the per-layer report, in print order. Virtual times
// carry a v (vms, vus); host times do not. Counts are per round.
var layerMetrics = func() []layerMetric {
	ms := []layerMetric{
		{"gpu.launches", "count", "host_s on all"},
		{"gpu.launch_vms", "vms", "vmbps on stream and hot"},
		{"gpu.mem_util", "frac", "vmbps on hot"},
		{"gpu.launch_host_s", "s", "host_s on all"},
	}
	for i, op := range opNames {
		moves := [numOps]string{
			"job_p50_ms on serve",
			"vmbps on stream and hot",
			"vmbps on hot",
			"vmbps on hot",
			"job_p50_ms on serve",
		}[i]
		ms = append(ms,
			layerMetric{"core." + op + ".calls", "count", moves},
			layerMetric{"core." + op + ".vus_p50", "vus", moves},
			layerMetric{"core." + op + ".vus_p99", "vus", moves},
			layerMetric{"core." + op + ".host_us", "us", "host_s on all"},
			layerMetric{"core." + op + ".errors", "count", "fail_frac on all"},
		)
	}
	ms = append(ms, []layerMetric{
		{"core.prefetch_issued", "count", "vmbps on stream; none on hot and serve"},
		{"core.prefetch_used_frac", "frac", "vmbps on stream; none on hot and serve"},
		{"core.replay_used_frac", "frac", "vmbps on stream; none on hot and serve"},
		{"core.host_opens", "count", "job_p50_ms on serve"},
		{"core.closed_reuses", "count", "job_p50_ms on serve"},
		{"core.zero_copy_reads", "count", "vmbps on hot"},
		{"core.cleaned_pages", "count", "vmbps on hot"},
		{"radix.lockfree", "count", "vmbps on hot"},
		{"radix.locked", "count", "vmbps on hot"},
		{"radix.locked_frac", "frac", "vmbps on hot"},
		{"pcache.allocs", "count", "vmbps on stream"},
		{"pcache.reclaimed", "count", "vmbps on stream"},
		{"pcache.steals", "count", "vmbps on stream"},
		{"rpc.requests", "count", "vmbps on stream (reads) and hot (fsync)"},
	}...)
	for _, op := range reqOps {
		ms = append(ms, layerMetric{"rpc.req." + op.String(), "count", "vmbps on stream (reads) and hot (fsync)"})
	}
	ms = append(ms, []layerMetric{
		{"rpc.daemon_busy_ms", "vms", "vmbps on stream and hot"},
		{"rpc.daemon_util", "frac", "vmbps on stream and hot"},
		{"rpc.retries", "count", "vmbps on stream and hot"},
		{"rpc.timeouts", "count", "vmbps on stream and hot"},
		{"pcie.h2d_mb", "MB", "vmbps on stream"},
		{"pcie.d2h_mb", "MB", "vmbps on hot"},
		{"pcie.transfers", "count", "vmbps on stream and hot"},
		{"pcie.h2d_util", "frac", "vmbps on stream"},
		{"pcie.d2h_util", "frac", "vmbps on hot"},
		{"hostfs.membus_busy_ms", "vms", "vmbps on stream"},
		{"hostfs.membus_util", "frac", "vmbps on stream"},
		{"wrapfs.validations", "count", "vmbps on stream"},
		{"wrapfs.invalidations", "count", "vmbps on stream"},
		{"disk.read_mb", "MB", "vmbps on stream (expected 0 everywhere)"},
		{"disk.busy_ms", "vms", "vmbps on stream (expected 0 everywhere)"},
		{"serve.queue_vms_p50", "vms", "job_p99_ms on serve"},
		{"serve.queue_vms_p99", "vms", "job_p99_ms on serve"},
		{"serve.exec_vms_p50", "vms", "job_p50_ms on serve"},
		{"serve.exec_vms_p99", "vms", "job_p50_ms on serve"},
		{"serve.jobs_per_launch", "count", "throughput_jps on serve"},
		{"serve.affinity_hit_frac", "frac", "job_p50_ms on serve"},
		{"serve.stolen", "count", "throughput_jps on serve"},
		{"serve.spilled", "count", "throughput_jps on serve"},
		{"serve.refused", "count", "job_p99_ms on serve"},
		{"serve.gen_lag_vms", "vms", "job_p99_ms on serve"},
		{"serve.submit_host_us", "us", "host_s on serve"},
		{"sim.alloc_mb", "MB", "host_s and peak_rss_mb on all"},
		{"sim.gc_cycles", "count", "host_s and peak_rss_mb on all"},
		{"sim.gc_pause_ms", "ms", "host_s on all"},
		{"sim.goroutines_max", "count", "host_s and peak_rss_mb on all"},
		{"sim.vs_per_host_s", "vs/s", "host_s on all"},
		{"self.workload_host_ms", "ms", "host_s on all"},
		{"self.gpu_host_ms", "ms", "host_s on all"},
		{"self.core_host_ms", "ms", "host_s on stream and hot"},
		{"self.serve_host_ms", "ms", "host_s on serve"},
		{"self.gpu_vms", "vms", "job_p50_ms on all"},
		{"self.core_vms", "vms", "vmbps on stream and hot"},
		{"self.serve_vms", "vms", "job_p50_ms on serve"},
		{"trace.overhead_host_s", "s", "none: cost of tracing, traced host_s minus untraced"},
		{"trace.spans", "count", "none: spans recorded per traced round"},
		{"bound.violations", "count", "none: *_util values above 1"},
	}...)
	return ms
}()

// perLayer reports the per-layer metrics of the traced rounds: the
// median over rounds of each round's value, except self times, which are
// summed over all traced spans and divided by the traced rounds.
func perLayer(traced, plain []*round, spans []span) []metric {
	n := float64(len(traced))
	vals := map[string][]float64{}
	for _, r := range traced {
		for k, v := range r.layer {
			vals[k] = append(vals[k], v)
		}
	}
	host, virt := selfTimes(spans)
	for _, l := range []string{"workload", "gpu", "core", "serve"} {
		vals["self."+l+"_host_ms"] = []float64{host[l] * 1e3 / n}
		if l != "workload" {
			vals["self."+l+"_vms"] = []float64{virt[l] / n}
		}
	}
	var th, ph []float64
	for _, r := range traced {
		th = append(th, r.host.Seconds())
	}
	for _, r := range plain {
		ph = append(ph, r.host.Seconds())
	}
	vals["trace.overhead_host_s"] = []float64{median(th) - median(ph)}
	vals["trace.spans"] = []float64{float64(len(spans)) / n}

	out := make([]metric, 0, len(layerMetrics))
	violations := 0.0
	for _, lm := range layerMetrics {
		v := median(vals[lm.name])
		if strings.HasSuffix(lm.name, "_util") && v > 1 {
			violations++
		}
		if lm.name == "bound.violations" {
			v = violations
		}
		out = append(out, metric{lm.name, lm.unit, v, lm.moves})
	}
	return out
}

// callQuantiles adds the per-call metrics of a traced round's tracer.
func callQuantiles(m map[string]float64, t *tracer) {
	for op, st := range t.ops {
		name := "core." + opNames[op]
		if st.calls > 0 {
			m[name+".calls"] = float64(st.calls)
		}
		m[name+".errors"] = float64(st.errors)
		if len(st.vus) > 0 {
			s := append([]float64(nil), st.vus...)
			sort.Float64s(s)
			m[name+".vus_p50"] = quantileSorted(s, 0.50)
			m[name+".vus_p99"] = quantileSorted(s, 0.99)
			m[name+".host_us"] = float64(st.hostNS) / 1e3 / float64(len(st.vus))
		}
	}
	m["sim.goroutines_max"] = float64(t.gmax.Load())
}

// init refuses a layer table that names a metric twice.
func init() {
	seen := map[string]bool{}
	for _, lm := range layerMetrics {
		if seen[lm.name] {
			panic(fmt.Sprintf("perfbench: per-layer metric %q listed twice", lm.name))
		}
		seen[lm.name] = true
	}
}
