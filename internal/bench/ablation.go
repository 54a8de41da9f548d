package bench

import (
	"fmt"

	"gpufs"
	"gpufs/internal/params"
	"gpufs/internal/workloads"
)

// Ablation quantifies the design choices DESIGN.md calls out, beyond the
// paper's own figures:
//
//  1. GPU-side buffer-cache read-ahead (§3.3 lists it among the
//     optimizations a buffer cache enables; the prototype ships without
//     it) — measured on sequential AND random greads, since greedy
//     read-ahead must help the former and tax the latter.
//  2. The number of asynchronous DMA channels per direction (§4.3 uses
//     "multiple" channels to overlap transfers with disk access).
//  3. The closed-file-table fast reopen (§4.1): reopening files that a
//     GPU already caches without any CPU communication, priced on a
//     gopen/gclose-heavy many-small-files workload.
func Ablation(scale float64) (*Table, error) {
	t := &Table{
		ID:     "Ablation",
		Title:  "design-choice ablations (virtual time; lower is better unless noted)",
		Header: []string{"experiment", "baseline", "variant", "effect"},
	}

	if err := ablateReadAhead(scale, t); err != nil {
		return nil, err
	}
	if err := ablateDMAChannels(scale, t); err != nil {
		return nil, err
	}
	if err := ablateFastReopen(scale, t); err != nil {
		return nil, err
	}
	return t, nil
}

func ablateReadAhead(scale float64, t *Table) error {
	base := params.Scaled(scale)
	fileBytes := seqFileBytes(&base)
	blocks := 2 * base.MPsPerGPU

	seq := func(ra int) (*workloads.MicroResult, error) {
		return meanMicro(reps, func() (*workloads.MicroResult, error) {
			sys, err := seqSystemRA(scale, 256<<10, fileBytes, ra)
			if err != nil {
				return nil, err
			}
			if err := workloads.MakeDataFile(sys.Host(), sys.HostClock(), "/abl/seq.bin", fileBytes, 21); err != nil {
				return nil, err
			}
			sys.ResetTime()
			return workloads.SeqReadGPUfsGread(sys, 0, "/abl/seq.bin", fileBytes, blocks, 256, 64<<10)
		})
	}
	off, err := seq(0)
	if err != nil {
		return fmt.Errorf("ablation seq ra=0: %w", err)
	}
	on, err := seq(4)
	if err != nil {
		return fmt.Errorf("ablation seq ra=4: %w", err)
	}
	t.AddRow("read-ahead, sequential gread (64K chunks)",
		fmt.Sprintf("off: %s MB/s", mbps(off.Throughput)),
		fmt.Sprintf("4 pages: %s MB/s", mbps(on.Throughput)),
		fmt.Sprintf("%+.0f%%", 100*(float64(on.Throughput)/float64(off.Throughput)-1)))

	// Random reads: greedy read-ahead fetches pages nobody wants.
	rnd := func(ra int) (*workloads.MicroResult, error) {
		return meanMicro(reps, func() (*workloads.MicroResult, error) {
			sys, err := seqSystemRA(scale, 256<<10, fileBytes, ra)
			if err != nil {
				return nil, err
			}
			if err := workloads.MakeDataFile(sys.Host(), sys.HostClock(), "/abl/rand.bin", fileBytes, 22); err != nil {
				return nil, err
			}
			sys.ResetTime()
			return workloads.RandReadGPUfs(sys, 0, "/abl/rand.bin", fileBytes, 4*base.MPsPerGPU, 128, 4, 32<<10)
		})
	}
	roff, err := rnd(0)
	if err != nil {
		return fmt.Errorf("ablation rand ra=0: %w", err)
	}
	ron, err := rnd(4)
	if err != nil {
		return fmt.Errorf("ablation rand ra=4: %w", err)
	}
	t.AddRow("read-ahead, random 32K greads",
		fmt.Sprintf("off: %s MB/s eff.", mbps(roff.Throughput)),
		fmt.Sprintf("4 pages: %s MB/s eff.", mbps(ron.Throughput)),
		fmt.Sprintf("%+.0f%%", 100*(float64(ron.Throughput)/float64(roff.Throughput)-1)))
	t.AddNote("the greedy ReadAheadPages window helps streaming greads and taxes random ones — why that window is off by default, like the prototype; the default read-ahead is the adaptive detector")
	return nil
}

func ablateDMAChannels(scale float64, t *Table) error {
	base := params.Scaled(scale)
	fileBytes := seqFileBytes(&base)
	blocks := 2 * base.MPsPerGPU

	// Small pages make per-transfer latency visible: that is where the
	// channel count matters (at large pages the host memory bus is the
	// bottleneck and extra channels buy nothing).
	run := func(channels int) (*workloads.MicroResult, error) {
		return meanMicro(reps, func() (*workloads.MicroResult, error) {
			cfg := gpufs.ScaledConfig(scale)
			cfg.PageSize = 16 << 10
			cfg.DMAChannels = channels
			if cfg.BufferCacheBytes < fileBytes+16*cfg.PageSize {
				cfg.BufferCacheBytes = fileBytes + 16*cfg.PageSize
			}
			if cfg.GPUMemBytes < cfg.BufferCacheBytes+fileBytes {
				cfg.GPUMemBytes = cfg.BufferCacheBytes + fileBytes
			}
			sys, err := newSystem(cfg)
			if err != nil {
				return nil, err
			}
			if err := workloads.MakeDataFile(sys.Host(), sys.HostClock(), "/abl/dma.bin", fileBytes, 23); err != nil {
				return nil, err
			}
			sys.ResetTime()
			return workloads.SeqReadGPUfs(sys, 0, "/abl/dma.bin", fileBytes, blocks, 256)
		})
	}
	one, err := run(1)
	if err != nil {
		return fmt.Errorf("ablation dma=1: %w", err)
	}
	four, err := run(4)
	if err != nil {
		return fmt.Errorf("ablation dma=4: %w", err)
	}
	t.AddRow("DMA channels, sequential read (16K pages)",
		fmt.Sprintf("1 channel: %s MB/s", mbps(one.Throughput)),
		fmt.Sprintf("4 channels: %s MB/s", mbps(four.Throughput)),
		fmt.Sprintf("%+.0f%%", 100*(float64(four.Throughput)/float64(one.Throughput)-1)))
	return nil
}

func ablateFastReopen(scale float64, t *Table) error {
	base := params.Scaled(scale)
	blocks := 2 * base.MPsPerGPU
	const nFiles = 96
	const rounds = 4

	run := func(disable bool) (*workloads.MicroResult, error) {
		return meanMicro(reps, func() (*workloads.MicroResult, error) {
			cfg := gpufs.ScaledConfig(scale)
			cfg.DisableFastReopen = disable
			sys, err := newSystem(cfg)
			if err != nil {
				return nil, err
			}
			files := make([]string, nFiles)
			for i := range files {
				files[i] = fmt.Sprintf("/abl/files/f%03d", i)
				if err := workloads.MakeDataFile(sys.Host(), sys.HostClock(), files[i], 8<<10, int64(30+i)); err != nil {
					return nil, err
				}
			}
			sys.ResetTime()
			return workloads.ReopenStorm(sys, 0, files, blocks, 128, rounds)
		})
	}
	fast, err := run(false)
	if err != nil {
		return fmt.Errorf("ablation reopen fast: %w", err)
	}
	slow, err := run(true)
	if err != nil {
		return fmt.Errorf("ablation reopen slow: %w", err)
	}
	t.AddRow(fmt.Sprintf("closed-table fast reopen (%d files x %d rounds)", nFiles, rounds),
		fmt.Sprintf("with: %s", msec(fast.Elapsed)+"ms"),
		fmt.Sprintf("without: %s", msec(slow.Elapsed)+"ms"),
		fmt.Sprintf("%.1fx slower without", float64(slow.Elapsed)/float64(fast.Elapsed)))
	return nil
}

// seqSystemRA is seqSystem plus a read-ahead setting. The adaptive engine
// and the cleaner are pinned off so the greedy window under test (ra) is
// the only speculation in play — PR-3 behavior, bit for bit.
func seqSystemRA(scale float64, pageSize, fileBytes int64, ra int) (*gpufs.System, error) {
	cfg := gpufs.ScaledConfig(scale)
	cfg.PageSize = pageSize
	cfg.ReadAheadPages = ra
	cfg.ReadAheadAdaptive = false
	cfg.CleanerWorkers = 0
	need := fileBytes + 16*pageSize
	if cfg.BufferCacheBytes < need {
		cfg.BufferCacheBytes = need
	}
	if cfg.GPUMemBytes < cfg.BufferCacheBytes+fileBytes {
		cfg.GPUMemBytes = cfg.BufferCacheBytes + fileBytes
	}
	return newSystem(cfg)
}
