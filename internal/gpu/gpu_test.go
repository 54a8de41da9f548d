package gpu

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gpufs/internal/simtime"
)

func testDevice() *Device {
	return New(Config{
		ID:              0,
		MPs:             4,
		BlocksPerMP:     2,
		WarpSize:        32,
		MemBytes:        64 << 20,
		MemBandwidth:    100_000 * simtime.MBps,
		Flops:           8e9,
		ScratchpadBytes: 48 << 10,
		LaunchOverhead:  10 * simtime.Microsecond,
	})
}

func TestLaunchGeometry(t *testing.T) {
	d := testDevice()
	if _, err := d.Launch(0, 0, 32, func(b *Block) error { return nil }); err == nil {
		t.Fatalf("zero blocks must fail")
	}
	if _, err := d.Launch(0, 4, 0, func(b *Block) error { return nil }); err == nil {
		t.Fatalf("zero threads must fail")
	}
	if d.MaxResidentBlocks() != 8 {
		t.Fatalf("resident = %d", d.MaxResidentBlocks())
	}
	if d.WarpSize() != 32 {
		t.Fatalf("warp size")
	}
}

func TestAllBlocksRunExactlyOnce(t *testing.T) {
	d := testDevice()
	var mu sync.Mutex
	seen := make(map[int]int)
	end, err := d.Launch(0, 100, 64, func(b *Block) error {
		mu.Lock()
		seen[b.Idx]++
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 100 {
		t.Fatalf("blocks seen: %d", len(seen))
	}
	for idx, n := range seen {
		if n != 1 {
			t.Fatalf("block %d ran %d times", idx, n)
		}
	}
	if end < simtime.Time(10*simtime.Microsecond) {
		t.Fatalf("end %v earlier than launch overhead", end)
	}
	if d.BlocksRun() != 100 || d.KernelsRun() != 1 {
		t.Fatalf("counters: %d %d", d.BlocksRun(), d.KernelsRun())
	}
}

func TestComputeMakespanMatchesIdeal(t *testing.T) {
	// Uniform compute across many blocks should use every MP: makespan ≈
	// total flops / device rate.
	d := testDevice()
	const blocks = 64
	const flopsPerBlock = 1e9 / 8
	end, err := d.Launch(0, blocks, 128, func(b *Block) error {
		b.Compute(flopsPerBlock)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ideal := simtime.Duration(blocks * flopsPerBlock / 8e9 * float64(simtime.Second))
	got := simtime.Duration(end)
	if got < ideal || got > ideal+ideal/10+simtime.Millisecond {
		t.Fatalf("makespan %v, ideal %v: scheduling must balance MPs", got, ideal)
	}
}

func TestDispatchBalanced(t *testing.T) {
	d := testDevice()
	_, err := d.Launch(0, 80, 64, func(b *Block) error {
		b.Compute(1e6)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range d.SlotAssignments() {
		if n != 10 {
			t.Fatalf("slot %d ran %d blocks; uniform work must balance to 10", i, n)
		}
	}
}

func TestNonDeterministicOrderBySeed(t *testing.T) {
	run := func(seed int64) []int {
		d := New(Config{ID: 0, MPs: 1, BlocksPerMP: 1, MemBytes: 1 << 20, SchedSeed: seed})
		var order []int
		var mu sync.Mutex
		d.Launch(0, 16, 32, func(b *Block) error {
			mu.Lock()
			order = append(order, b.Idx)
			mu.Unlock()
			return nil
		})
		return order
	}
	a, b := run(1), run(2)
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatalf("different seeds should give different dispatch orders")
	}
	// Single slot: order is strictly the dispatch order, a permutation.
	seen := make(map[int]bool)
	for _, idx := range a {
		seen[idx] = true
	}
	if len(seen) != 16 {
		t.Fatalf("not a permutation: %v", a)
	}
}

func TestKernelFaultStickiness(t *testing.T) {
	d := testDevice()
	_, err := d.Launch(0, 8, 32, func(b *Block) error {
		if b.Idx == 3 {
			return fmt.Errorf("bad memory access")
		}
		return nil
	})
	if !errors.Is(err, ErrKernelFault) {
		t.Fatalf("want ErrKernelFault, got %v", err)
	}
	if d.Faulted() == nil {
		t.Fatalf("fault should stick (the paper: GPU failures may require a card restart)")
	}
	if _, err := d.Launch(0, 1, 1, func(b *Block) error { return nil }); err == nil {
		t.Fatalf("launch on faulted device must fail")
	}
	d.ResetFault()
	if _, err := d.Launch(0, 1, 1, func(b *Block) error { return nil }); err != nil {
		t.Fatalf("after reset: %v", err)
	}
}

func TestPanicBecomesFault(t *testing.T) {
	d := testDevice()
	_, err := d.Launch(0, 2, 32, func(b *Block) error {
		if b.Idx == 1 {
			panic("assertion failure")
		}
		return nil
	})
	if !errors.Is(err, ErrKernelFault) {
		t.Fatalf("panic should surface as kernel fault: %v", err)
	}
	d.ResetFault()
}

func TestBlockContext(t *testing.T) {
	d := testDevice()
	_, err := d.Launch(0, 1, 100, func(b *Block) error {
		if b.Warps() != 4 {
			return fmt.Errorf("warps = %d, want 4 (100 threads / 32)", b.Warps())
		}
		if len(b.Scratch) != 48<<10 {
			return fmt.Errorf("scratchpad %d", len(b.Scratch))
		}
		count := 0
		b.ForEachThread(func(tid int) { count++ })
		if count != 100 {
			return fmt.Errorf("ForEachThread ran %d", count)
		}
		warps := 0
		b.ForEachWarp(func(w, first int) { warps++ })
		if warps != 4 {
			return fmt.Errorf("ForEachWarp ran %d", warps)
		}
		if b.Device() != d {
			return fmt.Errorf("device accessor")
		}
		b.SyncThreads()
		b.MemFence()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCopyAndZeroCharges(t *testing.T) {
	d := testDevice()
	_, err := d.Launch(0, 1, 32, func(b *Block) error {
		src := make([]byte, 64<<10)
		src[2] = 3
		dst := make([]byte, 64<<10)
		before := b.Clock.Now()
		if n := b.CopyBytes(dst, src); n != 64<<10 {
			return fmt.Errorf("copy n=%d", n)
		}
		if dst[2] != 3 {
			return fmt.Errorf("copy payload")
		}
		if b.Clock.Now() <= before {
			return fmt.Errorf("copy should cost time")
		}
		b.ZeroBytes(dst)
		if dst[2] != 0 {
			return fmt.Errorf("zero payload")
		}
		b.TouchBytes(1 << 20)
		b.UseMemory(simtime.Microsecond)
		b.Busy(simtime.Microsecond)
		b.ComputeBytes(1<<20, 1e9)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.MemBandwidthResource().Busy() == 0 {
		t.Fatalf("memory traffic not accounted")
	}
}

func TestSlotAvailabilityPersistsAcrossLaunches(t *testing.T) {
	d := testDevice()
	end1, _ := d.Launch(0, 8, 32, func(b *Block) error {
		b.Compute(1e8)
		return nil
	})
	// A second kernel launched at time 0 still waits for slots to free:
	// the earliest slot frees halfway through the first kernel (two
	// blocks share each MP), so no second-kernel block may start before
	// then.
	var earliest simtime.Time = 1 << 62
	var mu sync.Mutex
	d.Launch(0, 8, 32, func(b *Block) error {
		mu.Lock()
		if b.Clock.Now() < earliest {
			earliest = b.Clock.Now()
		}
		mu.Unlock()
		return nil
	})
	if earliest < end1/2-simtime.Time(simtime.Millisecond) {
		t.Fatalf("second kernel started at %v before any slot freed (first kernel ended %v)", earliest, end1)
	}
	d.ResetTime()
	end3, _ := d.Launch(0, 1, 32, func(b *Block) error { return nil })
	if end3 > simtime.Time(simtime.Millisecond) {
		t.Fatalf("after ResetTime, kernel should start immediately: %v", end3)
	}
}

func TestBlockRandDeterministicPerLaunch(t *testing.T) {
	// Each block draws a few values in each of three launches; the
	// sequence must be the documented function of (launch seq, block
	// index), whatever slot or order the block ran in.
	const launches, blocks, draws = 3, 8, 4
	collect := func() [launches][blocks][draws]int64 {
		d := New(Config{ID: 0, MPs: 2, BlocksPerMP: 2, MemBytes: 1 << 20})
		var out [launches][blocks][draws]int64
		var mu sync.Mutex
		for l := 0; l < launches; l++ {
			d.Launch(0, blocks, 32, func(b *Block) error {
				var v [draws]int64
				for i := range v {
					v[i] = b.Rand().Int63()
				}
				mu.Lock()
				out[l][b.Idx] = v
				mu.Unlock()
				return nil
			})
		}
		return out
	}
	a, b := collect(), collect()
	if a != b {
		t.Fatalf("block RNG must be deterministic per (launch, block)")
	}
	for seq := range a {
		for idx := range a[seq] {
			want := rand.New(rand.NewSource(int64(seq)<<20 ^ int64(idx)*0x9e3779b9))
			for i, got := range a[seq][idx] {
				if w := want.Int63(); got != w {
					t.Fatalf("launch %d block %d draw %d: got %d, want %d", seq, idx, i, got, w)
				}
			}
		}
	}
}

func TestScratchZeroedAcrossLaunches(t *testing.T) {
	// Slots reuse one scratchpad for the device's lifetime; every block
	// must still start from an all-zero one, including blocks that land
	// on a slot a previous block (of this or an earlier launch) dirtied.
	d := testDevice()
	for l := 0; l < 3; l++ {
		_, err := d.Launch(0, 2*d.MaxResidentBlocks(), 32, func(b *Block) error {
			for i, v := range b.Scratch {
				if v != 0 {
					return fmt.Errorf("block %d: scratch[%d] = %d, want 0", b.Idx, i, v)
				}
			}
			for i := range b.Scratch {
				b.Scratch[i] = 0xa5
			}
			return nil
		})
		if err != nil {
			t.Fatalf("launch %d: %v", l, err)
		}
	}
}

func TestConcurrentLaunchesSerializePerDevice(t *testing.T) {
	// Launches on one device serialize (documented simplification); both
	// kernels must still run all their blocks exactly once.
	d := testDevice()
	var mu sync.Mutex
	counts := map[string]int{}
	var wg sync.WaitGroup
	for k := 0; k < 2; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			d.Launch(0, 20, 32, func(b *Block) error {
				mu.Lock()
				counts[fmt.Sprintf("%d/%d", k, b.Idx)]++
				mu.Unlock()
				b.Compute(1e5)
				return nil
			})
		}(k)
	}
	wg.Wait()
	if len(counts) != 40 {
		t.Fatalf("blocks ran: %d, want 40", len(counts))
	}
	for key, n := range counts {
		if n != 1 {
			t.Fatalf("block %s ran %d times", key, n)
		}
	}
	if d.KernelsRun() != 2 {
		t.Fatalf("kernels: %d", d.KernelsRun())
	}
}

// TestSchedulerQualityProperty: for random per-block compute durations,
// the kernel makespan must sit between the trivial lower bounds (critical
// block; total work over all MPs) and the greedy list-scheduling upper
// bound (2x optimal for uniform machines).
func TestSchedulerQualityProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		d := New(Config{
			ID: 0, MPs: 4, BlocksPerMP: 2, MemBytes: 1 << 20,
			Flops: 4e9, // 1e9 per MP
		})
		nBlocks := 24 + rng.Intn(40)
		durs := make([]float64, nBlocks) // flops per block
		var total float64
		var longest float64
		for i := range durs {
			durs[i] = float64(rng.Intn(1e8) + 1e6)
			total += durs[i]
			if durs[i] > longest {
				longest = durs[i]
			}
		}
		end, err := d.Launch(0, nBlocks, 32, func(b *Block) error {
			b.Compute(durs[b.Idx])
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		makespan := simtime.Duration(end).Seconds()
		perMP := 1e9
		lower := total / (4 * perMP)
		if c := longest / perMP; c > lower {
			lower = c
		}
		upper := 2 * lower * 1.2 // list scheduling bound + model slack
		if makespan < lower*0.99 {
			t.Fatalf("seed %d: makespan %.4fs below lower bound %.4fs", seed, makespan, lower)
		}
		if makespan > upper {
			t.Fatalf("seed %d: makespan %.4fs exceeds list-scheduling bound %.4fs", seed, makespan, upper)
		}
	}
}
