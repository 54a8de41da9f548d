package main

import (
	"sort"
	"sync"
	"time"
)

// calRef is the reference machine's time for one calibrate call: the
// median measured on the 2-core machine the benchmark was written on.
const calRef = 0.05 // s

var calSink uint64

// calibrate times a fixed piece of Go work shaped like the simulator's
// own: two goroutines (one per core of the reference machine) that each
// twice sort fresh random numbers, fill a map under a shared mutex and
// write a fresh 4 MB buffer, so allocation and the collector take part
// as they do in the simulator. A run calibrates before every round, and
// host_s scales the measured host time by calRef over the run's median
// calibrate time, so a shared machine that runs slower for a few
// minutes slows both alike.
func calibrate() time.Duration {
	t := time.Now()
	var wg sync.WaitGroup
	var mu sync.Mutex
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 2; rep++ {
				r := rng(uint64(2*g + rep))
				xs := make([]uint64, 1<<16)
				for i := range xs {
					xs[i] = r.next()
				}
				sort.Slice(xs, func(a, b int) bool { return xs[a] < xs[b] })
				m := map[uint64]int{}
				for i := 0; i < 1<<15; i++ {
					m[xs[i]] = i
					mu.Lock()
					calSink += uint64(i)
					mu.Unlock()
				}
				buf := make([]byte, 4<<20)
				for i := 0; i < len(buf); i += 8 {
					buf[i] = byte(r.next())
				}
			}
		}(g)
	}
	wg.Wait()
	return time.Since(t)
}
