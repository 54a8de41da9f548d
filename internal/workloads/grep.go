package workloads

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"

	"gpufs"
	"gpufs/internal/cudart"
	"gpufs/internal/gpu"
	"gpufs/internal/hostfs"
	"gpufs/internal/pcie"
	"gpufs/internal/simtime"
)

// The exact string matching application of §5.2.2: a constrained "grep -w"
// that, for every word of a dictionary, reports how many times and in which
// files it appears.
//
// Parallelization follows the paper: "each GPU thread is assigned one word"
// — the dictionary is sharded across the machine, so even a single large
// input file (the Shakespeare case) spreads over every multiprocessor. A
// work unit is a (file, dictionary shard) pair, striped across
// threadblocks; a block greads each file it has shards for and matches its
// words against it.
//
// The brute-force GPU cost is dictionary-size x text-size. Real Go code
// computes the same answer with one tokenizing pass per file (bucketing
// counts by shard, shared across blocks), and charges the brute-force cost
// in virtual time at the calibrated rate.

// GrepShards is the number of dictionary shards work is split into.
const GrepShards = 64

// GrepResult is one run's outcome.
type GrepResult struct {
	// Counts maps "word\tfile" to occurrences.
	Counts map[string]int
	// Elapsed is the virtual makespan.
	Elapsed simtime.Duration
	// BytesScanned is the total text volume processed.
	BytesScanned int64
}

// DefaultGrepOutRegion is the default per-threadblock reservation in the
// shared output file (written write-once at disjoint offsets).
const DefaultGrepOutRegion = 4 << 20

// tokenize invokes fn for every maximal [a-z] run in data.
func tokenize(data []byte, fn func(word []byte)) {
	i := 0
	n := len(data)
	for i < n {
		for i < n && (data[i] < 'a' || data[i] > 'z') {
			i++
		}
		start := i
		for i < n && data[i] >= 'a' && data[i] <= 'z' {
			i++
		}
		if i > start {
			fn(data[start:i])
		}
	}
}

func isLower(c byte) bool { return c >= 'a' && c <= 'z' }

// CountWord reports how many times word occurs in data as a whole token
// (a maximal [a-z] run), the matching rule of the grep workload (§5.2.2)
// and of the serving layer's grep jobs. A token is never empty and holds
// only [a-z], so an empty word, or one with any other byte, counts 0.
//
// It finds candidates with bytes.Index and keeps a hit only if the bytes
// on either side of it are not [a-z] (or it touches an end of data); after
// a hit the search resumes past the end of the token holding it, since no
// whole-word match can start inside a token.
func CountWord(data []byte, word string) int {
	if word == "" {
		return 0 // bytes.Index would match it everywhere without advancing
	}
	for i := 0; i < len(word); i++ {
		if !isLower(word[i]) {
			return 0
		}
	}
	w := []byte(word)
	n := 0
	for i := 0; i < len(data); {
		k := bytes.Index(data[i:], w)
		if k < 0 {
			break
		}
		start, end := i+k, i+k+len(w)
		if (start == 0 || !isLower(data[start-1])) && (end == len(data) || !isLower(data[end])) {
			n++
		}
		i = end
		for i < len(data) && isLower(data[i]) {
			i++
		}
	}
	return n
}

func dictSet(words []string) map[string]struct{} {
	s := make(map[string]struct{}, len(words))
	for _, w := range words {
		s[w] = struct{}{}
	}
	return s
}

// parseFileList splits the newline-separated list file.
func parseFileList(data []byte) []string {
	var out []string
	for _, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line != "" {
			out = append(out, line)
		}
	}
	return out
}

// shardCounts holds one file's dictionary-word occurrence counts, bucketed
// by shard so a block owning shard s grabs its matches in O(matches).
type shardCounts [GrepShards]map[string]int

// grepShared is the cross-block real-computation cache: the parsed
// dictionary (word -> index) and per-file bucketed counts. Every block
// still performs its greads, so virtual I/O is charged faithfully; only
// the redundant real tokenization is shared.
type grepShared struct {
	dict    *Dictionary
	wordIdx map[string]int

	mu    sync.Mutex
	files map[string]*shardCounts
}

func newGrepShared(dict *Dictionary) *grepShared {
	g := &grepShared{
		dict:    dict,
		wordIdx: make(map[string]int, len(dict.Words)),
		files:   make(map[string]*shardCounts),
	}
	for i, w := range dict.Words {
		g.wordIdx[w] = i
	}
	return g
}

// countsFor returns the bucketed counts for path, computing them from data
// on first use.
func (g *grepShared) countsFor(path string, data []byte) *shardCounts {
	g.mu.Lock()
	sc, ok := g.files[path]
	g.mu.Unlock()
	if ok {
		return sc
	}
	sc = &shardCounts{}
	tokenize(data, func(w []byte) {
		if i, ok := g.wordIdx[string(w)]; ok {
			s := i % GrepShards
			if sc[s] == nil {
				sc[s] = make(map[string]int)
			}
			sc[s][string(w)]++
		}
	})
	g.mu.Lock()
	if prev, ok := g.files[path]; ok {
		sc = prev // another block beat us; results are identical
	} else {
		g.files[path] = sc
	}
	g.mu.Unlock()
	return sc
}

// shardsOf returns the shards of file fi owned by worker idx when units
// (fi*GrepShards + s) are striped over workers.
func shardsOf(fi, idx, workers int) []int {
	var out []int
	for s := 0; s < GrepShards; s++ {
		if (fi*GrepShards+s)%workers == idx {
			out = append(out, s)
		}
	}
	return out
}

// shardWork is the virtual brute-force cost (in byte-word comparisons) of
// matching nShards of the dictionary against size bytes of text.
func shardWork(size int64, words, nShards int) int64 {
	return size * int64(words) * int64(nShards) / GrepShards
}

// GrepGPUfs runs the GPUfs implementation on one GPU: the kernel reads the
// dictionary, the file list, and every input file through the GPUfs API,
// and flushes its per-block output buffer into a shared output file with
// write-once semantics. This workload stresses gopen/gclose: the number of
// concurrently open files climbs toward the number of running threadblocks.
func GrepGPUfs(sys *gpufs.System, gpuID int, dictPath, listPath, outPath string, rate float64, blocks, threads int, outRegion int64) (*GrepResult, error) {
	if outRegion <= 0 {
		outRegion = DefaultGrepOutRegion
	}
	res := &GrepResult{Counts: make(map[string]int)}
	var mu sync.Mutex

	var dictOnce sync.Once
	var shared *grepShared

	end, err := sys.GPU(gpuID).Launch(0, blocks, threads, func(c *gpufs.BlockCtx) error {
		// Parse the dictionary (the text-parsing helpers of §5.2.2).
		// Every block reads it through GPUfs; the decode is shared.
		dfd, err := c.Gopen(dictPath, gpufs.O_RDONLY)
		if err != nil {
			return err
		}
		dinfo, err := c.Gfstat(dfd)
		if err != nil {
			return err
		}
		draw := make([]byte, dinfo.Size)
		if _, err := c.Gread(dfd, draw, 0); err != nil {
			return err
		}
		if err := c.Gclose(dfd); err != nil {
			return err
		}
		dictOnce.Do(func() { shared = newGrepShared(DecodeDictionary(draw)) })

		// Parse the input file list.
		lfd, err := c.Gopen(listPath, gpufs.O_RDONLY)
		if err != nil {
			return err
		}
		linfo, err := c.Gfstat(lfd)
		if err != nil {
			return err
		}
		lraw := make([]byte, linfo.Size)
		if _, err := c.Gread(lfd, lraw, 0); err != nil {
			return err
		}
		if err := c.Gclose(lfd); err != nil {
			return err
		}
		files := parseFileList(lraw)

		ofd, err := c.Gopen(outPath, gpufs.O_GWRONCE)
		if err != nil {
			return err
		}
		outBase := int64(c.Idx) * outRegion
		outEnd := outBase + outRegion
		var outBuf []byte
		flush := func() error {
			if len(outBuf) == 0 {
				return nil
			}
			if outBase+int64(len(outBuf)) > outEnd {
				return fmt.Errorf("grep: block %d output region overflow", c.Idx)
			}
			if _, err := c.Gwrite(ofd, outBuf, outBase); err != nil {
				return err
			}
			outBase += int64(len(outBuf))
			outBuf = outBuf[:0]
			return nil
		}

		// With the syscall layer in relaxed mode, the block pipelines the
		// opens of its next few input files past the lane fence
		// (GopenAhead): the host round trips overlap this file's reads
		// and matching compute instead of serializing before each file.
		// Strong mode leaves the loop exactly as the prototype: one
		// blocking gopen per file.
		relaxed := sys.Config().SyscallOrdering == "relaxed"
		const openAheadWindow = 4
		var mine []int // indices of files this block owns shards for
		for fi := range files {
			if len(shardsOf(fi, c.Idx, c.Blocks)) > 0 {
				mine = append(mine, fi)
			}
		}
		pending := make(map[int]*gpufs.OpenFuture)

		local := make(map[string]int)
		var scanned int64
		var buf []byte
		for mi, fi := range mine {
			path := files[fi]
			myShards := shardsOf(fi, c.Idx, c.Blocks)
			if relaxed {
				for j := mi; j < len(mine) && j < mi+openAheadWindow; j++ {
					if pending[j] == nil {
						pending[j] = c.GopenAhead(files[mine[j]], gpufs.O_RDONLY)
					}
				}
			}
			// One file at a time: gopen (joining the open-ahead future if
			// one is in flight), gread the content, gclose.
			var fd int
			var err error
			if of := pending[mi]; of != nil {
				delete(pending, mi)
				fd, err = c.Gwait(of)
			} else {
				fd, err = c.Gopen(path, gpufs.O_RDONLY)
			}
			if err != nil {
				return err
			}
			info, err := c.Gfstat(fd)
			if err != nil {
				return err
			}
			if int64(len(buf)) < info.Size {
				buf = make([]byte, info.Size)
			}
			if _, err := c.Gread(fd, buf[:info.Size], 0); err != nil {
				return err
			}
			if err := c.Gclose(fd); err != nil {
				return err
			}
			scanned += info.Size

			// Each thread scans the text for its assigned words; the
			// block covers its dictionary shards.
			c.ComputeBytes(shardWork(info.Size, len(shared.dict.Words), len(myShards)), simtime.Rate(rate))
			sc := shared.countsFor(path, buf[:info.Size])
			for _, s := range myShards {
				for w, n := range sc[s] {
					local[w+"\t"+path] += n
					outBuf = append(outBuf, fmt.Sprintf("%s %s %d\n", w, path, n)...)
					if int64(len(outBuf)) >= outRegion/8 {
						if err := flush(); err != nil {
							return err
						}
					}
				}
			}
		}
		if err := flush(); err != nil {
			return err
		}
		if err := c.Gfsync(ofd); err != nil {
			return err
		}
		if err := c.Gclose(ofd); err != nil {
			return err
		}

		mu.Lock()
		for k, v := range local {
			res.Counts[k] += v
		}
		res.BytesScanned += scanned
		mu.Unlock()
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Elapsed = simtime.Duration(end)
	return res, nil
}

// GrepVanillaGPU is the non-GPUfs baseline of Table 4: the CPU prefetches
// every input file into a large pinned buffer, transfers everything to the
// GPU in one piece, runs the matching kernel against in-memory text, and
// retrieves a pre-allocated output buffer (which makes the kernel crash if
// the output overflows — the fragility GPUfs removes). String parsing and
// formatted output run on the CPU as a post-processing phase.
func GrepVanillaGPU(sys *gpufs.System, gpuID int, dict *Dictionary, files []string, rate float64, blocks, threads int, outBufBytes int64) (*GrepResult, error) {
	g := sys.GPU(gpuID)
	rt := cudart.New(sys.Host(), g.Link(), g.Device(), 0)
	defer rt.Close()

	// Phase 1: CPU prefetch of all inputs into pinned memory.
	var total int64
	sizes := make([]int64, len(files))
	for i, p := range files {
		info, err := sys.Host().Stat(p)
		if err != nil {
			return nil, err
		}
		sizes[i] = info.Size
		total += info.Size
	}
	pinned := rt.HostMalloc(total)
	defer rt.HostFree(total)
	var off int64
	bounds := make([]int64, len(files)+1)
	for i, p := range files {
		f, err := sys.Host().Open(rt.Clock(), p, hostfs.O_RDONLY, 0)
		if err != nil {
			return nil, err
		}
		if _, err := rt.Pread(f, pinned[off:off+sizes[i]], 0); err != nil {
			f.Close()
			return nil, err
		}
		f.Close()
		bounds[i] = off
		off += sizes[i]
	}
	bounds[len(files)] = off

	// Phase 2: one bulk transfer of the text (conservatively assuming it
	// fits in device memory — the vanilla version's limitation).
	devText, err := rt.Malloc(total)
	if err != nil {
		return nil, err
	}
	defer devText.Free()
	if err := rt.Memcpy(devText.Data, pinned, pcie.HostToDevice); err != nil {
		return nil, err
	}
	devOut, err := rt.Malloc(outBufBytes)
	if err != nil {
		return nil, err
	}
	defer devOut.Free()

	// Phase 3: the matching kernel, with the same word-per-thread
	// sharding as the GPUfs version.
	res := &GrepResult{Counts: make(map[string]int), BytesScanned: total}
	shared := newGrepShared(dict)
	var mu sync.Mutex
	var outUsed int64
	stream := rt.NewStream()
	err = stream.Launch(blocks, threads, func(b *gpu.Block) error {
		for fi := range files {
			myShards := shardsOf(fi, b.Idx, b.Blocks)
			if len(myShards) == 0 {
				continue
			}
			data := devText.Data[bounds[fi]:bounds[fi+1]]
			b.TouchBytes(int64(len(data)))
			b.ComputeBytes(shardWork(int64(len(data)), len(dict.Words), len(myShards)), simtime.Rate(rate))
			sc := shared.countsFor(files[fi], data)
			mu.Lock()
			for _, s := range myShards {
				for w, n := range sc[s] {
					rec := int64(len(w) + len(files[fi]) + 16)
					if outUsed+rec > outBufBytes {
						mu.Unlock()
						// Out of output space: the vanilla kernel
						// crashes (§5.2.2).
						return fmt.Errorf("vanilla grep: output buffer overflow at %d bytes", outUsed)
					}
					outUsed += rec
					res.Counts[w+"\t"+files[fi]] += n
				}
			}
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 4: retrieve the output buffer.
	stream.Synchronize()
	host := make([]byte, outUsed)
	if err := rt.Memcpy(host, devOut.Data[:outUsed], pcie.DeviceToHost); err != nil {
		return nil, err
	}

	res.Elapsed = simtime.Duration(rt.Clock().Now())
	return res, nil
}

// GrepCPU is the 8-core CPU reference: workers stripe the same (file,
// dictionary shard) units, prefetch content through the host file system,
// and match at the calibrated aggregate CPU rate.
func GrepCPU(host *hostfs.FS, dict *Dictionary, files []string, cores int, rate float64) (*GrepResult, error) {
	res := &GrepResult{Counts: make(map[string]int)}
	shared := newGrepShared(dict)
	perCore := rate / float64(cores)

	var mu sync.Mutex
	var wg sync.WaitGroup
	var meter simtime.Meter
	errs := make([]error, cores)

	for cpu := 0; cpu < cores; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			clock := simtime.NewClock(0)
			core := simtime.NewResource(fmt.Sprintf("grep-core-%d", cpu))
			local := make(map[string]int)
			var scanned int64
			for fi, path := range files {
				myShards := shardsOf(fi, cpu, cores)
				if len(myShards) == 0 {
					continue
				}
				data, err := readWith(host, clock, path)
				if err != nil {
					errs[cpu] = err
					return
				}
				sc := shared.countsFor(path, data)
				for _, s := range myShards {
					for w, n := range sc[s] {
						local[w+"\t"+path] += n
					}
				}
				scanned += int64(len(data))
				work := float64(shardWork(int64(len(data)), len(dict.Words), len(myShards)))
				clock.Use(core, simtime.Duration(work/perCore*float64(simtime.Second)))
			}
			mu.Lock()
			for k, v := range local {
				res.Counts[k] += v
			}
			res.BytesScanned += scanned
			mu.Unlock()
			meter.Observe(clock.Now())
		}(cpu)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	res.Elapsed = simtime.Duration(meter.Max())
	return res, nil
}

func readWith(host *hostfs.FS, clock *simtime.Clock, path string) ([]byte, error) {
	f, err := host.Open(clock, path, hostfs.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, f.Size())
	n, err := f.Pread(clock, buf, 0)
	return buf[:n], err
}

// SortedCounts renders a GrepResult deterministically (tests, examples).
func (r *GrepResult) SortedCounts() []string {
	out := make([]string, 0, len(r.Counts))
	for k, v := range r.Counts {
		out = append(out, fmt.Sprintf("%s %d", k, v))
	}
	sort.Strings(out)
	return out
}
