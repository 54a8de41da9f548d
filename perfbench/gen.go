package main

import (
	"encoding/binary"
	"fmt"
	"hash"

	"gpufs"
)

// chunk is the gread/gwrite size of the stream and hot workloads.
const chunk = 32 << 10

// mix derives an independent 64-bit value from a seed and a path of
// indices (splitmix64 finalizer over each step).
func mix(seed int64, path ...int64) uint64 {
	x := uint64(seed)
	for _, p := range path {
		x += uint64(p)*0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019
		x ^= x >> 30
		x *= 0xBF58476D1CE4E5B9
		x ^= x >> 27
		x *= 0x94D049BB133111EB
		x ^= x >> 31
	}
	return x
}

// rng is a small splitmix64 stream, cheap enough to keep one per block.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// The data files' content is a function of (key, offset): the 8-byte word
// at offset o is (o+key)·φ, which differs at every offset of a file and
// between files with different keys, so a read from the wrong place or
// the wrong file never matches.
const phi = 0x9E3779B97F4A7C15

// fill writes the content of the file with the given key at [off, off+len(b)).
// off and len(b) are multiples of 8.
func fill(b []byte, key uint64, off int64) {
	for i := 0; i < len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], (uint64(off+int64(i))+key)*phi)
	}
}

// check reports the first offset in b that differs from the content of
// the file with the given key at off, or -1.
func check(b []byte, key uint64, off int64) int64 {
	for i := 0; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != (uint64(off+int64(i))+key)*phi {
			return off + int64(i)
		}
	}
	return -1
}

// mismatch describes a failed output check of the chunk read at off; at
// is the first differing offset, or -1 for a short read.
func mismatch(what string, off, at int64) error {
	if at < 0 {
		return fmt.Errorf("output check: short read of %s at offset %d", what, off)
	}
	return fmt.Errorf("output check: %s differs from the generator at offset %d", what, at)
}

// stamp feeds one virtual timestamp into a digest of a round's virtual
// results.
func stamp(h hash.Hash64, t gpufs.Time) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(t))
	h.Write(b[:])
}
