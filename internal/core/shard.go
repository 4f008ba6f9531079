package core

import (
	"sync"
	"unsafe"
)

// numShards is the dependence-tracker shard count. Power of two; 64 keeps
// per-shard collision odds low for the paper's benchmarks (tens of live
// datums) while the array of mutexes stays a few cache lines.
const numShards = 64

// gshard is one shard lock of the dependence tracker: it guards the records
// of every datum homed on the shard (see homeShard).
type gshard struct {
	mu sync.Mutex
	_  [56]byte // keep shard locks off each other's cache lines
}

// Each shard fills exactly one 64-byte cache line, so no two shard mutexes
// share one.
var _ [0]struct{} = [unsafe.Sizeof(gshard{}) - 64]struct{}{}

// homeShard maps a datum's registration ordinal to its shard. The ordinal
// is mixed rather than masked: raw keys draw ordinals too, so datums
// registered between runs of raw-key tasks sit at a regular stride, which a
// plain mask would fold onto a few shards.
func homeShard(ordinal uint64) uint32 {
	return uint32(mix64(ordinal)) & (numShards - 1)
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
