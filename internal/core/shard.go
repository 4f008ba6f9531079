package core

import (
	"math"
	"reflect"
)

// numShards is the dependence-tracker shard count. Power of two; 64 keeps
// per-shard collision odds low for the paper's benchmarks (tens of live
// datums) while the array of mutexes stays a few cache lines.
const numShards = 64

// ShardOf maps any dependence key to its shard index — the basis of
// affinity placement (Policy.HomeLane).
func ShardOf(key any) uint32 { return shardIndex(key) }

// shardIndex maps a dependence key to its shard. Equal keys must always map
// to the same shard, so hashing goes through the key's value, not its
// interface box: pointers (the normal OmpSs by-reference key) hash their
// address, integers and strings their value. Exotic comparable keys
// (structs, arrays, interfaces) all share shard 0 — consistent, merely
// unsharded.
func shardIndex(key any) uint32 {
	if key == nil {
		return 0
	}
	var h uint64
	v := reflect.ValueOf(key)
	switch v.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Chan, reflect.Map, reflect.Func:
		h = uint64(v.Pointer())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		h = uint64(v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		h = v.Uint()
	case reflect.Float32, reflect.Float64:
		h = math.Float64bits(v.Float())
	case reflect.Bool:
		if v.Bool() {
			h = 1
		}
	case reflect.String:
		h = fnv64(v.String())
	default:
		return 0
	}
	return uint32(mix64(h)) & (numShards - 1)
}

// mix64 is the splitmix64 finalizer: a cheap full-avalanche bit mixer, so
// pointer alignment bits do not bias shard choice.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func fnv64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
