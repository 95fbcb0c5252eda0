// Package det provides deterministic helpers for the packages bound by the
// scheduling-determinism contract (see internal/lint). Go randomizes map
// iteration order per run; ranging over SortedKeys instead makes the visit
// order a pure function of the map's contents, which is what the maporder
// analyzer demands of every order-sensitive loop. Mix64 is the one hash
// finalizer every seeded stream and hash-derived order is built from.
package det

import (
	"cmp"
	"sort"
)

// SortedKeys returns the keys of m in ascending order. The copy is
// deliberate: callers range over the returned slice, so the loop order is
// reproducible across runs, processes, and Go versions.
func SortedKeys[M ~map[K]V, K cmp.Ordered, V any](m M) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Mix64 is the SplitMix64 finalizer: a cheap bijective avalanche over 64
// bits whose output is uniformly distributed even for sequential inputs.
// The full SplitMix64 step is Mix64(x + 0x9e3779b97f4a7c15).
func Mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
