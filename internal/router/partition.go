// Package router is the replicated front tier of the serving stack
// (DESIGN.md §3.8): it partitions the IPv4 space into prefix-aligned
// ranges owned by N geoserve replicas, routes every lookup to its
// range's primary, and keeps answering when replicas die — health-aware
// failover to designated fallback replicas, jittered exponential-backoff
// retries, optional tail-latency hedging, and a bounded failure domain:
// a dead replica degrades only its own prefix range (503 + Retry-After,
// never a hang), and recovers by passing consecutive readiness probes.
//
// Every replica serves the full artifact; the prefix partition shards
// *load*, not data, which is exactly
// what makes failover possible: any fallback can answer any address.
package router

import (
	"math"
	"sort"

	"geoloc/internal/ipaddr"
)

// Range is one contiguous, prefix-aligned span of IPv4 space,
// [Lo, Hi] both inclusive (inclusive bounds avoid the 2^32 overflow a
// half-open top range would need), owned by one replica.
type Range struct {
	Lo, Hi  ipaddr.Addr
	Replica int
}

// Contains reports whether the address lies inside the range.
func (r Range) Contains(a ipaddr.Addr) bool { return r.Lo <= a && a <= r.Hi }

// Ranges is a partition of the IPv4 space: sorted, non-overlapping,
// jointly exhaustive ranges as produced by Partition.
type Ranges []Range

// PrefixBits returns the prefix length p used to partition for n
// replicas: the smallest p with 2^p >= n, so every replica owns at
// least one whole /p prefix.
func PrefixBits(n int) int {
	p := 0
	for 1<<p < n {
		p++
	}
	return p
}

// Partition splits the IPv4 space into n contiguous prefix-aligned
// ranges, one per replica, as evenly as integer arithmetic allows: with
// p = PrefixBits(n) the 2^p /p-prefixes are dealt out in contiguous
// blocks of floor/ceil(2^p/n). The result covers every address exactly
// once — the property test checks this against a linear-scan oracle for
// every replica count the router supports.
func Partition(n int) Ranges {
	if n < 1 || n > 1<<16 {
		panic("router: Partition needs 1 <= n <= 65536 replicas")
	}
	p := PrefixBits(n)
	total := uint64(1) << p
	shift := uint(32 - p)
	out := make(Ranges, 0, n)
	for i := 0; i < n; i++ {
		loPfx := uint64(i) * total / uint64(n)
		hiPfx := uint64(i+1) * total / uint64(n)
		lo := uint32(loPfx << shift)
		hi := uint32(math.MaxUint32)
		if hiPfx < total {
			hi = uint32(hiPfx<<shift) - 1
		}
		out = append(out, Range{Lo: ipaddr.Addr(lo), Hi: ipaddr.Addr(hi), Replica: i})
	}
	return out
}

// ReplicaFor returns the replica owning addr: binary search over the
// sorted partition. The linear-scan oracle in the property test is the
// spec this must match.
func (rs Ranges) ReplicaFor(a ipaddr.Addr) int {
	i := sort.Search(len(rs), func(j int) bool { return a <= rs[j].Hi })
	if i >= len(rs) {
		// Unreachable for a Partition result (the last Hi is the top
		// address); defend against a hand-built partial Ranges.
		i = len(rs) - 1
	}
	return rs[i].Replica
}
