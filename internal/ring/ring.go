// Package ring implements a consistent-hashing partition of region
// descriptors across live Khazana nodes (the ROADMAP's decentralized
// location item, in the spirit of Nicolae et al.'s fine-grain access
// scheme). The global address space is cut into fixed-size buckets;
// each bucket hashes onto a ring of virtual node points, and the first
// ReplicationFactor distinct physical successors own the bucket. Region
// descriptors are announced to the owners of every bucket their range
// overlaps, giving any node a one-RPC-hop cold lookup: hash the faulting
// address to its bucket, ask an owner, done. The per-node region
// directory stays as the cache in front; the §3.1 address-map tree walk
// remains only as a repair fallback when the ring disagrees with
// reality (mid-churn, owners crashed, announce lost).
//
// A Ring is immutable: membership changes build a new Ring and the
// owner diff between old and new drives rebalancing. All nodes build
// byte-identical rings from the same member set — hashing uses a fixed
// 64-bit mixer, no per-process seed — so no coordination is needed to
// agree on bucket ownership.
package ring

import (
	"sort"

	"khazana/internal/gaddr"
	"khazana/internal/ktypes"
)

// BucketShift sets the bucket granularity: addresses are aligned down
// to 1<<BucketShift before hashing. 30 matches the 1 GiB reservation
// chunk the address map hands out, so in practice one bucket covers one
// reservation and a region never straddles more than a handful of
// buckets.
const BucketShift = 30

// BucketSize is the width of one hash bucket in address-space bytes.
const BucketSize = uint64(1) << BucketShift

// DefaultVirtualNodes is the number of ring points per physical node.
// 64 keeps the per-node ownership imbalance under ~15% for clusters of
// 16 to 256 nodes while keeping Build cheap enough to run on every
// membership change.
const DefaultVirtualNodes = 64

// DefaultReplicationFactor is how many distinct physical nodes own each
// bucket. Two owners survive any single crash between heartbeat rounds.
const DefaultReplicationFactor = 2

// Options tunes ring construction. The zero value selects defaults.
type Options struct {
	// VirtualNodes is the number of ring points per physical node
	// (<=0 selects DefaultVirtualNodes).
	VirtualNodes int
	// ReplicationFactor is the number of distinct physical owners per
	// bucket (<=0 selects DefaultReplicationFactor). Clamped to the
	// member count.
	ReplicationFactor int
}

// point is one virtual node: a position on the 64-bit ring and the
// physical node it maps back to.
type point struct {
	hash uint64
	node ktypes.NodeID
}

// Ring is an immutable consistent-hashing ring over a member set.
type Ring struct {
	points   []point // sorted by hash
	members  []ktypes.NodeID
	replicas int
}

// mix64 is the splitmix64 finalizer: a fixed, seedless 64-bit mixer so
// every node derives identical ring positions from the same inputs.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// pointHash positions virtual node vn of a physical node on the ring.
func pointHash(node ktypes.NodeID, vn int) uint64 {
	return mix64(mix64(uint64(node)) + uint64(vn))
}

// BucketOf returns the bucket key (aligned-down address) for a.
func BucketOf(a gaddr.Addr) gaddr.Addr {
	return a.AlignDown(BucketSize)
}

// bucketHash positions a bucket key on the ring.
func bucketHash(bucket gaddr.Addr) uint64 {
	return mix64(mix64(bucket.Hi)*0x9e3779b97f4a7c15 + bucket.Lo)
}

// Buckets returns the bucket keys overlapped by rng, in address order.
// A zero-size range yields nil.
func Buckets(rng gaddr.Range) []gaddr.Addr {
	if rng.Size == 0 {
		return nil
	}
	first := BucketOf(rng.Start)
	lastAddr, err := rng.Start.Add(rng.Size - 1)
	if err != nil {
		lastAddr = gaddr.Addr{Hi: ^uint64(0), Lo: ^uint64(0)}
	}
	last := BucketOf(lastAddr)
	var out []gaddr.Addr
	for b := first; ; {
		out = append(out, b)
		if b == last {
			return out
		}
		next, err := b.Add(BucketSize)
		if err != nil {
			return out
		}
		b = next
	}
}

// Build constructs the ring for a member set. The member slice is
// copied, deduplicated, and sorted; nil node IDs are dropped. A ring
// over zero members is valid and owns nothing.
func Build(members []ktypes.NodeID, opts Options) *Ring {
	vnodes := opts.VirtualNodes
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	replicas := opts.ReplicationFactor
	if replicas <= 0 {
		replicas = DefaultReplicationFactor
	}
	seen := make(map[ktypes.NodeID]bool, len(members))
	var ms []ktypes.NodeID
	for _, m := range members {
		if m == ktypes.NilNode || seen[m] {
			continue
		}
		seen[m] = true
		ms = append(ms, m)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i] < ms[j] })
	if replicas > len(ms) {
		replicas = len(ms)
	}
	r := &Ring{
		points:   make([]point, 0, len(ms)*vnodes),
		members:  ms,
		replicas: replicas,
	}
	for _, m := range ms {
		for vn := 0; vn < vnodes; vn++ {
			r.points = append(r.points, point{hash: pointHash(m, vn), node: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Members returns the sorted member set the ring was built from. The
// returned slice is shared; callers must not mutate it.
func (r *Ring) Members() []ktypes.NodeID {
	if r == nil {
		return nil
	}
	return r.members
}

// SameMembers reports whether the ring was built from exactly this
// member set (order-insensitive, duplicates ignored).
func (r *Ring) SameMembers(members []ktypes.NodeID) bool {
	if r == nil {
		return false
	}
	seen := make(map[ktypes.NodeID]bool, len(members))
	n := 0
	for _, m := range members {
		if m == ktypes.NilNode || seen[m] {
			continue
		}
		seen[m] = true
		n++
	}
	if n != len(r.members) {
		return false
	}
	for _, m := range r.members {
		if !seen[m] {
			return false
		}
	}
	return true
}

// Owners returns the distinct physical nodes owning the bucket, primary
// first: the first ReplicationFactor distinct nodes clockwise from the
// bucket's hash. Returns nil on an empty ring.
func (r *Ring) Owners(bucket gaddr.Addr) []ktypes.NodeID {
	if r == nil || len(r.points) == 0 {
		return nil
	}
	h := bucketHash(bucket)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	owners := make([]ktypes.NodeID, 0, r.replicas)
	for probed := 0; probed < len(r.points) && len(owners) < r.replicas; probed++ {
		p := r.points[(i+probed)%len(r.points)]
		dup := false
		for _, o := range owners {
			if o == p.node {
				dup = true
				break
			}
		}
		if !dup {
			owners = append(owners, p.node)
		}
	}
	return owners
}

// Owner returns the primary owner of the bucket, or NilNode on an
// empty ring.
func (r *Ring) Owner(bucket gaddr.Addr) ktypes.NodeID {
	owners := r.Owners(bucket)
	if len(owners) == 0 {
		return ktypes.NilNode
	}
	return owners[0]
}

// IsOwner reports whether node is among the owners of the bucket.
func (r *Ring) IsOwner(node ktypes.NodeID, bucket gaddr.Addr) bool {
	for _, o := range r.Owners(bucket) {
		if o == node {
			return true
		}
	}
	return false
}

// RangeOwners returns the distinct owners across every bucket rng
// overlaps, in first-seen order. This is the announce fan-out set for a
// region descriptor.
func (r *Ring) RangeOwners(rng gaddr.Range) []ktypes.NodeID {
	var out []ktypes.NodeID
	for _, b := range Buckets(rng) {
		for _, o := range r.Owners(b) {
			dup := false
			for _, have := range out {
				if have == o {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, o)
			}
		}
	}
	return out
}
