// Package proxy is the fleet tier in front of N serve replicas: an
// HTTP front door that consistent-hashes prediction requests by a
// checksum of the body bytes (so each replica's feature memo stays hot
// on its own slice of the keyspace), health-checks replicas via
// /readyz with eject/readmit backoff, hedges slow shards onto the next
// ring replica, and aggregates the fleet's telemetry (/metrics,
// /v1/admin/slo, /v1/admin/quality) behind one address. The rollout
// controller in rollout.go pushes a candidate artifact to every
// replica over the authenticated shadow path and promotes fleet-wide
// only when every replica's own shadow tallies clear the agreement
// threshold.
package proxy

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// vnodes is the virtual-node count per member. 64 points per replica
// keeps the keyspace split within a few percent of even for small
// fleets while the ring stays tiny (N*64 entries).
const vnodes = 64

// ringPoint is one virtual node: a position on the hash circle owned
// by a member.
type ringPoint struct {
	hash   uint64
	member string
}

// Ring is a consistent-hash ring over named members (replica
// addresses). Placement is a pure function of the member set — member
// insertion order, process restarts and lookup history never move a
// key — and removing one member moves only the keys that member owned
// (≈ 1/N of the keyspace). Safe for concurrent Lookup/Add/Remove.
type Ring struct {
	mu     sync.RWMutex
	points []ringPoint // sorted by hash
	member map[string]bool
}

// NewRing returns an empty ring.
func NewRing() *Ring {
	return &Ring{member: map[string]bool{}}
}

// hashKey positions a routing key (or a member#vnode name) on the
// circle. FNV-1a over the raw bytes: fast, allocation-free, and stable
// across processes — determinism across restarts is part of the ring's
// contract, so a seeded or randomized hash would be a bug.
func hashKey(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return h.Sum64()
}

// Add inserts member's virtual nodes. Adding a present member is a
// no-op, so eject/readmit cycles cannot double-insert.
func (r *Ring) Add(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.member[member] {
		return
	}
	r.member[member] = true
	for v := 0; v < vnodes; v++ {
		r.points = append(r.points, ringPoint{
			hash:   hashKey(member + "#" + strconv.Itoa(v)),
			member: member,
		})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Remove deletes member's virtual nodes; keys it owned redistribute to
// their clockwise successors. Removing an absent member is a no-op.
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.member[member] {
		return
	}
	delete(r.member, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Lookup returns the member owning key: the first virtual node
// clockwise from the key's position. ok is false on an empty ring.
func (r *Ring) Lookup(key string) (member string, ok bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return "", false
	}
	return r.points[r.searchLocked(hashKey(key))].member, true
}

// LookupN returns up to n distinct members clockwise from key's
// position: the primary first, then the hedge/retry targets in the
// order keys would fail over if the primary were ejected.
func (r *Ring) LookupN(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.member) {
		n = len(r.member)
	}
	out := make([]string, 0, n)
	seen := make(map[string]bool, n)
	for i, start := 0, r.searchLocked(hashKey(key)); i < len(r.points) && len(out) < n; i++ {
		m := r.points[(start+i)%len(r.points)].member
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}

// searchLocked finds the index of the first point at or clockwise from
// h, wrapping past the top of the circle.
func (r *Ring) searchLocked(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Size is the current member count.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.member)
}
