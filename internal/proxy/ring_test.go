package proxy

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func ringMembers(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("127.0.0.1:%d", 9000+i)
	}
	return out
}

func ringKeys(n int) []string {
	out := make([]string, n)
	rng := rand.New(rand.NewSource(42))
	for i := range out {
		out[i] = fmt.Sprintf("key-%d-%d", i, rng.Int63())
	}
	return out
}

// TestRingDeterministicPlacement: placement is a pure function of the
// member set — independent of insertion order and stable across
// "process restarts" (a freshly built ring must agree point for point).
func TestRingDeterministicPlacement(t *testing.T) {
	members := ringMembers(7)
	keys := ringKeys(2000)

	a := NewRing()
	for _, m := range members {
		a.Add(m)
	}
	// Same members, reversed insertion order, separate ring instance.
	b := NewRing()
	for i := len(members) - 1; i >= 0; i-- {
		b.Add(members[i])
	}
	for _, k := range keys {
		ma, ok := a.Lookup(k)
		if !ok {
			t.Fatalf("Lookup(%q) on a populated ring returned !ok", k)
		}
		mb, _ := b.Lookup(k)
		if ma != mb {
			t.Fatalf("placement depends on insertion order: key %q -> %q vs %q", k, ma, mb)
		}
	}
	// Churn must not move keys that never lost their owner: remove and
	// re-add an unrelated member and re-check a stable key.
	stable := ""
	for _, k := range keys {
		if m, _ := a.Lookup(k); m != members[3] {
			stable = k
			break
		}
	}
	before, _ := a.Lookup(stable)
	a.Remove(members[3])
	a.Add(members[3])
	after, _ := a.Lookup(stable)
	if before != after {
		t.Fatalf("eject/readmit of an unrelated member moved key %q: %q -> %q", stable, before, after)
	}
}

// TestRingBoundedMovementOnEject: removing one of N members may move
// only the keys that member owned. The issue's bound is <= 2/N of the
// keyspace; with 64 vnodes the real share sits near 1/N.
func TestRingBoundedMovementOnEject(t *testing.T) {
	members := ringMembers(10)
	keys := ringKeys(10000)
	r := NewRing()
	for _, m := range members {
		r.Add(m)
	}
	before := make(map[string]string, len(keys))
	for _, k := range keys {
		before[k], _ = r.Lookup(k)
	}
	victim := members[4]
	r.Remove(victim)
	moved := 0
	for _, k := range keys {
		after, ok := r.Lookup(k)
		if !ok {
			t.Fatal("ring empty after removing one of ten members")
		}
		if after == victim {
			t.Fatalf("key %q still routed to the removed member", k)
		}
		if after != before[k] {
			if before[k] != victim {
				t.Fatalf("key %q moved (%q -> %q) though its owner was not removed",
					k, before[k], after)
			}
			moved++
		}
	}
	bound := 2 * len(keys) / len(members)
	if moved > bound {
		t.Fatalf("removing 1 of %d members moved %d/%d keys, bound %d",
			len(members), moved, len(keys), bound)
	}
	if moved == 0 {
		t.Fatal("removing a member moved no keys at all; the victim owned nothing?")
	}
}

// TestRingLookupN: the fail-over list is distinct, starts with the
// primary, and never exceeds the member count.
func TestRingLookupN(t *testing.T) {
	r := NewRing()
	for _, m := range ringMembers(3) {
		r.Add(m)
	}
	for _, k := range ringKeys(200) {
		primary, _ := r.Lookup(k)
		got := r.LookupN(k, 5)
		if len(got) != 3 {
			t.Fatalf("LookupN(%q, 5) over 3 members returned %d entries", k, len(got))
		}
		if got[0] != primary {
			t.Fatalf("LookupN(%q)[0] = %q, Lookup = %q", k, got[0], primary)
		}
		seen := map[string]bool{}
		for _, m := range got {
			if seen[m] {
				t.Fatalf("LookupN(%q) repeated member %q", k, m)
			}
			seen[m] = true
		}
	}
	if got := NewRing().LookupN("x", 2); got != nil {
		t.Fatalf("LookupN on an empty ring = %v, want nil", got)
	}
}

// TestRingStressRouteEjectReadmit hammers concurrent lookups against
// eject/readmit churn under -race. Routing must never return a member
// outside the configured set or fail while at least one member is
// guaranteed present.
func TestRingStressRouteEjectReadmit(t *testing.T) {
	members := ringMembers(5)
	valid := map[string]bool{}
	for _, m := range members {
		valid[m] = true
	}
	r := NewRing()
	for _, m := range members {
		r.Add(m)
	}
	keys := ringKeys(64)
	var lookups, churners sync.WaitGroup
	stop := make(chan struct{})
	// Churners eject and readmit members[1..4]; members[0] stays put so
	// lookups always have somewhere to land.
	for c := 1; c < len(members); c++ {
		churners.Add(1)
		go func(m string) {
			defer churners.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Remove(m)
				r.Add(m)
			}
		}(members[c])
	}
	for g := 0; g < 4; g++ {
		lookups.Add(1)
		go func(seed int64) {
			defer lookups.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				k := keys[rng.Intn(len(keys))]
				m, ok := r.Lookup(k)
				if !ok {
					t.Error("Lookup failed with a permanent member present")
					return
				}
				if !valid[m] {
					t.Errorf("Lookup returned unknown member %q", m)
					return
				}
				for _, fm := range r.LookupN(k, 2) {
					if !valid[fm] {
						t.Errorf("LookupN returned unknown member %q", fm)
						return
					}
				}
				if n := r.Size(); n < 1 || n > len(members) {
					t.Errorf("Size = %d outside [1,%d]", n, len(members))
					return
				}
			}
		}(int64(g))
	}
	lookups.Wait()
	close(stop)
	churners.Wait()
}
