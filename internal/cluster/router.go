package cluster

import (
	"hash/fnv"
	"math/rand"
	"sort"
	"strconv"
	"sync"
)

// Routing policies. P2C balances instantaneous load; Hash keeps each
// model's traffic on a stable replica so that replica's compile cache
// stays hot for it (only one replica compiles and holds each model).
const (
	PolicyP2C  = "p2c"
	PolicyHash = "hash"
)

// vnodes is the number of virtual ring points per replica. 64 keeps the
// model→replica assignment within a few percent of uniform for small
// fleets while a membership change still remaps only the leaving
// replica's arc.
const vnodes = 64

// router picks replicas. It owns the consistent-hash ring (rebuilt on
// membership change) and the seeded RNG behind power-of-two-choices.
type router struct {
	policy string

	mu   sync.Mutex
	rng  *rand.Rand
	ring []ringEntry // sorted by point; valid for the slice it was built from
	gen  uint64      // membership generation the ring was built for
}

type ringEntry struct {
	point uint64
	rep   *Replica
}

func newRouter(policy string, seed uint64) *router {
	return &router{policy: policy, rng: rand.New(rand.NewSource(int64(seed)))}
}

// pick returns the next replica to try for model, skipping unhealthy
// members and everything in exclude (replicas this request already
// tried, or whose breaker refused admission). Returns nil when no
// candidate remains — the caller answers 503.
func (rt *router) pick(s *Set, model string, exclude map[*Replica]bool) *Replica {
	reps, gen := s.members()
	if rt.policy == PolicyHash {
		return rt.pickHash(reps, gen, model, exclude)
	}
	return rt.pickP2C(reps, exclude)
}

// pickP2C filters to healthy unexcluded members and applies
// power-of-two-choices on the in-flight gauge: two uniform picks, the
// less loaded wins. Sampling two and comparing gets within a constant
// factor of ideal least-loaded routing without the herd behavior of
// everyone chasing the same minimum.
func (rt *router) pickP2C(reps []*Replica, exclude map[*Replica]bool) *Replica {
	var cand []*Replica
	for _, rep := range reps {
		if rep.healthy.Load() && !exclude[rep] {
			cand = append(cand, rep)
		}
	}
	switch len(cand) {
	case 0:
		return nil
	case 1:
		return cand[0]
	}
	rt.mu.Lock()
	i := rt.rng.Intn(len(cand))
	j := rt.rng.Intn(len(cand) - 1)
	rt.mu.Unlock()
	if j >= i {
		j++ // uniform over pairs with i != j
	}
	a, b := cand[i], cand[j]
	if b.inflight.Load() < a.inflight.Load() {
		return b
	}
	return a
}

// pickHash walks the consistent-hash ring clockwise from the model's
// hash point and returns the first healthy, unexcluded replica. The
// walk makes failover deterministic too: when a model's home replica is
// down its traffic lands on the next arc owner, not a random member.
func (rt *router) pickHash(reps []*Replica, gen uint64, model string, exclude map[*Replica]bool) *Replica {
	rt.mu.Lock()
	if rt.gen != gen || rt.ring == nil {
		rt.ring = buildRing(reps)
		rt.gen = gen
	}
	ring := rt.ring
	rt.mu.Unlock()
	if len(ring) == 0 {
		return nil
	}
	h := hash64(model)
	start := sort.Search(len(ring), func(i int) bool { return ring[i].point >= h })
	seen := make(map[*Replica]bool, len(reps))
	for k := 0; k < len(ring) && len(seen) < len(reps); k++ {
		e := ring[(start+k)%len(ring)]
		if seen[e.rep] {
			continue
		}
		seen[e.rep] = true
		if e.rep.healthy.Load() && !exclude[e.rep] {
			return e.rep
		}
	}
	return nil
}

func buildRing(reps []*Replica) []ringEntry {
	ring := make([]ringEntry, 0, len(reps)*vnodes)
	for _, rep := range reps {
		for v := 0; v < vnodes; v++ {
			ring = append(ring, ringEntry{point: hash64(rep.URL + "#" + strconv.Itoa(v)), rep: rep})
		}
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].point < ring[j].point })
	return ring
}

// hash64 is fnv64a with a murmur3-style finalizer. Raw FNV-1a is too
// weak for ring placement: on short keys that differ in a few
// characters (replica URLs, "#v" vnode suffixes, sequential model
// names) its high-order bits barely avalanche, which clusters ring
// points badly enough that a replica can end up owning ~1% of the arc.
// The finalizer's xor-shift-multiply rounds spread single-bit input
// differences across all 64 bits.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// members returns the current membership and its generation counter,
// which the router uses to invalidate the cached hash ring.
func (s *Set) members() ([]*Replica, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.replicas, s.gen
}
