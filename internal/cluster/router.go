package cluster

import (
	"math/rand"
	"sync"
)

// router picks replicas by power-of-two-choices on the in-flight gauge,
// from a seeded RNG.
type router struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newRouter(seed uint64) *router {
	return &router{rng: rand.New(rand.NewSource(int64(seed)))}
}

// pick returns the next replica to try, skipping unhealthy members and
// everything in exclude (replicas this request already tried). Among the
// eligible it samples two uniformly and the less loaded wins: within a
// constant factor of ideal least-loaded routing without the herd
// behavior of everyone chasing the same minimum. A hung replica's
// in-flight count only grows, so P2C steers away from it before any
// probe notices. Returns nil when no candidate remains — the caller
// answers 503.
func (rt *router) pick(s *Set, exclude map[*Replica]bool) *Replica {
	var cand []*Replica
	for _, rep := range s.replicas {
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
