// Package nowallclock seeds violations for the nowallclock analyzer:
// Run is configured as a deterministic root, so the clock and global
// RNG reads in its callees must be flagged, while the seeded source and
// the //snapea:runtime boundary must not. The fixture config also lists
// a root Plan.Gone that no declaration here matches; an unresolved root
// is reported at the package clause.
package nowallclock // want "root fixture/nowallclock.Plan.Gone not found"

import (
	"math/rand"
	"time"
)

func Run() int {
	return step() + seeded()
}

func step() int {
	t := time.Now() // want "time.Now reached from deterministic root"
	n := rand.Int() // want "math/rand.Int reached from deterministic root"
	return t.Nanosecond() + n
}

func seeded() int {
	r := rand.New(rand.NewSource(7)) // seeded source: deterministic, allowed
	return r.Intn(10) + progress()
}

// progress is runtime-side instrumentation; the traversal stops here.
//
//snapea:runtime
func progress() int {
	return time.Now().Nanosecond()
}
