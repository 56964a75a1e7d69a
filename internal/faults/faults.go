// Package faults is the repo's deterministic fault-injection harness:
// a small set of named injection points compiled into the REAL code
// paths of the durability and execution layers (ivstore's
// write/fsync/rename sequence, the worker pool's per-item dispatch),
// armed only by tests.
//
// Every dynamic occurrence of a point has a deterministic Address —
// the point's name, an optional discriminator key provided by the
// call site (a file's base name, a work-item index) and the
// occurrence ordinal among matching hits. A test first runs a
// pipeline in Record mode to enumerate the addresses it crosses, then
// replays the pipeline once per address with a fault armed there —
// the "kill at every injection point" discipline. Addresses are
// stable as long as the pipeline itself is deterministic (the
// durability tests run with one worker so dispatch order is, too; the
// key-addressed form is scheduling-independent and is what the
// concurrent tests use).
//
// When nothing is armed, every hook call is one atomic load
// (Enabled), so the instrumented paths cost nothing in production.
//
// The harness is process-internal by design: a "crash" is simulated
// by the injected failure (an error return, a torn half-write, a
// panic), after which the test abandons the in-memory state and
// re-opens the on-disk state from scratch — exactly what a process
// kill leaves behind, without needing a subprocess per point.
package faults

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Point names one injection site compiled into the real code.
type Point string

// The compiled-in injection points. The ivstore points cover every
// step of its atomic-write protocol (torn payload write, file fsync,
// rename, directory fsync) for shards, the manifest and aux files;
// the pool point covers per-item worker execution (panics, slowness,
// plain failures).
const (
	// ShardWrite is the payload write of a shard's temp file.
	ShardWrite Point = "ivstore.shard.write"
	// ShardSync is the fsync of a shard's temp file before rename.
	ShardSync Point = "ivstore.shard.sync"
	// ShardRename is the rename of a shard temp file into place.
	ShardRename Point = "ivstore.shard.rename"
	// ManifestWrite is the payload write of the manifest's temp file.
	ManifestWrite Point = "ivstore.manifest.write"
	// ManifestSync is the fsync of the manifest temp file.
	ManifestSync Point = "ivstore.manifest.sync"
	// ManifestRename is the rename of the manifest into place.
	ManifestRename Point = "ivstore.manifest.rename"
	// AuxWrite is the payload write of an aux file's temp file.
	AuxWrite Point = "ivstore.aux.write"
	// AuxSync is the fsync of an aux file's temp file.
	AuxSync Point = "ivstore.aux.sync"
	// AuxRename is the rename of an aux file into place.
	AuxRename Point = "ivstore.aux.rename"
	// DirSync is the store-directory fsync after a rename.
	DirSync Point = "ivstore.dir.sync"
	// PoolItem is one work item's execution on a pool worker.
	PoolItem Point = "pool.item"
)

// Kind is what an injected fault does at its point.
type Kind int

const (
	// Fail makes the operation return an injected error with no side
	// effects — an EIO-style clean failure.
	Fail Kind = iota
	// Torn makes a write-path operation persist only a prefix of its
	// bytes before failing — the on-disk shape of a crash (or a
	// short write that was never fsync'd) mid-write.
	Torn
	// Crash panics at the point — the in-process shape of a crashing
	// worker, exercised through the pool's real recovery machinery.
	Crash
	// Slow delays the point briefly, then lets it succeed — for
	// cancellation-promptness and drain tests.
	Slow
)

// String names the kind for error messages and test labels.
func (k Kind) String() string {
	switch k {
	case Fail:
		return "fail"
	case Torn:
		return "torn"
	case Crash:
		return "crash"
	case Slow:
		return "slow"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Address identifies one dynamic occurrence of a point: the Nth hit
// (0-based) whose discriminator matches Key ("" matches every key).
type Address struct {
	Point Point
	Key   string
	Nth   int
}

// String renders the address for test names.
func (a Address) String() string {
	if a.Key == "" {
		return fmt.Sprintf("%s#%d", a.Point, a.Nth)
	}
	return fmt.Sprintf("%s[%s]#%d", a.Point, a.Key, a.Nth)
}

// ErrInjected is the sentinel every injected failure wraps; tests
// distinguish injected faults from genuine ones with errors.Is.
var ErrInjected = errors.New("injected fault")

// SlowDelay is how long a Slow fault stalls its point.
const SlowDelay = 10 * time.Millisecond

// state is the armed plan or recorder. One at a time, tests only.
type state struct {
	mu     sync.Mutex
	addr   Address
	kind   Kind
	record bool
	counts map[Point]map[string]int // per point, per key occurrence counts
	hits   []Address                // record mode: every address crossed
	fired  int                      // times the armed fault actually fired
}

var (
	enabled atomic.Bool
	cur     struct {
		sync.Mutex
		s *state
	}
)

// Enabled reports whether a plan or recorder is armed. The
// instrumented code paths guard their Fire calls behind it, so the
// disarmed cost is one atomic load.
func Enabled() bool { return enabled.Load() }

// Arm installs a fault: the occurrence matching addr behaves as kind.
// It returns a disarm func that also reports how many times the fault
// fired (0 means the address was never reached). Only one plan or
// recorder may be armed at a time; Arm panics otherwise — the harness
// is for sequential tests, not concurrent suites.
func Arm(addr Address, kind Kind) (disarm func() int) {
	s := &state{addr: addr, kind: kind, counts: make(map[Point]map[string]int)}
	install(s)
	return func() int {
		uninstall(s)
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.fired
	}
}

// Record installs a recorder that never faults; the returned stop
// func disarms it and returns every address crossed, in hit order.
func Record() (stop func() []Address) {
	s := &state{record: true, counts: make(map[Point]map[string]int)}
	install(s)
	return func() []Address {
		uninstall(s)
		s.mu.Lock()
		defer s.mu.Unlock()
		return append([]Address(nil), s.hits...)
	}
}

func install(s *state) {
	cur.Lock()
	defer cur.Unlock()
	if cur.s != nil {
		panic("faults: a plan is already armed")
	}
	cur.s = s
	enabled.Store(true)
}

func uninstall(s *state) {
	cur.Lock()
	defer cur.Unlock()
	if cur.s == s {
		cur.s = nil
		enabled.Store(false)
	}
}

// Fire consults the armed plan at point p with discriminator key and
// reports the fault kind elected for this occurrence. Crash is
// handled here (the panic originates inside the instrumented
// operation, exactly where the real failure would); Slow sleeps and
// reports no fault. Call sites therefore only handle Fail and Torn.
// With nothing armed — the production state — Fire reports no fault;
// callers should guard with Enabled() to skip even the call.
func Fire(p Point, key string) (Kind, bool) {
	cur.Lock()
	s := cur.s
	cur.Unlock()
	if s == nil {
		return 0, false
	}
	s.mu.Lock()
	perKey := s.counts[p]
	if perKey == nil {
		perKey = make(map[string]int)
		s.counts[p] = perKey
	}
	nth := perKey[key]
	perKey[key]++
	if s.record {
		s.hits = append(s.hits, Address{Point: p, Key: key, Nth: nth})
		s.mu.Unlock()
		return 0, false
	}
	a := s.addr
	match := a.Point == p && (a.Key == "" || a.Key == key)
	if match {
		// Keyless addresses count occurrences across all keys; keyed
		// ones only among their own key's hits.
		if a.Key == "" {
			total := 0
			for _, n := range perKey {
				total += n
			}
			match = total-1 == a.Nth
		} else {
			match = nth == a.Nth
		}
	}
	if !match {
		s.mu.Unlock()
		return 0, false
	}
	s.fired++
	kind := s.kind
	s.mu.Unlock()
	switch kind {
	case Crash:
		panic(fmt.Sprintf("faults: injected crash at %s[%s]", p, key))
	case Slow:
		time.Sleep(SlowDelay)
		return 0, false
	}
	return kind, true
}

// Errorf builds the error an instrumented call site returns for an
// elected Fail or Torn fault, wrapping ErrInjected.
func Errorf(p Point, key string, kind Kind) error {
	return fmt.Errorf("%w: %s at %s[%s]", ErrInjected, kind, p, key)
}
