package service

import (
	"errors"
	"sync"
	"testing"
)

func TestInstanceCacheLRU(t *testing.T) {
	c := newInstanceCache(2)

	a1, err := c.get("u_c_hihi.0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.get("u_c_lolo.0"); err != nil {
		t.Fatal(err)
	}
	// Hit: same pointer back, no regeneration.
	a2, err := c.get("u_c_hihi.0")
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("cache hit returned a different instance pointer")
	}

	// Third distinct name evicts the least recently used (u_c_lolo.0).
	if _, err := c.get("u_i_hihi.0"); err != nil {
		t.Fatal(err)
	}
	hits, misses, _, entries := c.counters()
	if hits != 1 || misses != 3 || entries != 2 {
		t.Errorf("counters = %d hits, %d misses, %d entries; want 1/3/2", hits, misses, entries)
	}
	// u_c_lolo.0 was evicted: fetching it again is a miss.
	if _, err := c.get("u_c_lolo.0"); err != nil {
		t.Fatal(err)
	}
	if _, misses, _, _ := c.counters(); misses != 4 {
		t.Errorf("misses after refetch = %d, want 4", misses)
	}

	// Unknown names propagate the generator's error and stay uncached.
	if _, err := c.get("bogus"); err == nil {
		t.Error("cache accepted an invalid instance name")
	}
}

// TestInstanceCacheFailedJoinAccounting pins the accounting of
// single-flight joins: a waiter that joins a pending generation counts
// as a join only if the generation succeeds. A failed join is neither
// a join nor a hit (no instance was served) nor a second miss (the
// initiating caller already counted the flight), so an error storm on
// one bad name cannot inflate any counter.
func TestInstanceCacheFailedJoinAccounting(t *testing.T) {
	// A sized name whose dimensions fail validation: the initiating
	// caller's generation errors, counting exactly one miss.
	const bad = "u_c_hihi.0@99999999x99999999"
	c := newInstanceCache(2)
	if _, err := c.get(bad); err == nil {
		t.Fatal("oversized instance name generated successfully")
	}
	if hits, misses, joins, _ := c.counters(); hits != 0 || misses != 1 || joins != 0 {
		t.Fatalf("after failed generation: %d hits, %d misses, %d joins; want 0/1/0", hits, misses, joins)
	}

	// A waiter joining a pending flight that fails: the pending entry is
	// installed by hand so the join is deterministic (no race against a
	// fast generator). The waiter must report the error and leave both
	// counters untouched.
	// The entry stays installed until get returns on this goroutine, so
	// the join is certain; the helper fails the flight (p.err is
	// visible to the waiter via the channel close, mirroring the real
	// generation path).
	p := &pendingGen{done: make(chan struct{})}
	c.mu.Lock()
	c.pending[bad] = p
	c.mu.Unlock()
	go func() {
		p.err = errGenerationFailed
		close(p.done)
	}()
	if _, err := c.get(bad); err != errGenerationFailed {
		t.Fatalf("joined waiter error = %v, want %v", err, errGenerationFailed)
	}
	c.mu.Lock()
	delete(c.pending, bad)
	c.mu.Unlock()
	if hits, misses, joins, _ := c.counters(); hits != 0 || misses != 1 || joins != 0 {
		t.Fatalf("after failed join: %d hits, %d misses, %d joins; want 0/1/0 (failed joins count as nothing)", hits, misses, joins)
	}

	// A plain entry hit (second get of a cached name) is a hit, not a
	// join.
	if _, err := c.get("u_c_hihi.0"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.get("u_c_hihi.0"); err != nil {
		t.Fatal(err)
	}
	if hits, misses, joins, _ := c.counters(); hits != 1 || misses != 2 || joins != 0 {
		t.Fatalf("after entry hit: %d hits, %d misses, %d joins; want 1/2/0", hits, misses, joins)
	}
}

// TestInstanceCacheSuccessfulJoinCountsAsJoin pins the hit-vs-join
// distinction: a waiter served by riding another request's in-flight
// generation increments joins, not hits. The pending entry is
// installed by hand and stays installed until the waiter returns, so
// the join is deterministic: the flight may finish before or after the
// waiter arrives, but the waiter always finds it.
func TestInstanceCacheSuccessfulJoinCountsAsJoin(t *testing.T) {
	const name = "u_c_hihi.0"
	c := newInstanceCache(2)

	// Generate the real instance up front (through a second cache so
	// counters on c stay clean), then hand-install a pending flight
	// that resolves to it.
	inst, err := newInstanceCache(2).get(name)
	if err != nil {
		t.Fatal(err)
	}
	p := &pendingGen{done: make(chan struct{})}
	c.mu.Lock()
	c.pending[name] = p
	c.mu.Unlock()
	go func() {
		p.inst = inst
		close(p.done)
	}()

	got, err := c.get(name)
	if err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	delete(c.pending, name)
	c.mu.Unlock()
	if got != inst {
		t.Error("join returned a different instance pointer")
	}
	if hits, misses, joins, _ := c.counters(); hits != 0 || misses != 0 || joins != 1 {
		t.Fatalf("after successful join: %d hits, %d misses, %d joins; want 0/0/1", hits, misses, joins)
	}
}

func TestInstanceCacheConcurrent(t *testing.T) {
	c := newInstanceCache(4)
	var wg sync.WaitGroup
	ptrs := make([]interface{}, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			inst, err := c.get("u_s_hilo.0")
			if err != nil {
				t.Error(err)
				return
			}
			ptrs[i] = inst
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(ptrs); i++ {
		if ptrs[i] != ptrs[0] {
			t.Fatal("concurrent gets for one name returned different instances")
		}
	}
}

// errGenerationFailed is the sentinel used by the deterministic
// failed-join test above.
var errGenerationFailed = errors.New("generation failed")
