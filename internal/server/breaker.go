package server

import (
	"sync"
	"time"

	"extra/internal/batch"
	"extra/internal/fault"
	"extra/internal/obs"
)

// breaker is the per-(machine, instruction) circuit breaker. Consecutive
// panic/budget faults trip it open; while open, requests for the pair are
// served the cached failure instead of burning another worker on an
// analysis that keeps blowing its budget. After a cooldown one probe
// request is let through (half-open): a genuine success closes the breaker;
// another fault re-opens it and restarts the cooldown; any other outcome
// (the caller canceled, the request timed out) says nothing about the pair,
// so it merely re-arms the next probe without touching the breaker's state.
type breaker struct {
	mu       sync.Mutex
	fails    int
	open     bool
	probing  bool
	openedAt time.Time
	cached   batch.Result
	lastErr  string
}

// faultOutcome reports whether an outcome label counts toward tripping the
// breaker. Only engine faults do — a caller-imposed timeout or a canceled
// request says nothing about the pair itself.
func faultOutcome(outcome string) bool {
	return outcome == "panic" || outcome == "budget"
}

// admit decides the fast path. It returns (cachedFailure, true) when the
// breaker is open and not due for a probe; otherwise the caller must run
// the analysis and feed the outcome back through record.
func (b *breaker) admit(now time.Time, cooldown time.Duration) (batch.Result, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return batch.Result{}, false
	}
	if !b.probing && now.Sub(b.openedAt) >= cooldown {
		// Half-open: this one request probes the pair; concurrent requests
		// keep getting the cached failure until the probe reports back.
		b.probing = true
		return batch.Result{}, false
	}
	res := b.cached
	ce := &fault.CircuitError{Pair: res.Machine + "/" + res.Instruction, Fails: b.fails, Last: b.lastErr}
	res.Outcome = fault.Classify(ce)
	res.Error = ce.Error()
	res.DurationMS = 0
	return res, true
}

// record feeds an executed result back. It returns true when this result
// tripped the breaker open (for the trip metric).
func (b *breaker) record(res batch.Result, threshold int, now time.Time) (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	if res.Outcome == "ok" {
		// Only a demonstrated success closes: the pair provably works again.
		b.fails = 0
		b.open = false
		return false
	}
	if !faultOutcome(res.Outcome) {
		// A canceled request or a caller-imposed timeout proves nothing
		// either way (see faultOutcome): leave the fail streak and the open
		// state alone. probing is already cleared, so an open breaker's next
		// request past the cooldown fires a fresh probe.
		return false
	}
	b.fails++
	b.lastErr = res.Error
	b.cached = res
	if b.open {
		// A failed probe: stay open, restart the cooldown.
		b.openedAt = now
		return false
	}
	if b.fails >= threshold {
		b.open = true
		b.openedAt = now
		return true
	}
	return false
}

// remaining reports how much of the open cooldown is left before the next
// half-open probe: what an honest Retry-After should say. Zero when closed
// or already due for a probe.
func (b *breaker) remaining(now time.Time, cooldown time.Duration) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.open {
		return 0
	}
	rem := cooldown - now.Sub(b.openedAt)
	if rem < 0 {
		return 0
	}
	return rem
}

// idle reports whether the breaker is safe to forget: closed, with no probe
// outstanding. Evicting an idle breaker only loses a partial fail streak.
func (b *breaker) idle() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.open && !b.probing
}

// maxBreakers bounds the breaker table: far above any real catalog,
// far below a memory problem.
const maxBreakers = 1024

// breakerSet is the server's keyed breaker table, bounded so arbitrary
// request keys cannot grow it without limit: past max entries the
// least-recently-used closed, idle breaker is evicted first; if every
// breaker is open (pathological), the least-recently-used one goes anyway —
// a bounded table outranks remembering one more failure streak. Evictions
// are counted under server.breaker_evict{idle,open}.
type breakerSet struct {
	mu      sync.Mutex
	max     int           // capacity; 0 means maxBreakers
	metrics *obs.Registry // eviction counters; nil-safe
	m       map[string]*setEntry
	head    *setEntry // most recently used
	tail    *setEntry // least recently used
}

// setEntry is one breaker on the set's intrusive LRU list.
type setEntry struct {
	key        string
	b          *breaker
	prev, next *setEntry
}

func (s *breakerSet) cap() int {
	if s.max > 0 {
		return s.max
	}
	return maxBreakers
}

// get returns the key's breaker, creating (and, past capacity, evicting) as
// needed. Every lookup refreshes the breaker's LRU position.
func (s *breakerSet) get(key string) *breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = map[string]*setEntry{}
	}
	if e := s.m[key]; e != nil {
		s.moveToFront(e)
		return e.b
	}
	e := &setEntry{key: key, b: &breaker{}}
	s.m[key] = e
	s.pushFront(e)
	for len(s.m) > s.cap() {
		s.evict()
	}
	return e.b
}

// evict removes one breaker: the least-recently-used idle one, or — when
// none is idle — the least-recently-used outright. The head is never a
// victim: it is the entry whose insertion triggered this eviction, and
// discarding newcomers would pin open breakers in the table forever. The
// set mutex must be held; breaker mutexes are taken briefly underneath it
// (never the other way around, so the lock order is acyclic).
func (s *breakerSet) evict() {
	var victim *setEntry
	for e := s.tail; e != nil && e != s.head; e = e.prev {
		if e.b.idle() {
			victim = e
			break
		}
	}
	label := "idle"
	if victim == nil {
		victim = s.tail
		label = "open"
	}
	if victim == nil {
		return
	}
	s.remove(victim)
	delete(s.m, victim.key)
	s.metrics.Inc("server.breaker_evict", label)
}

// peek returns the key's breaker, or nil, without creating one or
// refreshing its LRU position — a read-side lookup must not keep a breaker
// alive.
func (s *breakerSet) peek(key string) *breaker {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e := s.m[key]; e != nil {
		return e.b
	}
	return nil
}

// len reports the number of tracked breakers.
func (s *breakerSet) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

// Intrusive LRU plumbing; the set mutex guards all of it.

func (s *breakerSet) pushFront(e *setEntry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *breakerSet) remove(e *setEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *breakerSet) moveToFront(e *setEntry) {
	if s.head == e {
		return
	}
	s.remove(e)
	s.pushFront(e)
}
