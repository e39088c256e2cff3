package serve

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"soifft"
	"soifft/internal/fft"
)

// lru is a concurrency-safe, single-flight LRU build cache: Get either
// returns the cached value (refreshing recency) or runs build exactly once
// per key while concurrent demanders of the same key wait on the flight.
// Build errors are not cached — the entry is removed so a later Get retries.
type lru[K comparable, V any] struct {
	build func(K) (V, error)

	mu        sync.Mutex
	capacity  int
	ll        *list.List // of *lruEntry[K, V], front = most recent
	items     map[K]*list.Element
	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
}

type lruEntry[K comparable, V any] struct {
	key   K
	val   V
	err   error
	ready chan struct{} // closed once val/err are set
}

func newLRU[K comparable, V any](capacity int, build func(K) (V, error)) *lru[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &lru[K, V]{
		build:    build,
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[K]*list.Element),
	}
}

// Get returns the value for key, building it (once, even under concurrent
// demand) on a miss.
func (c *lru[K, V]) Get(key K) (V, error) {
	c.mu.Lock()
	if e, ok := c.items[key]; ok {
		c.ll.MoveToFront(e)
		ent := e.Value.(*lruEntry[K, V])
		c.mu.Unlock()
		c.hits.Add(1)
		<-ent.ready
		return ent.val, ent.err
	}
	ent := &lruEntry[K, V]{key: key, ready: make(chan struct{})}
	e := c.ll.PushFront(ent)
	c.items[key] = e
	if c.ll.Len() > c.capacity {
		// Evict the least recent entry (never the one just inserted; the
		// capacity floor of 1 guarantees back != e here). An in-flight
		// victim still completes its build — its waiters get the value, it
		// just isn't retained.
		victim := c.ll.Back()
		c.ll.Remove(victim)
		delete(c.items, victim.Value.(*lruEntry[K, V]).key)
		c.evictions.Add(1)
	}
	c.mu.Unlock()

	c.misses.Add(1)
	ent.val, ent.err = c.build(key)
	if ent.err != nil {
		c.mu.Lock()
		if cur, ok := c.items[key]; ok && cur == e {
			c.ll.Remove(e)
			delete(c.items, key)
		}
		c.mu.Unlock()
	}
	close(ent.ready)
	return ent.val, ent.err
}

// Len reports the number of cached entries (including in-flight builds).
func (c *lru[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// planKey identifies one SOI plan: the transform length plus the canonical
// config (soifft.Config.Canonical makes structurally-equal configs compare
// equal, so it is the cache identity the root API promises).
type planKey struct {
	n   int
	cfg soifft.Config
}

// CacheStats is a point-in-time snapshot of PlanCache counters.
type CacheStats struct {
	Hits        int64
	Misses      int64
	Evictions   int64
	Designs     int64 // full window-design runs (the expensive path)
	WisdomLoads int64 // plans rebuilt from persisted wisdom
	WisdomFails int64 // wisdom files that failed to load or save
	Entries     int
}

// PlanCache is the concurrency-safe, single-flight LRU of SOI plans keyed
// by (N, Config). On a miss it first tries the wisdom directory (gob files
// written by soifft.SaveWisdom); only if no usable wisdom exists does it run
// the full window design, and then persists the fresh wisdom for the next
// process.
type PlanCache struct {
	core        *lru[planKey, *soifft.Plan]
	dir         string // "" disables persistence
	designs     atomic.Int64
	wisdomLoads atomic.Int64
	wisdomFails atomic.Int64
}

// NewPlanCache creates a plan cache holding up to capacity plans, persisting
// wisdom under wisdomDir ("" disables persistence).
func NewPlanCache(capacity int, wisdomDir string) *PlanCache {
	c := &PlanCache{dir: wisdomDir}
	c.core = newLRU(capacity, c.buildPlan)
	return c
}

// Get returns the plan for (n, cfg), designing or wisdom-loading it on a
// miss. Concurrent demanders of one key share a single design.
func (c *PlanCache) Get(n int, cfg soifft.Config) (*soifft.Plan, error) {
	return c.core.Get(planKey{n: n, cfg: cfg.Canonical()})
}

// Stats returns a snapshot of the cache counters.
func (c *PlanCache) Stats() CacheStats {
	return CacheStats{
		Hits:        c.core.hits.Load(),
		Misses:      c.core.misses.Load(),
		Evictions:   c.core.evictions.Load(),
		Designs:     c.designs.Load(),
		WisdomLoads: c.wisdomLoads.Load(),
		WisdomFails: c.wisdomFails.Load(),
		Entries:     c.core.Len(),
	}
}

// wisdomPath names a key's wisdom file by its structural identity only —
// execution knobs (Workers, Optimizations) don't affect the window design.
func (c *PlanCache) wisdomPath(key planKey) string {
	return filepath.Join(c.dir, fmt.Sprintf("n%d-s%d-mu%d-%d-b%d.wisdom",
		key.n, key.cfg.Segments, key.cfg.OversampleNum, key.cfg.OversampleDen, key.cfg.ConvWidth))
}

func (c *PlanCache) buildPlan(key planKey) (*soifft.Plan, error) {
	if c.dir != "" {
		if p, ok := c.loadWisdom(key); ok {
			c.wisdomLoads.Add(1)
			return p, nil
		}
	}
	c.designs.Add(1)
	p, err := soifft.NewPlan(key.n, key.cfg)
	if err != nil {
		return nil, err
	}
	if c.dir != "" {
		if err := c.saveWisdom(key, p); err != nil {
			c.wisdomFails.Add(1)
		}
	}
	return p, nil
}

func (c *PlanCache) loadWisdom(key planKey) (*soifft.Plan, bool) {
	f, err := os.Open(c.wisdomPath(key))
	if err != nil {
		return nil, false // no wisdom yet — the common cold-start case
	}
	defer f.Close()
	p, err := soifft.NewPlanFromWisdom(f, key.cfg)
	if err != nil {
		// Corrupt or stale wisdom: fall back to a fresh design.
		c.wisdomFails.Add(1)
		return nil, false
	}
	return p, true
}

// saveWisdom persists via temp-file + rename so concurrent processes sharing
// a wisdom directory never observe a torn file.
func (c *PlanCache) saveWisdom(key planKey, p *soifft.Plan) error {
	tmp, err := os.CreateTemp(c.dir, ".wisdom-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := p.SaveWisdom(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), c.wisdomPath(key))
}

// laneKey identifies one lane-interleaved batch kernel instance.
type laneKey struct {
	n     int
	lanes int
}

// newLaneCache caches fft.LaneBatch kernels keyed by (n, lanes). Under a
// steady offered load the executed batch width stabilizes, so the working
// set is a handful of entries per hot size.
func newLaneCache(capacity int) *lru[laneKey, *fft.LaneBatch] {
	return newLRU(capacity, func(k laneKey) (*fft.LaneBatch, error) {
		return fft.NewLaneBatch(k.n, k.lanes)
	})
}

// newExactCache caches scalar fft.Plan instances keyed by length — the
// fallback for rough (Bluestein) sizes and single-transform batches.
func newExactCache(capacity int) *lru[int, *fft.Plan] {
	return newLRU(capacity, fft.NewPlan)
}

// bufPool pools []complex128 scratch by exact length, so the per-request
// src/dst buffers and the per-batch gather buffer don't churn the GC at
// serving rates.
type bufPool struct {
	mu    sync.Mutex
	pools map[int]*sync.Pool
}

func (b *bufPool) pool(n int) *sync.Pool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.pools == nil {
		b.pools = make(map[int]*sync.Pool)
	}
	p, ok := b.pools[n]
	if !ok {
		p = &sync.Pool{New: func() any {
			s := make([]complex128, n)
			return &s
		}}
		b.pools[n] = p
	}
	return p
}

func (b *bufPool) get(n int) []complex128 {
	return *(b.pool(n).Get().(*[]complex128))
}

func (b *bufPool) put(x []complex128) {
	if x == nil {
		return
	}
	b.pool(len(x)).Put(&x)
}
