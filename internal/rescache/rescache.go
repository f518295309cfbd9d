// Package rescache is the server's sharded alignment-result cache for
// duplicate-heavy traffic. Real sequencing runs are full of PCR and optical
// duplicates — the same read sequence arriving many times — and a read's
// alignment regions depend only on its encoded sequence, the resident
// index, and the alignment options. The cache therefore keys on
// (option fingerprint, encoded sequence) and stores the index-relative
// []core.Region produced by the pipeline, NOT rendered SAM text: on a hit
// the caller re-renders the record with the hitting read's own name and
// qualities, so cached responses stay byte-identical to the uncached
// pipeline. Paired-end reads must not be cached (insert-size inference is
// cross-read state); that policy lives in the caller.
//
// The cache is a byte-bounded LRU with two operations, Get and Put. It
// does not coordinate callers: two requests that miss on the same
// sequence at the same time both align it and both Put the (identical)
// regions, which costs one redundant alignment and nothing else.
//
// # Concurrency contract
//
// Every method is safe for concurrent use from any goroutine. The keyspace
// is split across a power-of-two number of shards (each with its own lock
// and its own LRU list and byte budget), so concurrent requests contend
// only when their sequences hash to the same shard.
package rescache

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"sync"
	"sync/atomic"

	"repro/internal/core"
)

// Defaults used when Config fields are zero.
const (
	// DefaultCapacity bounds the resident regions at 256 MiB.
	DefaultCapacity = 256 << 20
	// DefaultShards is the lock-striping width (power of two).
	DefaultShards = 64
)

// regionBytes is the in-memory cost of one core.Region, resolved once so
// the accounting tracks the struct as it evolves.
var regionBytes = int64(reflect.TypeOf(core.Region{}).Size())

// entryOverhead approximates the fixed per-entry bookkeeping cost (map
// slot, entry struct, list links) charged against the byte capacity.
const entryOverhead = 96

// Config sizes a Cache.
type Config struct {
	// Capacity is the total byte budget across all shards (each shard gets
	// an equal slice). <= 0 means DefaultCapacity.
	Capacity int64
	// Shards is the shard count, rounded up to a power of two. <= 0 means
	// DefaultShards.
	Shards int
}

// Cache is the sharded LRU. Create with New.
type Cache struct {
	shards []shard
	mask   uint64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	bytes     atomic.Int64 // resident entry cost
	entries   atomic.Int64 // resident entries
	capacity  int64
}

// shard is one lock stripe: a map plus an LRU list over its entries.
type shard struct {
	mu         sync.Mutex
	m          map[string]*entry
	head, tail *entry // LRU: head = most recently used
	bytes      int64
	cap        int64
}

type entry struct {
	key        string
	regs       []core.Region
	cost       int64
	prev, next *entry
}

// New builds a cache, resolving zero Config fields to defaults.
func New(cfg Config) *Cache {
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards
	}
	// Round up to a power of two so shard selection is a mask.
	shards := 1
	for shards < n {
		shards <<= 1
	}
	c := &Cache{shards: make([]shard, shards), mask: uint64(shards - 1), capacity: cfg.Capacity}
	per := cfg.Capacity / int64(shards)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].m = make(map[string]*entry)
		c.shards[i].cap = per
	}
	return c
}

// AppendKey appends the cache key for (options fingerprint, encoded
// sequence) to dst and returns the extended slice. Keying on the numeric
// encoding rather than the ASCII sequence means case variants ("acgt" vs
// "ACGT") and distinct ambiguity letters that encode identically share one
// entry — they align identically, and the caller re-renders SAM from the
// original read anyway.
func AppendKey(dst []byte, fingerprint uint64, seqCode []byte) []byte {
	var fp [8]byte
	binary.LittleEndian.PutUint64(fp[:], fingerprint)
	dst = append(dst, fp[:]...)
	return append(dst, seqCode...)
}

func (c *Cache) shardOf(key []byte) *shard {
	h := fnv.New64a()
	h.Write(key)
	return &c.shards[h.Sum64()&c.mask]
}

// Get returns the resident regions for key and marks the entry most
// recently used, counting a hit; otherwise it counts a miss. The returned
// regions are shared and MUST be treated as immutable. key may be a reused
// buffer.
func (c *Cache) Get(key []byte) ([]core.Region, bool) {
	sh := c.shardOf(key)
	sh.mu.Lock()
	e, ok := sh.m[string(key)]
	if !ok {
		sh.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	sh.moveToFront(e)
	regs := e.regs
	sh.mu.Unlock()
	c.hits.Add(1)
	return regs, true
}

// Put makes regs the resident result for key, evicting least-recently-used
// entries if the shard goes over budget. regs is retained and shared: the
// caller must not modify it afterwards. A Put for a key that is already
// resident replaces its regions and keeps one entry. key may be a reused
// buffer: the cache copies it.
func (c *Cache) Put(key []byte, regs []core.Region) {
	sh := c.shardOf(key)
	cost := int64(len(key)) + regionBytes*int64(len(regs)) + entryOverhead
	sh.mu.Lock()
	e, ok := sh.m[string(key)]
	if ok {
		sh.unlink(e)
		sh.bytes -= e.cost
		c.bytes.Add(-e.cost)
	} else {
		e = &entry{key: string(key)}
		sh.m[e.key] = e
		c.entries.Add(1)
	}
	e.regs, e.cost = regs, cost
	sh.bytes += cost
	c.bytes.Add(cost)
	sh.pushFront(e)
	evicted := sh.evictOverLocked(c)
	sh.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// evictOverLocked drops LRU-tail entries until the shard is within budget,
// returning how many were evicted. Called with sh.mu held.
func (sh *shard) evictOverLocked(c *Cache) int64 {
	var n int64
	for sh.bytes > sh.cap && sh.tail != nil {
		e := sh.tail
		sh.unlink(e)
		delete(sh.m, e.key)
		sh.bytes -= e.cost
		c.bytes.Add(-e.cost)
		c.entries.Add(-1)
		n++
	}
	return n
}

func (sh *shard) pushFront(e *entry) {
	e.prev = nil
	e.next = sh.head
	if sh.head != nil {
		sh.head.prev = e
	}
	sh.head = e
	if sh.tail == nil {
		sh.tail = e
	}
}

func (sh *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (sh *shard) moveToFront(e *entry) {
	if sh.head == e {
		return
	}
	sh.unlink(e)
	sh.pushFront(e)
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits      int64 // Gets served from a resident entry
	Misses    int64 // Gets that found nothing
	Evictions int64 // resident entries dropped to stay within capacity
	Entries   int64 // resident entries
	Bytes     int64 // resident entry cost in bytes
	Capacity  int64 // configured byte budget
}

// Stats returns a snapshot. Counters are read individually, so a snapshot
// taken under concurrent traffic is approximate but each counter is exact.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Entries:   c.entries.Load(),
		Bytes:     c.bytes.Load(),
		Capacity:  c.capacity,
	}
}
