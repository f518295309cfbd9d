package rescache

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
)

func key(fp uint64, s string) []byte { return AppendKey(nil, fp, []byte(s)) }

func regsOf(score int) []core.Region {
	return []core.Region{{Score: score, Secondary: -1}}
}

// TestMissFulfillHit is the cache's one cycle: a miss, a Put of the
// aligned regions, then a hit that returns them.
func TestMissFulfillHit(t *testing.T) {
	c := New(Config{Capacity: 1 << 20, Shards: 4})
	k := key(1, "ACGT")

	if regs, ok := c.Get(k); ok || regs != nil {
		t.Fatalf("first Get: ok %v, regs %v", ok, regs)
	}
	c.Put(k, regsOf(42))

	got, ok := c.Get(k)
	if !ok {
		t.Fatal("second Get missed")
	}
	if len(got) != 1 || got[0].Score != 42 {
		t.Fatalf("hit returned %+v", got)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 || s.Bytes <= 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestEmptyRegionsAreCacheable(t *testing.T) {
	// An unmapped read legitimately has zero regions; the cache must treat
	// that as a valid result, not a miss.
	c := New(Config{Capacity: 1 << 20})
	k := key(1, "NNNN")
	c.Put(k, nil)
	regs, ok := c.Get(k)
	if !ok || regs != nil {
		t.Fatalf("ok %v regs %v, want a hit with nil regs", ok, regs)
	}
}

func TestFingerprintSeparatesKeys(t *testing.T) {
	c := New(Config{Capacity: 1 << 20})
	c.Put(key(1, "ACGT"), regsOf(1))
	if _, ok := c.Get(key(2, "ACGT")); ok {
		t.Fatal("different fingerprint hit the other fingerprint's entry")
	}
}

func TestPutResidentKeyKeepsOneEntry(t *testing.T) {
	c := New(Config{Capacity: 1 << 20, Shards: 1})
	k := key(1, "ACGT")
	c.Put(k, regsOf(1))
	once := c.Stats().Bytes
	c.Put(k, regsOf(2))
	s := c.Stats()
	if s.Entries != 1 || s.Bytes != once {
		t.Fatalf("after a second Put: entries %d bytes %d, want 1 and %d", s.Entries, s.Bytes, once)
	}
	if regs, _ := c.Get(k); regs[0].Score != 2 {
		t.Fatalf("Get returned %v, want the latest Put", regs)
	}
}

func TestLRUEvictionUnderPressure(t *testing.T) {
	// One shard so eviction order is globally observable; capacity sized
	// for only a handful of entries.
	c := New(Config{Capacity: 1000, Shards: 1})
	for i := 0; i < 50; i++ {
		c.Put(key(1, fmt.Sprintf("seq-%04d", i)), regsOf(i))
	}
	s := c.Stats()
	if s.Evictions == 0 {
		t.Fatal("no evictions despite 50 entries into a 1000-byte cache")
	}
	if s.Bytes > s.Capacity {
		t.Fatalf("resident %d bytes exceeds capacity %d", s.Bytes, s.Capacity)
	}
	if s.Entries != 50-s.Evictions {
		t.Fatalf("entries %d != puts 50 - evictions %d", s.Entries, s.Evictions)
	}
	// The most recent insert survives; the oldest is gone.
	if _, ok := c.Get(key(1, "seq-0049")); !ok {
		t.Fatal("newest entry evicted")
	}
	if _, ok := c.Get(key(1, "seq-0000")); ok {
		t.Fatal("oldest entry survived")
	}
}

func TestLRUTouchOnHit(t *testing.T) {
	// Three entries fit; touching the oldest must make the middle one the
	// eviction victim.
	c := New(Config{Capacity: 3 * (8 + 5 + regionBytes + entryOverhead), Shards: 1})
	for i := 0; i < 3; i++ {
		c.Put(key(1, fmt.Sprintf("key-%d", i)), regsOf(i))
	}
	if _, ok := c.Get(key(1, "key-0")); !ok {
		t.Fatal("key-0 missing before pressure")
	}
	c.Put(key(1, "key-3"), regsOf(3))
	if _, ok := c.Get(key(1, "key-0")); !ok {
		t.Fatal("recently touched key-0 was evicted")
	}
	if _, ok := c.Get(key(1, "key-1")); ok {
		t.Fatal("LRU victim key-1 still resident")
	}
}

// TestConcurrentGetPut hammers one hot key plus a spread of cold keys from
// many goroutines under -race, each goroutine Putting what it missed:
// every hit must return the regions Put for its key, and hits + misses
// must equal the Gets issued.
func TestConcurrentGetPut(t *testing.T) {
	c := New(Config{Capacity: 1 << 18, Shards: 8})
	const goroutines = 16
	const perG = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				// Every 4th Get targets the shared hot key.
				s := "hot"
				if i%4 != 0 {
					s = fmt.Sprintf("cold-%d-%d", g, i%16)
				}
				k := key(1, s)
				if regs, ok := c.Get(k); !ok {
					c.Put(k, regsOf(len(s)))
				} else if len(regs) != 1 || regs[0].Score != len(s) {
					t.Errorf("hit for %q got %v", s, regs)
				}
			}
		}()
	}
	wg.Wait()
	s := c.Stats()
	if total := int64(goroutines * perG); s.Hits+s.Misses != total {
		t.Fatalf("hits %d + misses %d != %d", s.Hits, s.Misses, total)
	}
	if s.Hits == 0 {
		t.Fatal("repeated keys never hit")
	}
}

func TestShardCountRoundsToPowerOfTwo(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, DefaultShards}, {1, 1}, {3, 4}, {8, 8}, {9, 16}} {
		c := New(Config{Capacity: 1 << 20, Shards: tc.in})
		if len(c.shards) != tc.want {
			t.Errorf("Shards %d -> %d shards, want %d", tc.in, len(c.shards), tc.want)
		}
	}
}

// FuzzCache decodes the input into Get and Put operations over a few keys
// on a tiny two-shard cache and checks the accounting after every one:
// Stats' Bytes and Entries equal the resident entries' cost and count, no
// shard is over its budget, a Get right after a Put returns those regions
// whenever the entry fits a shard at all, and hits + misses equals the
// Gets issued.
func FuzzCache(f *testing.F) {
	f.Add([]byte{0x00, 0x81, 0x01, 0x80})
	f.Add([]byte{0x10, 0x23, 0x31, 0x47, 0x05, 0x92, 0xa3, 0x13})
	f.Add([]byte("\x00\x11\x22\x33\x44\x55\x66\x77\x80\x91\xa2\xb3"))
	f.Fuzz(func(t *testing.T, ops []byte) {
		c := New(Config{Capacity: 900, Shards: 2})
		var gets int64
		for n, op := range ops {
			k := key(1, fmt.Sprintf("k%d", op&7))
			if op&0x80 == 0 {
				gets++
				c.Get(k)
			} else {
				regs := make([]core.Region, op>>3&0x7)
				for i := range regs {
					regs[i].Score = n
				}
				c.Put(k, regs)
				cost := int64(len(k)) + regionBytes*int64(len(regs)) + entryOverhead
				got, ok := c.Get(k)
				gets++
				if fits := cost <= c.shardOf(k).cap; ok != fits {
					t.Fatalf("op %d: Get after Put of %d bytes: ok %v, want %v", n, cost, ok, fits)
				}
				if ok && (len(got) != len(regs) || len(got) > 0 && got[0].Score != n) {
					t.Fatalf("op %d: Get after Put returned %v, want %v", n, got, regs)
				}
			}
			var bytes, entries int64
			for i := range c.shards {
				sh := &c.shards[i]
				var shBytes int64
				listed := 0
				for e := sh.head; e != nil; e = e.next {
					shBytes += e.cost
					listed++
				}
				if shBytes != sh.bytes || sh.bytes > sh.cap || listed != len(sh.m) {
					t.Fatalf("op %d: shard %d lists %d entries of %d bytes, maps %d, counts %d bytes, budget %d",
						n, i, listed, shBytes, len(sh.m), sh.bytes, sh.cap)
				}
				bytes += shBytes
				entries += int64(listed)
			}
			s := c.Stats()
			if s.Bytes != bytes || s.Entries != entries {
				t.Fatalf("op %d: stats %d bytes %d entries, resident %d bytes %d entries", n, s.Bytes, s.Entries, bytes, entries)
			}
			if s.Hits+s.Misses != gets {
				t.Fatalf("op %d: hits %d + misses %d != %d gets", n, s.Hits, s.Misses, gets)
			}
		}
	})
}
