package cache

// LRU bookkeeping for bounded caches. A cost-effective DSSP hosts many
// applications on shared infrastructure (§1), so each application's view
// store is bounded; when full, the least-recently-used entry is evicted.
// Capacity 0 (the default) leaves the cache unbounded, which matches the
// paper's experiments (ten-minute runs never filled memory).
//
// The list is global across shards (recency is a property of the whole
// cache, not a stripe) and lives under its own lock, lruMu. Lock order:
// lruMu nests inside shard locks — touch, trackInsert, and unlink all run
// under the owning entry's shard lock and take lruMu within it; nothing
// ever acquires a shard lock while holding lruMu. Keeping bucket and list
// membership in one shard-lock critical section gives the invariant that
// an entry is linked if and only if it sits in its bucket, up to the one
// sanctioned exception: an eviction victim leaves the list first (under
// the storing goroutine's shard lock) and its bucket second (evict, under
// the victim's own shard lock, taken with no other lock held). Entry.inLRU
// and evict's pointer-identity check make that window converge — an entry
// is freed at most once from each domain, and the capacity bound holds at
// every quiescent point.

// lruList is an intrusive doubly linked list over cache entries, most
// recently used at the front.
type lruList struct {
	head, tail *Entry
	len        int
}

// entry list hooks live on Entry (see cache.go).

func (l *lruList) pushFront(e *Entry) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
	l.len++
}

func (l *lruList) remove(e *Entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else if l.head == e {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else if l.tail == e {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
	l.len--
}

func (l *lruList) moveToFront(e *Entry) {
	if l.head == e {
		return
	}
	l.remove(e)
	l.pushFront(e)
}

// touch marks an entry as recently used. Called under the entry's shard
// lock, so the entry is still in its bucket; the inLRU check covers the
// eviction window, where a victim has left the list but not yet its
// bucket.
func (c *Cache) touch(e *Entry) {
	if c.opts.Capacity <= 0 {
		return
	}
	c.lruMu.Lock()
	if e.inLRU {
		c.lru.moveToFront(e)
	}
	c.lruMu.Unlock()
}

// trackInsert links a freshly stored entry — unlinking the bucket entry
// it replaced, if any — and picks least-recently-used victims while the
// cache is over capacity. Called under the storing shard's lock, in the
// same critical section as the bucket insert, so no invalidation can run
// between the two and resurrect a dead entry. The victims are returned
// for the caller to evict after releasing the shard lock (evict takes the
// victim's own shard lock).
func (c *Cache) trackInsert(e, replaced *Entry) []*Entry {
	if c.opts.Capacity <= 0 {
		return nil
	}
	var victims []*Entry
	c.lruMu.Lock()
	if replaced != nil && replaced.inLRU {
		c.lru.remove(replaced)
		replaced.inLRU = false
	}
	c.lru.pushFront(e)
	e.inLRU = true
	for c.lru.len > c.opts.Capacity {
		v := c.lru.tail
		c.lru.remove(v)
		v.inLRU = false
		victims = append(victims, v)
	}
	c.lruMu.Unlock()
	return victims
}

// evict deletes an LRU victim from its shard bucket. Called with no locks
// held. The pointer-identity check makes the delete a no-op when the
// victim already left its bucket through another path (invalidation, or
// replacement by a concurrent store of the same key).
func (c *Cache) evict(v *Entry) {
	s := c.shardFor(v.Query.TemplateID)
	removed := false
	s.mu.Lock()
	if b := s.buckets[v.Query.TemplateID]; b != nil && b.remove(v) {
		if b.size() == 0 {
			delete(s.buckets, v.Query.TemplateID)
		}
		removed = true
	}
	s.mu.Unlock()
	if removed {
		c.entries.Add(-1)
		c.evictionsC.Inc()
		c.lruMu.Lock()
		c.evictions++
		c.lruMu.Unlock()
	}
}

// unlink removes invalidated entries from the LRU list. Called under the
// owning shard's lock, in the same critical section that removed the
// entries from their bucket.
func (c *Cache) unlink(removed []*Entry) {
	if c.opts.Capacity <= 0 || len(removed) == 0 {
		return
	}
	c.lruMu.Lock()
	for _, e := range removed {
		if e.inLRU {
			c.lru.remove(e)
			e.inLRU = false
		}
	}
	c.lruMu.Unlock()
}
