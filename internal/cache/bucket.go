package cache

import (
	"dssp/internal/invalidate"
	"dssp/internal/template"
)

// bucket is one template's cached entries, keyed by sealed key. A
// statement- or view-exposed bucket whose template has parameters some
// update pins (invalidate.Router.PinnedParams) also indexes its entries
// by each such parameter's value, so an invalidation pass can inspect
// only the entries an update's pinned values can touch
// (invalidate.PreparedUpdate.Pinned). Template-exposed and hidden buckets
// are only ever dropped whole and carry no index. Every insertion and
// every single-entry removal goes through put and remove, under the
// owning shard's lock, so the index never drifts from the entries; a
// whole-bucket drop discards the bucket, index included.
type bucket struct {
	entries   map[string]*Entry
	numParams int
	index     []paramIndex
}

// paramIndex indexes a bucket's entries by the value of one parameter.
// Entries whose parameter has no exact key (invalidate.ParamKey) sit in
// loose, which every pinned walk inspects.
type paramIndex struct {
	param int
	byKey map[invalidate.PinKey][]*Entry
	loose []*Entry
}

// newBucket makes the bucket for template id, whose first entry arrives
// at exposure exp.
func (c *Cache) newBucket(id string, exp template.Exposure) *bucket {
	b := &bucket{entries: make(map[string]*Entry)}
	qt := c.app.Query(id)
	if exp < template.ExpStmt || qt == nil {
		return b
	}
	b.numParams = qt.NumParams
	for _, p := range c.inv.Router().PinnedParams(id) {
		b.index = append(b.index, paramIndex{param: p, byKey: make(map[invalidate.PinKey][]*Entry)})
	}
	return b
}

// size returns the number of entries; a nil bucket is empty.
func (b *bucket) size() int {
	if b == nil {
		return 0
	}
	return len(b.entries)
}

// put inserts e, replacing and returning the entry under the same key,
// if any.
func (b *bucket) put(e *Entry) (old *Entry) {
	old = b.entries[e.Query.Key]
	if old != nil {
		b.unindex(old)
	}
	b.entries[e.Query.Key] = e
	for i := range b.index {
		ix := &b.index[i]
		if k, ok := invalidate.ParamKey(b.numParams, e.Query.Params, ix.param); ok {
			ix.byKey[k] = append(ix.byKey[k], e)
		} else {
			ix.loose = append(ix.loose, e)
		}
	}
	return old
}

// remove deletes e if it is still the bucket's entry for its key.
func (b *bucket) remove(e *Entry) bool {
	if b.entries[e.Query.Key] != e {
		return false
	}
	delete(b.entries, e.Query.Key)
	b.unindex(e)
	return true
}

// unindex drops e from every parameter index.
func (b *bucket) unindex(e *Entry) {
	for i := range b.index {
		ix := &b.index[i]
		k, ok := invalidate.ParamKey(b.numParams, e.Query.Params, ix.param)
		if !ok {
			ix.loose = without(ix.loose, e)
			continue
		}
		if rest := without(ix.byKey[k], e); len(rest) > 0 {
			ix.byKey[k] = rest
		} else {
			delete(ix.byKey, k)
		}
	}
}

// indexFor returns the index over parameter param, or nil.
func (b *bucket) indexFor(param int) *paramIndex {
	for i := range b.index {
		if b.index[i].param == param {
			return &b.index[i]
		}
	}
	return nil
}

// without removes e from s in place, not preserving order.
func without(s []*Entry, e *Entry) []*Entry {
	for i, x := range s {
		if x == e {
			last := len(s) - 1
			s[i] = s[last]
			s[last] = nil
			return s[:last]
		}
	}
	return s
}
