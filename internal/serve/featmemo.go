package serve

import (
	"container/list"
	"sync"

	"repro/internal/obs"
)

// The feature-vector memo is the serve hot path's only request cache,
// fronting parse + extract: feature vectors depend only on the request
// body, never on the model, so they are keyed by body content hash
// alone and survive hot-swaps, promotions and arch routing. A repeat
// matrix therefore skips MatrixMarket parsing and feature extraction
// entirely even right after a reload, while the live model still
// predicts every request.
//
// Invalidation rules: there are none. An entry can only ever be
// superseded by a richer one for the same key (cheap-only upgraded to
// the full 21-feature vector); it is never flushed on model swap,
// because the mapping body→features is immutable. Capacity pressure is
// the only evictor (LRU).

// featEntry memoizes the extracted features of one request body. full
// is the 21-feature vector when the full path computed it; cheap is the
// O(rows) cheap-feature row when only the cascade's stage ran. Exactly
// one of the two is non-nil.
type featEntry struct {
	full  []float64
	cheap []float64
}

// featMemo is a goroutine-safe fixed-capacity LRU from body content
// hash to extracted features, instrumented with resident-entry and
// approximate-footprint gauges.
type featMemo struct {
	mu    sync.Mutex
	cap   int
	ll    *list.List // front = most recent
	items map[string]*list.Element
	bytes int64

	entries *obs.Gauge
	footpr  *obs.Gauge
}

type featMemoEntry struct {
	key string
	val featEntry
}

// featEntrySize approximates one entry's heap footprint: key bytes,
// vector payloads, and fixed list/map overhead.
func featEntrySize(key string, e featEntry) int64 {
	return int64(len(key) + 8*(len(e.full)+len(e.cheap)) + 96)
}

// newFeatMemo returns a memo holding up to capacity entries; a
// non-positive capacity disables it (Enabled reports false, every Get
// misses, Put is a no-op).
func newFeatMemo(capacity int) *featMemo {
	return &featMemo{
		cap:     capacity,
		ll:      list.New(),
		items:   make(map[string]*list.Element),
		entries: obs.Default.Gauge("serve/featmemo/entries"),
		footpr:  obs.Default.Gauge("serve/featmemo/bytes"),
	}
}

// Enabled reports whether the memo stores anything at all, so the hot
// path can skip key derivation when it is configured off.
func (c *featMemo) Enabled() bool { return c != nil && c.cap > 0 }

// Get returns the memoized features for key, marking it most recent.
func (c *featMemo) Get(key string) (featEntry, bool) {
	if !c.Enabled() {
		return featEntry{}, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return featEntry{}, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*featMemoEntry).val, true
}

// Put stores features for key, evicting the least recently used entry
// when full. Puts only ever upgrade: a full vector replaces a
// cheap-only entry, but a cheap-only row never downgrades an entry that
// already holds the full vector (both were derived from the same body,
// so the richer one stays).
func (c *featMemo) Put(key string, val featEntry) {
	if !c.Enabled() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		cur := el.Value.(*featMemoEntry)
		if cur.val.full == nil && val.full != nil {
			c.bytes += featEntrySize(key, val) - featEntrySize(key, cur.val)
			cur.val = val
		}
		c.ll.MoveToFront(el)
		c.export()
		return
	}
	c.items[key] = c.ll.PushFront(&featMemoEntry{key: key, val: val})
	c.bytes += featEntrySize(key, val)
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		ent := oldest.Value.(*featMemoEntry)
		c.bytes -= featEntrySize(ent.key, ent.val)
		delete(c.items, ent.key)
	}
	c.export()
}

// Len returns the number of memoized entries.
func (c *featMemo) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the approximate resident footprint.
func (c *featMemo) Bytes() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// export refreshes the gauges; callers hold mu.
func (c *featMemo) export() {
	c.entries.Set(float64(c.ll.Len()))
	c.footpr.Set(float64(c.bytes))
}
