// Package store implements the content-addressed result cache behind
// internal/serve: an in-memory LRU over opaque byte values keyed by 32-byte
// content fingerprints, with an optional write-through disk layer that
// survives process restarts.
//
// The cache exploits the repo's central invariant — a simulation result is a
// pure, deterministic function of its canonical spec — so a value stored
// under a fingerprint is THE answer for that spec, forever. That makes the
// semantics unusually simple:
//
//   - No invalidation. Entries never go stale; eviction exists only to bound
//     memory. Fingerprint domains (scenario vs campaign, version bumps) keep
//     incompatible value shapes in disjoint key spaces.
//   - Byte values, not objects. The store holds the exact wire encoding the
//     server will send, so a cache hit is byte-identical to a cold compute by
//     construction — the determinism contract extends through the cache.
//   - Eviction is memory-only. The disk layer is an append-mostly archive;
//     evicting an entry from memory leaves its file behind, and a later Get
//     re-admits it. Disk reads happen outside the lock (the file is immutable
//     once renamed into place), so a slow disk never blocks the hot path.
//   - Disk entries are checked. Each file holds the value's SHA-256 followed
//     by the value; a file that is short or fails the check (truncated by a
//     crash, damaged on disk) is a miss and is deleted, so the server
//     recomputes the value instead of serving broken bytes.
//
// All methods are safe for concurrent use.
package store

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// KeySize is the fingerprint width: SHA-256.
const KeySize = 32

// Key is a content fingerprint — in practice scenario.Fingerprint or a
// campaign fingerprint, converted by the caller. The store is deliberately
// ignorant of what the bytes mean.
type Key [KeySize]byte

// String returns the key as lowercase hex (also the disk filename).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// DefaultBudget is the in-memory byte budget used when New is given a
// non-positive one: 64 MiB, roomy for tens of thousands of simulation results
// while staying far from container limits.
const DefaultBudget = 64 << 20

// Stats is a point-in-time snapshot of the store's counters, exported by the
// server's /stats endpoint and asserted on by the CI smoke test.
type Stats struct {
	// Hits counts Gets answered from memory; DiskHits counts Gets that missed
	// memory but were re-admitted from the disk layer. Misses counts Gets
	// answered by neither.
	Hits     uint64 `json:"hits"`
	DiskHits uint64 `json:"disk_hits"`
	Misses   uint64 `json:"misses"`
	// Puts counts successful inserts; Evictions counts entries dropped from
	// memory to stay under budget.
	Puts      uint64 `json:"puts"`
	Evictions uint64 `json:"evictions"`
	// Entries and Bytes describe current memory residency.
	Entries int   `json:"entries"`
	Bytes   int64 `json:"bytes"`
	// Budget echoes the configured in-memory byte budget.
	Budget int64 `json:"budget"`
}

// Store is the cache. The zero value is not usable; call New.
type Store struct {
	mu      sync.Mutex
	entries map[Key]*list.Element
	lru     *list.List // front = most recently used
	used    int64
	budget  int64
	dir     string // "" = memory only

	hits, diskHits, misses, puts, evictions uint64
}

type entry struct {
	key Key
	val []byte
}

// Option configures a Store.
type Option func(*Store)

// WithDisk adds a write-through disk layer rooted at dir (created if absent).
// Every Put is persisted as dir/<hex>; Gets that miss memory fall back to
// disk. Entries evicted from memory remain on disk, so a restarted server
// with the same dir starts warm.
func WithDisk(dir string) Option { return func(s *Store) { s.dir = dir } }

// New returns a Store holding at most budget bytes of values in memory
// (non-positive = DefaultBudget).
func New(budget int64, opts ...Option) (*Store, error) {
	if budget <= 0 {
		budget = DefaultBudget
	}
	s := &Store{
		entries: make(map[Key]*list.Element),
		lru:     list.New(),
		budget:  budget,
	}
	for _, o := range opts {
		o(s)
	}
	if s.dir != "" {
		if err := os.MkdirAll(s.dir, 0o755); err != nil {
			return nil, fmt.Errorf("store: creating disk layer: %w", err)
		}
	}
	return s, nil
}

// Get returns the value stored under k. The returned slice is shared and
// must not be modified. A memory miss consults the disk layer; a disk hit is
// re-admitted into memory so repeated access stays cheap.
func (s *Store) Get(k Key) ([]byte, bool) {
	s.mu.Lock()
	if el, ok := s.entries[k]; ok {
		s.lru.MoveToFront(el)
		s.hits++
		hitsTotal.Inc()
		v := el.Value.(*entry).val
		s.mu.Unlock()
		return v, true
	}
	if s.dir == "" {
		s.misses++
		missesTotal.Inc()
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Unlock()

	// Disk read outside the lock: files are immutable once renamed into
	// place, so concurrent readers need no coordination. If two goroutines
	// race here, both read the same bytes and admit twice — harmless.
	data, err := os.ReadFile(s.path(k))
	v, ok := unframe(data)
	if err == nil && !ok {
		// A damaged entry can never become valid; drop it so the recomputed
		// value's Put persists afresh. If the removal fails, the next Get
		// finds the same damage and misses again.
		_ = os.Remove(s.path(k))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil || !ok {
		s.misses++
		missesTotal.Inc()
		return nil, false
	}
	s.diskHits++
	diskHitsTotal.Inc()
	if el, ok := s.entries[k]; ok {
		// Lost the admit race; serve the resident copy.
		s.lru.MoveToFront(el)
		return el.Value.(*entry).val, true
	}
	s.admit(k, v)
	return v, true
}

// Put stores v under k, evicting least-recently-used entries as needed to
// stay under budget, and (when configured) persists it to the disk layer.
// The value is copied; the caller keeps ownership of v. Storing under an
// existing key is a no-op — content addressing means the bytes are already
// equal. Values larger than the whole budget are persisted to disk (if any)
// but not kept in memory.
func (s *Store) Put(k Key, v []byte) error {
	cp := make([]byte, len(v))
	copy(cp, v)

	if s.dir != "" {
		if err := s.persist(k, cp); err != nil {
			return err
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[k]; ok {
		return nil
	}
	s.puts++
	putsTotal.Inc()
	if int64(len(cp)) > s.budget {
		return nil
	}
	s.admit(k, cp)
	return nil
}

// admit inserts into memory and evicts down to budget. Caller holds mu.
func (s *Store) admit(k Key, v []byte) {
	s.entries[k] = s.lru.PushFront(&entry{key: k, val: v})
	s.used += int64(len(v))
	for s.used > s.budget {
		back := s.lru.Back()
		if back == nil {
			break
		}
		e := back.Value.(*entry)
		s.lru.Remove(back)
		delete(s.entries, e.key)
		s.used -= int64(len(e.val))
		s.evictions++
		evictionsTotal.Inc()
	}
}

// persist writes the value, framed by its SHA-256, to the disk layer
// atomically: a temp file in the same directory, fsync-free (the cache
// tolerates losing a crash-window entry — it just recomputes), then rename
// into place. Readers therefore see either nothing or the complete value,
// never a torn write; what a crash or the disk itself damages later, Get's
// check catches.
func (s *Store) persist(k Key, v []byte) error {
	final := s.path(k)
	if _, err := os.Stat(final); err == nil {
		return nil // content-addressed: already the right bytes
	}
	tmp, err := os.CreateTemp(s.dir, k.String()+".*.tmp")
	if err != nil {
		return fmt.Errorf("store: persisting %s: %w", k, err)
	}
	sum := sha256.Sum256(v)
	_, werr := tmp.Write(append(sum[:], v...))
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: persisting %s: write %v, close %v", k, werr, cerr)
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: persisting %s: %w", k, err)
	}
	return nil
}

func (s *Store) path(k Key) string { return filepath.Join(s.dir, k.String()) }

// unframe returns the value held in a disk entry (its SHA-256, then the
// value), or false when the entry is too short or the digest does not match.
func unframe(data []byte) ([]byte, bool) {
	if len(data) < sha256.Size {
		return nil, false
	}
	v := data[sha256.Size:]
	sum := sha256.Sum256(v)
	return v, bytes.Equal(data[:sha256.Size], sum[:])
}

// Stats returns a consistent snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits:      s.hits,
		DiskHits:  s.diskHits,
		Misses:    s.misses,
		Puts:      s.puts,
		Evictions: s.evictions,
		Entries:   len(s.entries),
		Bytes:     s.used,
		Budget:    s.budget,
	}
}
