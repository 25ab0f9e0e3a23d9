package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func keyOf(i int) Key {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return Key(sha256.Sum256(b[:]))
}

func valOf(i, size int) []byte {
	v := make([]byte, size)
	for j := range v {
		v[j] = byte(i + j)
	}
	return v
}

func TestStoreRoundTrip(t *testing.T) {
	s, err := New(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf(1)
	if _, ok := s.Get(k); ok {
		t.Fatal("empty store returned a value")
	}
	want := valOf(1, 100)
	if err := s.Put(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(k)
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("round trip lost the value: ok=%v", ok)
	}
	// Put copies: mutating the caller's slice must not corrupt the cache.
	want[0] ^= 0xff
	got, _ = s.Get(k)
	if got[0] == want[0] {
		t.Fatal("store aliases the caller's slice")
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("unexpected stats: %+v", st)
	}
}

func TestStoreEvictsLRU(t *testing.T) {
	s, err := New(1000)
	if err != nil {
		t.Fatal(err)
	}
	// Four 300-byte entries exceed the 1000-byte budget by one entry.
	for i := 0; i < 4; i++ {
		if err := s.Put(keyOf(i), valOf(i, 300)); err != nil {
			t.Fatal(err)
		}
		// Touch entry 0 after every insert so it stays hot.
		if i > 0 {
			if _, ok := s.Get(keyOf(0)); !ok {
				t.Fatalf("hot entry evicted after insert %d", i)
			}
		}
	}
	st := s.Stats()
	if st.Entries != 3 || st.Bytes != 900 || st.Evictions != 1 {
		t.Fatalf("unexpected post-eviction stats: %+v", st)
	}
	// The evicted entry must be the coldest one (entry 1: entry 0 was kept
	// hot by the touches).
	if _, ok := s.Get(keyOf(1)); ok {
		t.Fatal("coldest entry survived eviction")
	}
	for _, i := range []int{0, 2, 3} {
		if _, ok := s.Get(keyOf(i)); !ok {
			t.Fatalf("entry %d wrongly evicted", i)
		}
	}
}

func TestStoreOversizeValueNotCached(t *testing.T) {
	s, err := New(100)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(keyOf(1), valOf(1, 200)); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(keyOf(1)); ok {
		t.Fatal("value larger than the whole budget was admitted")
	}
	if st := s.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("oversize value left residue: %+v", st)
	}
}

func TestStoreDiskLayerSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(1<<20, WithDisk(dir))
	if err != nil {
		t.Fatal(err)
	}
	k, want := keyOf(7), valOf(7, 500)
	if err := s1.Put(k, want); err != nil {
		t.Fatal(err)
	}

	// A fresh store over the same directory — the "restarted server".
	s2, err := New(1<<20, WithDisk(dir))
	if err != nil {
		t.Fatal(err)
	}
	got, ok := s2.Get(k)
	if !ok || !bytes.Equal(got, want) {
		t.Fatal("disk layer did not survive the restart")
	}
	st := s2.Stats()
	if st.DiskHits != 1 || st.Hits != 0 {
		t.Fatalf("restart hit not attributed to disk: %+v", st)
	}
	// Second access is served from memory (re-admitted).
	if _, ok := s2.Get(k); !ok {
		t.Fatal("re-admitted entry lost")
	}
	if st := s2.Stats(); st.Hits != 1 {
		t.Fatalf("re-admitted entry not served from memory: %+v", st)
	}
}

func TestStoreEvictionLeavesDiskIntact(t *testing.T) {
	dir := t.TempDir()
	s, err := New(1000, WithDisk(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Put(keyOf(i), valOf(i, 300)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Evictions == 0 {
		t.Fatal("expected evictions")
	}
	// Every entry — including evicted ones — must still be readable, via disk.
	for i := 0; i < 4; i++ {
		got, ok := s.Get(keyOf(i))
		if !ok || !bytes.Equal(got, valOf(i, 300)) {
			t.Fatalf("entry %d unreadable after eviction", i)
		}
	}
	// No stray temp files left behind.
	matches, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}

func TestStoreDiskCorruptionFallsBackToMiss(t *testing.T) {
	// A missing/unreadable disk file is a miss, not an error: the server just
	// recomputes.
	dir := t.TempDir()
	s, err := New(1<<20, WithDisk(dir))
	if err != nil {
		t.Fatal(err)
	}
	k := keyOf(3)
	if err := s.Put(k, valOf(3, 10)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, k.String())); err != nil {
		t.Fatal(err)
	}
	s2, err := New(1<<20, WithDisk(dir))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s2.Get(k); ok {
		t.Fatal("deleted disk entry reported as hit")
	}
}

func TestStoreDiskDamagedEntryIsMiss(t *testing.T) {
	// A disk entry a crash truncated, or the disk corrupted, must never be
	// served: Get counts a miss and deletes the file, and the next Put
	// persists the value afresh.
	for _, tc := range []struct {
		name   string
		damage func(entry []byte) []byte
	}{
		{"empty file", func([]byte) []byte { return nil }},
		{"truncated digest", func(e []byte) []byte { return e[:sha256.Size/2] }},
		{"truncated value", func(e []byte) []byte { return e[:len(e)-1] }},
		{"flipped byte", func(e []byte) []byte { e[len(e)-1] ^= 1; return e }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s1, err := New(1<<20, WithDisk(dir))
			if err != nil {
				t.Fatal(err)
			}
			k, want := keyOf(5), valOf(5, 40)
			if err := s1.Put(k, want); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, k.String())
			entry, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.damage(entry), 0o644); err != nil {
				t.Fatal(err)
			}

			s2, err := New(1<<20, WithDisk(dir))
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := s2.Get(k); ok {
				t.Fatal("damaged disk entry reported as hit")
			}
			if st := s2.Stats(); st.Misses != 1 || st.DiskHits != 0 {
				t.Fatalf("damaged entry not counted as a miss: %+v", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("damaged entry left on disk (stat err %v)", err)
			}
			if err := s2.Put(k, want); err != nil {
				t.Fatal(err)
			}
			s3, err := New(1<<20, WithDisk(dir))
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := s3.Get(k); !ok || !bytes.Equal(got, want) {
				t.Fatal("re-persisted entry unreadable")
			}
		})
	}
}

// TestStoreConcurrentHammer drives many goroutines through overlapping
// Put/Get traffic under -race: the assertions are (a) no data race, (b) every
// successful Get returns exactly the bytes content addressing promises.
func TestStoreConcurrentHammer(t *testing.T) {
	for _, disk := range []bool{false, true} {
		disk := disk
		t.Run(fmt.Sprintf("disk=%v", disk), func(t *testing.T) {
			t.Parallel()
			var opts []Option
			if disk {
				opts = append(opts, WithDisk(t.TempDir()))
			}
			// Small budget so eviction churns constantly under load.
			s, err := New(4096, opts...)
			if err != nil {
				t.Fatal(err)
			}
			const (
				goroutines = 16
				iters      = 300
				keys       = 32
			)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						id := (g*31 + i) % keys
						k := keyOf(id)
						want := valOf(id, 64+id)
						if i%3 == 0 {
							if err := s.Put(k, want); err != nil {
								t.Errorf("put %d: %v", id, err)
								return
							}
						}
						if got, ok := s.Get(k); ok && !bytes.Equal(got, want) {
							t.Errorf("key %d: wrong bytes", id)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			st := s.Stats()
			if st.Bytes > 4096 {
				t.Fatalf("budget exceeded after hammer: %+v", st)
			}
		})
	}
}
