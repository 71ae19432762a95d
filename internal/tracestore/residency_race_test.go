package tracestore

import (
	"reflect"
	"sync"
	"testing"
)

// TestEvictionDoesNotUnmapInUseSlab churns other keys against a
// referenced slab: every churned Write pushes the disk index past a tiny
// MaxBytes, forcing LRU eviction of the held slab's file as well, and the
// Get after it maps the churned slab, whose Release unmaps it again.
// Throughout, a reader hammers the held mapping — under -race and on real
// mmap pages, an unmap of an in-use slab would fault or corrupt the read. The contract: neither other keys' unmaps nor
// disk eviction touch a held slab; its mapping lives until the last
// Release.
func TestEvictionDoesNotUnmapInUseSlab(t *testing.T) {
	s := mustOpen(t, Config{Dir: t.TempDir(), MaxBytes: 1 << 15})

	keyHeld := testKey(1000)
	want := testRecords(400, 5)
	held, err := s.GetOrConvert(keyHeld, converterFor(400, 5, nil))
	if err != nil {
		t.Fatalf("GetOrConvert: %v", err)
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				recs := held.Records()
				if len(recs) != len(want) || recs[0].IP != want[0].IP || recs[len(recs)-1].IP != want[len(recs)-1].IP {
					t.Error("held slab content changed under eviction churn")
					return
				}
			}
		}()
	}

	// Churn: every Write pushes the disk index past its bound. Under that
	// bound another worker's Write may evict the slab before its Get maps
	// it, so a Get may miss.
	var churn sync.WaitGroup
	for w := 0; w < 4; w++ {
		churn.Add(1)
		go func(w int) {
			defer churn.Done()
			for i := 0; i < 25; i++ {
				salt := uint64(w*1000 + i)
				key := testKey(2000 + salt)
				if err := s.Write(key, streamerFor(300, 100, salt, 0, nil)); err != nil {
					t.Errorf("churn Write: %v", err)
					return
				}
				sl, ok := s.Get(key)
				if !ok {
					continue
				}
				if sl.Len() != 300 {
					t.Errorf("churn slab has %d records, want 300", sl.Len())
				}
				sl.Release()
			}
		}(w)
	}
	churn.Wait()
	close(stop)
	readers.Wait()

	// The held slab survived every eviction intact and was never unmapped.
	if !reflect.DeepEqual(held.Records(), want) {
		t.Fatal("held slab records differ after eviction churn")
	}
	s.mu.Lock()
	destroyed := held.destroyed
	s.mu.Unlock()
	if destroyed {
		t.Fatal("slab backing memory released while still referenced")
	}

	// The last Release frees the mapping.
	held.Release()
	s.mu.Lock()
	destroyed = held.destroyed
	s.mu.Unlock()
	if !destroyed {
		t.Fatal("slab should be destroyed at its last Release")
	}
	if st := s.Stats(); st.Evictions == 0 {
		t.Fatalf("churn should have caused disk evictions: %+v", st)
	}
}
