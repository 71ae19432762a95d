package resultcache

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
)

func bkey(s string) Key {
	h := NewHasher("test/backend")
	h.Str(s)
	return h.Sum()
}

func TestMemoryLRUEviction(t *testing.T) {
	payload := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 100) }
	m := NewMemory(250) // room for two 100-byte entries

	for i := 0; i < 3; i++ {
		if err := m.Put(bkey(fmt.Sprintf("k%d", i)), payload(i)); err != nil {
			t.Fatalf("Put: %v", err)
		}
	}
	// k0 is the LRU victim of the k2 insert.
	if _, err := m.Get(bkey("k0")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("k0 should have been evicted, got err=%v", err)
	}
	for _, k := range []string{"k1", "k2"} {
		if _, err := m.Get(bkey(k)); err != nil {
			t.Fatalf("%s should be resident: %v", k, err)
		}
	}
	if s := m.Stat(); s.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", s.Evictions)
	}
	if m.Len() != 2 || m.Bytes() != 200 {
		t.Fatalf("Len=%d Bytes=%d, want 2/200", m.Len(), m.Bytes())
	}
}

func TestMemoryLRUTouchOnGet(t *testing.T) {
	m := NewMemory(250)
	m.Put(bkey("a"), bytes.Repeat([]byte{1}, 100))
	m.Put(bkey("b"), bytes.Repeat([]byte{2}, 100))
	// Touch a so b becomes the LRU victim.
	if _, err := m.Get(bkey("a")); err != nil {
		t.Fatal(err)
	}
	m.Put(bkey("c"), bytes.Repeat([]byte{3}, 100))
	if _, err := m.Get(bkey("b")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("b should have been evicted, got err=%v", err)
	}
	if _, err := m.Get(bkey("a")); err != nil {
		t.Fatalf("a should survive after touch: %v", err)
	}
}

func TestMemoryOversizedEntryRejected(t *testing.T) {
	m := NewMemory(50)
	m.Put(bkey("small"), []byte("x"))
	if err := m.Put(bkey("huge"), bytes.Repeat([]byte{9}, 100)); err != nil {
		t.Fatalf("oversized Put should be a quiet no-op, got %v", err)
	}
	if _, err := m.Get(bkey("huge")); !errors.Is(err, ErrNotFound) {
		t.Fatal("oversized entry must not be stored")
	}
	if _, err := m.Get(bkey("small")); err != nil {
		t.Fatal("existing entries must survive an oversized Put")
	}
}

func TestMemoryConcurrent(t *testing.T) {
	m := NewMemory(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := bkey(fmt.Sprintf("g%d-i%d", g, i%10))
				m.Put(k, []byte{byte(g), byte(i)})
				m.Get(k)
			}
		}(g)
	}
	wg.Wait()
}

func TestDiskBackendRoundTrip(t *testing.T) {
	d, err := NewDisk(DiskConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	key, want := bkey("rt"), []byte("payload")
	if err := d.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, want %q", got, want)
	}
	if err := d.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatalf("after Delete, err=%v, want ErrNotFound", err)
	}
	// Deleting an absent key is not an error.
	if err := d.Delete(key); err != nil {
		t.Fatalf("Delete of absent key: %v", err)
	}
}

// TestDiskTruncatedAtEveryOffset cuts one record short at every length in
// turn. No length may be served or panic: the reopened disk tier counts a
// corrupt entry and a miss, and removes the file. Writing the entry again
// restores it, and no temp file is left.
func TestDiskTruncatedAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	key, want := bkey("cut"), []byte("a cell's encoded result, long enough to span the payload")
	if err := d.Put(key, want); err != nil {
		t.Fatal(err)
	}
	path := d.EntryPath(key)
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(whole); n++ {
		if err := os.WriteFile(path, whole[:n], 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := NewDisk(DiskConfig{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if got, err := d.Get(key); !errors.Is(err, ErrNotFound) {
			t.Fatalf("record cut to %d of %d bytes served %q (%v)", n, len(whole), got, err)
		}
		if st := d.Stat(); st.Misses != 1 || st.Corrupt != 1 {
			t.Fatalf("record cut to %d bytes: stats %+v, want 1 miss and 1 corrupt", n, st)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("record cut to %d bytes left on disk: %v", n, err)
		}
	}

	d, err = NewDisk(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(key, want); err != nil {
		t.Fatal(err)
	}
	d, err = NewDisk(DiskConfig{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := d.Get(key); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("rewritten record: Get = %q, %v; want %q", got, err, want)
	}
	if tmp := tmpFiles(t, dir); len(tmp) != 0 {
		t.Fatalf("temp files left: %v", tmp)
	}
}

func TestRemoteRoundTripAndValidation(t *testing.T) {
	disk, err := NewDisk(DiskConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewHTTPHandler(disk))
	defer srv.Close()

	r, err := NewRemote(RemoteConfig{BaseURL: srv.URL, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	key, want := bkey("remote"), []byte("over the wire")
	if err := r.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, err := r.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, want %q", got, want)
	}
	// The server stored through its disk tier.
	if _, err := disk.Get(key); err != nil {
		t.Fatalf("server-side disk should hold the entry: %v", err)
	}
	if _, err := r.Get(bkey("absent")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: err=%v, want ErrNotFound", err)
	}
	if err := r.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(key); !errors.Is(err, ErrNotFound) {
		t.Fatal("entry should be gone after Delete")
	}
	s := r.Stat()
	if s.Hits != 1 || s.Misses != 2 || s.Puts != 1 || s.Deletes != 1 {
		t.Fatalf("remote stats = %+v", s)
	}
}

func TestRemoteCorruptResponseIsMiss(t *testing.T) {
	// A server returning garbage instead of a framed record must read as a
	// corrupt miss, never as data.
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Write([]byte("not a TRRC record"))
	}))
	defer srv.Close()

	r, err := NewRemote(RemoteConfig{BaseURL: srv.URL, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(bkey("x")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt response: err=%v, want ErrNotFound", err)
	}
	if s := r.Stat(); s.Corrupt != 1 {
		t.Fatalf("Corrupt = %d, want 1", s.Corrupt)
	}
}

func TestRemoteWrongKeyResponseIsMiss(t *testing.T) {
	// A response framed for a different key (misrouted proxy, bad server)
	// must be rejected by the embedded-key check.
	wrong := bkey("wrong")
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Write(encodeRecord(wrong, []byte("payload")))
	}))
	defer srv.Close()

	r, err := NewRemote(RemoteConfig{BaseURL: srv.URL, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get(bkey("right")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("wrong-key response: err=%v, want ErrNotFound", err)
	}
}

func TestRemoteRetriesServerErrors(t *testing.T) {
	var calls int
	disk, err := NewDisk(DiskConfig{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	key, want := bkey("flaky"), []byte("eventually")
	if err := disk.Put(key, want); err != nil {
		t.Fatal(err)
	}
	inner := NewHTTPHandler(disk)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		calls++
		if calls <= 2 {
			http.Error(w, "transient", http.StatusInternalServerError)
			return
		}
		inner.ServeHTTP(w, req)
	}))
	defer srv.Close()

	r, err := NewRemote(RemoteConfig{BaseURL: srv.URL, Retries: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Get(key)
	if err != nil {
		t.Fatalf("Get should succeed on third attempt: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Get = %q, want %q", got, want)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
}

func TestHTTPHandlerRejectsBadRequests(t *testing.T) {
	srv := httptest.NewServer(NewHTTPHandler(NewMemory(0)))
	defer srv.Close()

	for _, tc := range []struct {
		method, path string
		body         []byte
		wantStatus   int
	}{
		{http.MethodGet, "/zzzz", nil, http.StatusBadRequest},                             // unparseable key
		{http.MethodPut, "/" + bkey("k").String(), []byte("junk"), http.StatusBadRequest}, // unframed body
		{http.MethodPost, "/" + bkey("k").String(), nil, http.StatusMethodNotAllowed},
	} {
		req, err := http.NewRequest(tc.method, srv.URL+tc.path, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.wantStatus {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.wantStatus)
		}
	}
}
