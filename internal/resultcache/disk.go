package resultcache

import (
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// DiskConfig parameterizes NewDisk.
type DiskConfig struct {
	// Dir is the store root. Entries live under Dir/v<SchemaVersion>/,
	// sharded by the first key byte.
	Dir string
	// MaxBytes bounds the on-disk footprint; least-recently-used entries
	// are evicted past it. <= 0 selects the 1 GiB default.
	MaxBytes int64
}

// Disk is the on-disk backend: checksummed self-validating records in a
// Shards directory (atomic publish, mtime-seeded LRU eviction under a size
// bound). It is the durable tier every other backend sits in front of.
type Disk struct {
	shards  *Shards // rooted at DiskConfig.Dir/v<SchemaVersion>, entries *.rc
	metrics tierMetrics
}

// NewDisk opens (creating if needed) the disk backend rooted at cfg.Dir
// and indexes the entries already on disk.
func NewDisk(cfg DiskConfig) (*Disk, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("resultcache: empty cache directory")
	}
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	shards, err := OpenShards(filepath.Join(cfg.Dir, fmt.Sprintf("v%d", SchemaVersion)), ".rc", cfg.MaxBytes)
	if err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return &Disk{shards: shards}, nil
}

// Name implements Backend.
func (d *Disk) Name() string { return "disk" }

// EntryPath returns where the entry for key lives (or would live) on disk.
func (d *Disk) EntryPath(key Key) string { return d.shards.Path(key) }

// Dir returns the versioned store root.
func (d *Disk) Dir() string { return d.shards.Dir() }

// Stat implements Backend.
func (d *Disk) Stat() BackendStats { return d.metrics.snapshot(d.Name()) }

// DiskBytes returns the indexed on-disk footprint.
func (d *Disk) DiskBytes() int64 { return d.shards.Bytes() }

// Get implements Backend: it loads and validates the on-disk record for
// key. Corrupt entries are discarded — counted, removed, reported as a
// miss — never served.
func (d *Disk) Get(key Key) ([]byte, error) {
	start := time.Now()
	buf, err := os.ReadFile(d.shards.Path(key))
	if err != nil {
		d.metrics.observeGet(start, false, 0)
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	payload, err := decodeRecord(key, buf)
	if err != nil {
		// Corrupt or undecodable: discard so it is recomputed, never
		// served.
		_ = d.shards.Drop(key) // best-effort: a survivor fails validation again
		d.metrics.observeCorrupt()
		d.metrics.observeGet(start, false, 0)
		return nil, fmt.Errorf("%w: %s: %v", ErrNotFound, key, err)
	}
	d.shards.Hit(key, int64(len(buf)))
	d.metrics.observeGet(start, true, len(buf))
	return payload, nil
}

// Put implements Backend: it frames payload as a self-validating record
// and publishes it, evicting past the size bound.
func (d *Disk) Put(key Key, payload []byte) (err error) {
	start := time.Now()
	rec := encodeRecord(key, payload)
	defer func() { d.metrics.observePut(start, err, len(rec)) }()
	_, evicted, err := d.shards.Publish(key, func(w *os.File) error {
		_, err := w.Write(rec)
		return err
	})
	d.metrics.addEvictions(uint64(evicted))
	return err
}

// Delete implements Backend.
func (d *Disk) Delete(key Key) error {
	d.metrics.observeDelete()
	if err := d.shards.Drop(key); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// Close implements Backend (no buffered state to flush).
func (d *Disk) Close() error { return nil }
