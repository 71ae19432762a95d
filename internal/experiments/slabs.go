package experiments

import (
	"cmp"
	"io"
	"sync"
	"sync/atomic"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
	"tracerebase/internal/cvp"
	"tracerebase/internal/resultcache"
	"tracerebase/internal/synth"
	"tracerebase/internal/tracestore"
)

// SlabStore is the content-addressed store of converted, simulation-ready
// instruction slabs. A nil *SlabStore in SweepConfig disables it (the
// -no-trace-store path), which reproduces the streaming conversion engine
// exactly.
type SlabStore = tracestore.Store

// OpenSlabStore opens the slab store rooted at dir ("" = the
// DefaultCacheDir resolution + "/slabs") with the given size bound (0 = the
// tracestore default of 8 GiB). warn, when non-nil, receives printf-style
// diagnostics for absorbed failures (corrupt slabs, write errors).
func OpenSlabStore(dir string, maxBytes int64, warn func(format string, args ...any)) (*SlabStore, error) {
	if dir == "" {
		base, err := DefaultCacheDir()
		if err != nil {
			return nil, err
		}
		dir = base + "/slabs"
	}
	return tracestore.Open(tracestore.Config{Dir: dir, MaxBytes: maxBytes, Warn: warn})
}

// slabKey derives the content address of one converted slab: the profile's
// canonical encoding (which embeds synth.GeneratorVersion), the converter
// algorithm version, the slab format version, the instruction count, and
// the converter-option bits. Deliberately NOT in the key: the build
// fingerprint (slabs survive rebuilds; stale-output protection is the
// version constants plus the slab-transparency oracle) and the simulator
// configuration (a slab is pure converter output — exact, sampled, and
// multi-core runs all share it).
func slabKey(p *synth.Profile, opts core.Options, instructions int) tracestore.Key {
	return resultcache.NewHasher("tracerebase/slab").
		U64(tracestore.FormatVersion).
		U64(core.ConverterVersion).
		Bytes(p.AppendCanonical(nil)).
		U64(uint64(instructions)).
		U64(uint64(opts.Bits())).
		Sum()
}

// traceStream is a trace's streamed generator, as the slab pass reads it.
type traceStream interface {
	cvp.BatchSource
	Close()
}

// streamTrace starts a trace's streamed generation for the slab pass. It
// is a variable so tests can count and fail generations.
var streamTrace = func(p synth.Profile, n int) (traceStream, error) { return p.Stream(n) }

// convertTrace is the slab path's once-per-trace pass. It lists the
// converter options in classes whose slab is not in the store's index,
// generates the trace once as a stream, and converts it into each listed
// slab file on a goroutine per slab (fanOut), so the slab path never holds
// a whole generated trace. It returns the generation error, if any. A
// slab whose conversion or write failed, or that is evicted before its
// class's first cell maps it, is missing: input writes it again from the
// trace's memoized instructions.
func (c *SweepConfig) convertTrace(p *synth.Profile, classes []core.Options) error {
	var keys []tracestore.Key
	var opts []core.Options
	for _, o := range classes {
		if key := slabKey(p, o, c.Instructions); !c.Slabs.Has(key) {
			keys = append(keys, key)
			opts = append(opts, o)
		}
	}
	if len(keys) == 0 {
		return nil
	}
	gen, err := streamTrace(*p, c.Instructions)
	if err != nil {
		return err
	}
	defer gen.Close()
	return fanOut(gen, len(keys), func(i int, src cvp.Source) {
		// The store warns about and counts a failure; the class falls back.
		_ = c.Slabs.Write(keys[i], func(emit func([]champtrace.Instruction) error) (core.Stats, error) {
			return core.ConvertEmit(src, opts[i], emit)
		})
	})
}

// ringBatches is how many generated batches fanOut keeps in flight. A
// batch is refilled only once every consumer has read it, so consumers run
// at their own pace up to this many batches apart; a ring of one would
// make each batch wait for the slowest consumer before the next is
// generated.
const ringBatches = 4

// fanOut pulls gen to its end in batches of core.EmitBatch instructions
// and hands every batch to n consumers: consume(i, src) runs on its own
// goroutine for each i, reading the batches in order from src. A consumer
// that returns before src's end gives up the rest. It returns gen's error,
// which each src also returns in place of io.EOF, once every consumer has
// returned.
func fanOut(gen cvp.BatchSource, n int, consume func(i int, src cvp.Source)) error {
	slots := make([]ringSlot, ringBatches)
	free := make(chan int, ringBatches)
	for i := range slots {
		slots[i].batch = cvp.MakeBatch(core.EmitBatch)
		free <- i
	}
	var genErr error
	readers := make([]*ringReader, n)
	var wg sync.WaitGroup
	for i := range readers {
		r := &ringReader{slots: slots, free: free, next: make(chan int, ringBatches), cur: -1, err: &genErr}
		readers[i] = r
		wg.Add(1)
		go func() {
			defer wg.Done()
			consume(i, r)
			r.drain()
		}()
	}
	for {
		i := <-free
		k, err := gen.NextBatch(slots[i].batch)
		if k > 0 {
			slots[i].n = k
			slots[i].readers.Store(int32(n))
			for _, r := range readers {
				r.next <- i
			}
		} else {
			free <- i
		}
		if err != nil {
			if err != io.EOF {
				genErr = err
			}
			break
		}
	}
	// genErr is written before the close each reader observes.
	for _, r := range readers {
		close(r.next)
	}
	wg.Wait()
	return genErr
}

// ringSlot is one batch of fanOut's ring.
type ringSlot struct {
	batch []cvp.Instruction
	n     int
	// readers counts the consumers yet to finish the batch; the last one
	// returns the slot to the free list.
	readers atomic.Int32
}

// ringReader is one consumer's cvp.Source over fanOut's batches. An
// instruction it returns stays valid until the next call.
type ringReader struct {
	slots []ringSlot
	free  chan<- int
	next  chan int // the slots to read, in order; closed at the end
	cur   int      // the slot being read, or -1
	pos   int
	err   *error
}

// Next implements cvp.Source.
func (r *ringReader) Next() (*cvp.Instruction, error) {
	for r.cur < 0 || r.pos >= r.slots[r.cur].n {
		r.release()
		i, ok := <-r.next
		if !ok {
			return nil, cmp.Or(*r.err, io.EOF)
		}
		r.cur, r.pos = i, 0
	}
	in := &r.slots[r.cur].batch[r.pos]
	r.pos++
	return in, nil
}

// release gives up the slot being read.
func (r *ringReader) release() {
	if r.cur >= 0 && r.slots[r.cur].readers.Add(-1) == 0 {
		r.free <- r.cur
	}
	r.cur = -1
}

// drain gives up every batch the consumer has not read.
func (r *ringReader) drain() {
	r.release()
	for r.cur = range r.next {
		r.release()
	}
}
