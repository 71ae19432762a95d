package conformance

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
	"tracerebase/internal/cvp"
	"tracerebase/internal/expstore"
	"tracerebase/internal/synth"
)

// seedCVPBytes encodes a short prefix of a synthetic public trace — the
// seed corpora put real-format, invariant-rich records in front of the
// fuzzers instead of leaving them to rediscover the format byte by byte.
func seedCVPBytes(t testing.TB, cat synth.Category, idx, n int) []byte {
	t.Helper()
	instrs, err := synth.PublicProfile(cat, idx).GenerateBatch(n)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := encodeCVP(instrs)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func addCVPSeeds(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00})
	for _, s := range []struct {
		cat synth.Category
		idx int
	}{
		{synth.ComputeInt, 0}, {synth.ComputeFP, 0}, {synth.Crypto, 0}, {synth.Server, 3},
	} {
		raw := seedCVPBytes(f, s.cat, s.idx, 64)
		f.Add(raw)
		f.Add(raw[:len(raw)/2]) // mid-record truncation
	}
}

// FuzzCVPDecode checks the CVP-1 decoder on arbitrary input: it must never
// panic or over-read, every record it accepts must satisfy Validate, and
// the accepted prefix must round-trip (decode→encode→decode fixed point).
func FuzzCVPDecode(f *testing.F) {
	addCVPSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		r := cvp.NewReader(bytes.NewReader(data))
		var instrs []cvp.Instruction
		for len(instrs) < 1<<14 {
			in, err := r.Next()
			if err != nil {
				break
			}
			if verr := in.Validate(); verr != nil {
				t.Fatalf("decoder accepted a record that fails Validate: %v\nrecord: %+v", verr, in)
			}
			instrs = append(instrs, *in)
		}
		if len(instrs) == 0 {
			return
		}
		if err := CheckCVPRoundTrip(instrs); err != nil {
			t.Fatalf("accepted prefix does not round-trip: %v", err)
		}
	})
}

// FuzzChampTraceDecode checks the ChampSim decoder: no panics, scalar and
// batch decoding agree record for record, and the accepted records
// round-trip through encode/decode.
func FuzzChampTraceDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(make([]byte, champtrace.RecordSize-1))
	f.Add(make([]byte, champtrace.RecordSize+3))
	for _, idx := range []int{0, 3} {
		instrs, err := synth.PublicProfile(synth.Server, idx).GenerateBatch(32)
		if err != nil {
			f.Fatal(err)
		}
		recs, _, err := convertAllImps(instrs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(encodeChamp(recs))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		scalar := champtrace.NewReader(bytes.NewReader(data))
		var recs []champtrace.Instruction
		for len(recs) < 1<<14 {
			in, err := scalar.Next()
			if err != nil {
				break
			}
			recs = append(recs, *in)
		}

		batch := champtrace.NewReader(bytes.NewReader(data))
		dst := champtrace.MakeBatch(5)
		i := 0
		for {
			n, err := batch.NextBatch(dst)
			for k := 0; k < n && i < len(recs); k, i = k+1, i+1 {
				if dst[k] != recs[i] {
					t.Fatalf("batch decode diverges from scalar at record %d", i)
				}
			}
			if err != nil || n == 0 || i >= len(recs) {
				break
			}
		}
		if i != len(recs) {
			t.Fatalf("batch decode yielded %d records, scalar %d", i, len(recs))
		}

		if len(recs) == 0 {
			return
		}
		if err := CheckChampRoundTrip(recs); err != nil {
			t.Fatalf("accepted prefix does not round-trip: %v", err)
		}
	})
}

// seedExpBlock writes one real experiment-store block and returns its
// on-disk bytes, so the fuzzer starts from a valid frame and rows instead
// of rediscovering the format.
func seedExpBlock(f *testing.F, n int) []byte {
	f.Helper()
	dir := f.TempDir()
	store, err := expstore.Open(expstore.Config{Dir: dir, BlockCells: n})
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < n; i++ {
		c := expstore.Cell{
			Trace: "srv_" + string(rune('a'+i%3)), Category: "srv",
			Variant: "All_imps", Config: "develop", Prefetcher: "none",
			ROB: uint64(128 + i), Cores: 1, Instructions: 4000, Warmup: 500,
			IPC: 1.25 + float64(i)/16,
		}
		c.Key[0], c.Key[31] = byte(i), byte(i*7)
		c.Sim.Instructions = 4000
		c.Sim.Cycles = uint64(3000 + 100*i)
		c.Conv.In = 4000
		if err := store.Append(c); err != nil {
			f.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		f.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, "*.expb"))
	if err != nil || len(matches) == 0 {
		f.Fatalf("no block written: %v", err)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		f.Fatal(err)
	}
	return raw
}

// FuzzExpBlockDecode checks the experiment-store block decoder on
// arbitrary input: it must never panic or over-read, and whatever it
// accepts must re-encode to the same bytes.
func FuzzExpBlockDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("EXPB"))
	f.Add(make([]byte, 4096))
	for _, n := range []int{1, 5} {
		raw := seedExpBlock(f, n)
		f.Add(raw)
		f.Add(raw[:len(raw)/2]) // mid-row truncation
		flipped := bytes.Clone(raw)
		flipped[len(flipped)/2] ^= 0xff
		f.Add(flipped)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cells, err := expstore.DecodeBlock(data)
		if err != nil {
			return
		}
		if len(cells) == 0 {
			t.Fatal("decoder accepted a block with zero cells")
		}
		if !bytes.Equal(expstore.EncodeBlock(cells), data) {
			t.Fatal("an accepted block re-encodes to other bytes")
		}
	})
}

// FuzzConvert checks the converter as a differential oracle: for any
// decodable CVP-1 prefix and any improvement combination, the scalar,
// batch, and pooled streaming convert paths must agree exactly and never
// panic.
func FuzzConvert(f *testing.F) {
	for _, s := range []struct {
		cat synth.Category
		idx int
	}{
		{synth.ComputeInt, 0}, {synth.Server, 3},
	} {
		raw := seedCVPBytes(f, s.cat, s.idx, 48)
		for _, bits := range []uint8{0x00, 0x07, 0x38, 0x3f, 0x15} {
			f.Add(raw, bits)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, optBits uint8) {
		r := cvp.NewReader(bytes.NewReader(data))
		var instrs []cvp.Instruction
		for len(instrs) < 1<<12 {
			in, err := r.Next()
			if err != nil {
				break
			}
			instrs = append(instrs, *in)
		}
		if len(instrs) == 0 {
			return
		}
		if err := CheckConvertPaths(instrs, core.OptionsFromBits(optBits)); err != nil {
			t.Fatalf("convert paths diverge under %s: %v", core.OptionsFromBits(optBits), err)
		}
	})
}
