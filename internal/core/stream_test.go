package core

import (
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/cvp"
)

func testCVPStream(n int, seed int64) []*cvp.Instruction {
	r := rand.New(rand.NewSource(seed))
	instrs := make([]*cvp.Instruction, n)
	pc := uint64(0x400000)
	for i := range instrs {
		instrs[i] = randomCVPInstr(r, pc)
		pc += 4
	}
	return instrs
}

// TestConverterSourceMatchesConvertAll: for every improvement set, the
// streaming converter yields record-for-record what the materializing
// ConvertAll produces, with matching statistics, and the record pointers
// survive the simulator-style one-instruction lookback.
func TestConverterSourceMatchesConvertAll(t *testing.T) {
	instrs := testCVPStream(3000, 7)
	for _, opts := range allOptionSets() {
		want, wantStats, err := ConvertAll(cvp.NewSliceSource(instrs), opts)
		if err != nil {
			t.Fatal(err)
		}
		cs := NewConverterSource(cvp.NewSliceSource(instrs), opts)
		var prev, prevWant *champtrace.Instruction
		for i := 0; ; i++ {
			rec, err := cs.Next()
			if err == io.EOF {
				if i != len(want) {
					t.Fatalf("%+v: EOF after %d records, want %d", opts, i, len(want))
				}
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if i >= len(want) {
				t.Fatalf("%+v: stream longer than ConvertAll (%d+)", opts, i)
			}
			if !reflect.DeepEqual(*rec, *want[i]) {
				t.Fatalf("%+v: record %d differs:\ngot  %+v\nwant %+v", opts, i, rec, want[i])
			}
			// Double-buffer contract: the previous pointer is still intact.
			if prev != nil && !reflect.DeepEqual(*prev, *prevWant) {
				t.Fatalf("%+v: pointer for record %d was clobbered", opts, i-1)
			}
			prev, prevWant = rec, want[i]
		}
		if got := cs.Stats(); got != wantStats {
			t.Fatalf("%+v: stats differ:\ngot  %+v\nwant %+v", opts, got, wantStats)
		}
		cs.Close()
		if _, err := cs.Next(); err != io.EOF {
			t.Fatalf("post-Close Next error = %v, want io.EOF", err)
		}
	}
}

// TestConverterSourceNextBatch: the batch path delivers the same records
// with copy semantics.
func TestConverterSourceNextBatch(t *testing.T) {
	instrs := testCVPStream(1500, 8)
	want, _, err := ConvertAll(cvp.NewSliceSource(instrs), OptionsAll())
	if err != nil {
		t.Fatal(err)
	}
	cs := NewConverterSource(cvp.NewSliceSource(instrs), OptionsAll())
	defer cs.Close()
	slab := champtrace.MakeBatch(100) // deliberately not a divisor of the output length
	got := 0
	for {
		n, err := cs.NextBatch(slab)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if got >= len(want) {
				t.Fatalf("batch stream longer than ConvertAll (%d+)", got)
			}
			if !reflect.DeepEqual(slab[i], *want[got]) {
				t.Fatalf("record %d differs", got)
			}
			got++
		}
	}
	if got != len(want) {
		t.Fatalf("batch stream yielded %d records, want %d", got, len(want))
	}
}

// TestConvertAllBatchMatchesConvertAll: the value-slab converter output is
// record-for-record identical to the boxed ConvertAll.
func TestConvertAllBatchMatchesConvertAll(t *testing.T) {
	instrs := testCVPStream(2000, 9)
	for _, opts := range allOptionSets() {
		want, wantStats, err := ConvertAll(cvp.NewSliceSource(instrs), opts)
		if err != nil {
			t.Fatal(err)
		}
		got, gotStats, err := ConvertAllBatch(cvp.NewSliceSource(instrs), opts)
		if err != nil {
			t.Fatal(err)
		}
		if gotStats != wantStats {
			t.Fatalf("%+v: stats differ", opts)
		}
		if len(got) != len(want) {
			t.Fatalf("%+v: %d records, want %d", opts, len(got), len(want))
		}
		for i := range got {
			if !reflect.DeepEqual(got[i], *want[i]) {
				t.Fatalf("%+v: record %d differs", opts, i)
			}
		}
	}
}

// TestConvertEmit: the batched-emit converter hands over ConvertAllBatch's
// records in order, in full batches of at most EmitBatch, and stops at the
// first error emit returns.
func TestConvertEmit(t *testing.T) {
	instrs := testCVPStream(3*EmitBatch, 11)
	for _, opts := range allOptionSets() {
		want, wantStats, err := ConvertAllBatch(cvp.NewSliceSource(instrs), opts)
		if err != nil {
			t.Fatal(err)
		}
		var got []champtrace.Instruction
		var sizes []int
		gotStats, err := ConvertEmit(cvp.NewSliceSource(instrs), opts, func(batch []champtrace.Instruction) error {
			sizes = append(sizes, len(batch))
			got = append(got, batch...)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if gotStats != wantStats || !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: emitted records or stats differ from ConvertAllBatch", opts)
		}
		for i, n := range sizes {
			if n == 0 || n > EmitBatch || i < len(sizes)-1 && n < EmitBatch-1 {
				t.Fatalf("%+v: batch sizes %v", opts, sizes)
			}
		}
	}

	stop := errors.New("stop")
	calls := 0
	_, err := ConvertEmit(cvp.NewSliceSource(instrs), OptionsAll(), func([]champtrace.Instruction) error {
		calls++
		return stop
	})
	if err != stop || calls != 1 {
		t.Fatalf("emit error: got %v after %d calls, want it returned after 1", err, calls)
	}
}
