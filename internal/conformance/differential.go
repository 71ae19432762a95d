package conformance

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
	"tracerebase/internal/cvp"
	"tracerebase/internal/experiments"
)

// CVPEqual reports whether two CVP-1 instruction records are semantically
// identical (field-wise, with slice contents compared by value).
func CVPEqual(a, b *cvp.Instruction) bool {
	return a.PC == b.PC && a.Class == b.Class &&
		a.EffAddr == b.EffAddr && a.MemSize == b.MemSize &&
		a.Taken == b.Taken && a.Target == b.Target &&
		slices.Equal(a.SrcRegs, b.SrcRegs) &&
		slices.Equal(a.DstRegs, b.DstRegs) &&
		slices.Equal(a.DstValues, b.DstValues)
}

// CheckCVPRoundTrip encodes the slab in the CVP-1 binary format, decodes it
// back, and requires the result to be record-for-record identical. Because
// the hardened Reader validates everything it accepts, this also proves the
// slab is encodable in the first place.
func CheckCVPRoundTrip(instrs []cvp.Instruction) error {
	var buf bytes.Buffer
	w := cvp.NewWriter(&buf)
	for i := range instrs {
		if err := w.Write(&instrs[i]); err != nil {
			return fmt.Errorf("encode record %d: %w", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	firstPass := buf.Bytes()

	r := cvp.NewReader(bytes.NewReader(firstPass))
	var reenc bytes.Buffer
	w2 := cvp.NewWriter(&reenc)
	for i := range instrs {
		got, err := r.Next()
		if err != nil {
			return fmt.Errorf("decode record %d: %w", i, err)
		}
		if !CVPEqual(got, &instrs[i]) {
			return fmt.Errorf("record %d changed across encode/decode:\n got  %+v\n want %+v", i, got, instrs[i])
		}
		if err := w2.Write(got); err != nil {
			return fmt.Errorf("re-encode record %d: %w", i, err)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		return fmt.Errorf("stream has trailing data after %d records (err %v)", len(instrs), err)
	}
	if err := w2.Flush(); err != nil {
		return err
	}
	if !bytes.Equal(firstPass, reenc.Bytes()) {
		return fmt.Errorf("decode→encode is not a fixed point: %d vs %d bytes", len(firstPass), reenc.Len())
	}
	return nil
}

// CheckChampRoundTrip encodes converted records in the ChampSim binary
// format and decodes them back, via both the scalar and the batch reader,
// requiring all three views to agree.
func CheckChampRoundTrip(recs []champtrace.Instruction) error {
	var buf bytes.Buffer
	w := champtrace.NewWriter(&buf)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			return fmt.Errorf("encode record %d: %w", i, err)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	raw := buf.Bytes()

	r := champtrace.NewReader(bytes.NewReader(raw))
	for i := range recs {
		got, err := r.Next()
		if err != nil {
			return fmt.Errorf("decode record %d: %w", i, err)
		}
		if *got != recs[i] {
			return fmt.Errorf("record %d changed across encode/decode:\n got  %+v\n want %+v", i, *got, recs[i])
		}
	}
	if _, err := r.Next(); err != io.EOF {
		return fmt.Errorf("trailing data after %d records (err %v)", len(recs), err)
	}

	// Batch decode with a deliberately awkward batch size so final short
	// batches and mid-batch refills are both exercised.
	br := champtrace.NewReader(bytes.NewReader(raw))
	dst := champtrace.MakeBatch(7)
	i := 0
	for {
		n, err := br.NextBatch(dst)
		for k := 0; k < n; k++ {
			if i >= len(recs) {
				return fmt.Errorf("batch decode yielded more than %d records", len(recs))
			}
			if dst[k] != recs[i] {
				return fmt.Errorf("batch decode diverges from scalar at record %d", i)
			}
			i++
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("batch decode: %w", err)
		}
	}
	if i != len(recs) {
		return fmt.Errorf("batch decode yielded %d of %d records", i, len(recs))
	}
	return nil
}

// CheckConvertPaths converts the slab under opts through every redundant
// converter path — scalar Convert, ConvertAppend via ConvertAllBatch, the
// pooled streaming ConverterSource (both its Next and NextBatch faces), and
// the batched-emit ConvertEmit that fills slab files — and requires
// record-for-record and stats-for-stats agreement.
func CheckConvertPaths(instrs []cvp.Instruction, opts core.Options) error {
	scalar, scalarStats, err := core.ConvertAll(cvp.NewValuesSource(instrs), opts)
	if err != nil {
		return fmt.Errorf("scalar convert: %w", err)
	}
	batch, batchStats, err := core.ConvertAllBatch(cvp.NewValuesSource(instrs), opts)
	if err != nil {
		return fmt.Errorf("batch convert: %w", err)
	}
	if len(scalar) != len(batch) {
		return fmt.Errorf("Convert produced %d records, ConvertAppend %d", len(scalar), len(batch))
	}
	for i := range batch {
		if *scalar[i] != batch[i] {
			return fmt.Errorf("Convert and ConvertAppend diverge at record %d:\n scalar %+v\n batch  %+v", i, *scalar[i], batch[i])
		}
	}
	if scalarStats != batchStats {
		return fmt.Errorf("converter stats diverge:\n scalar %+v\n batch  %+v", scalarStats, batchStats)
	}

	// Streaming pull path, record at a time.
	cs := core.NewConverterSource(cvp.NewValuesSource(instrs), opts)
	defer cs.Close()
	for i := range batch {
		rec, err := cs.Next()
		if err != nil {
			return fmt.Errorf("streaming convert: record %d: %w", i, err)
		}
		if *rec != batch[i] {
			return fmt.Errorf("ConverterSource.Next diverges from ConvertAppend at record %d", i)
		}
	}
	if _, err := cs.Next(); err != io.EOF {
		return fmt.Errorf("streaming convert: trailing records after %d (err %v)", len(batch), err)
	}
	if st := cs.Stats(); st != batchStats {
		return fmt.Errorf("ConverterSource stats diverge:\n stream %+v\n batch  %+v", st, batchStats)
	}

	// Streaming batch path with an awkward batch size.
	cb := core.NewConverterSource(cvp.NewValuesSource(instrs), opts)
	defer cb.Close()
	dst := champtrace.MakeBatch(13)
	i := 0
	for {
		n, err := cb.NextBatch(dst)
		for k := 0; k < n; k++ {
			if i >= len(batch) {
				return fmt.Errorf("ConverterSource.NextBatch yielded more than %d records", len(batch))
			}
			if dst[k] != batch[i] {
				return fmt.Errorf("ConverterSource.NextBatch diverges at record %d", i)
			}
			i++
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("streaming batch convert: %w", err)
		}
	}
	if i != len(batch) {
		return fmt.Errorf("ConverterSource.NextBatch yielded %d of %d records", i, len(batch))
	}

	// Batched emit, the slab store's write path.
	i = 0
	emitStats, err := core.ConvertEmit(cvp.NewValuesSource(instrs), opts, func(recs []champtrace.Instruction) error {
		if len(recs) == 0 || len(recs) > core.EmitBatch {
			return fmt.Errorf("emitted a batch of %d records", len(recs))
		}
		for _, rec := range recs {
			if i >= len(batch) {
				return fmt.Errorf("yielded more than %d records", len(batch))
			}
			if rec != batch[i] {
				return fmt.Errorf("diverges from ConvertAppend at record %d", i)
			}
			i++
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("ConvertEmit: %w", err)
	}
	if i != len(batch) {
		return fmt.Errorf("ConvertEmit yielded %d of %d records", i, len(batch))
	}
	if emitStats != batchStats {
		return fmt.Errorf("ConvertEmit stats diverge:\n emit  %+v\n batch %+v", emitStats, batchStats)
	}
	return nil
}

// convertAllImps converts the slab under every improvement — the richest
// record mix (micro-op splits, cross-line addresses, patched branch rules).
func convertAllImps(instrs []cvp.Instruction) ([]champtrace.Instruction, core.Stats, error) {
	return core.ConvertAllBatch(cvp.NewValuesSource(instrs), core.OptionsAll())
}

// CheckTrace runs the full differential battery on one CVP-1 instruction
// slab: codec round trips plus converter path agreement under every variant
// in vs (nil = the ten evaluation variants).
func CheckTrace(instrs []cvp.Instruction, vs []experiments.Variant) error {
	if vs == nil {
		vs = experiments.Variants()
	}
	if err := CheckCVPRoundTrip(instrs); err != nil {
		return fmt.Errorf("cvp round trip: %w", err)
	}
	for _, v := range vs {
		if err := CheckConvertPaths(instrs, v.Opts); err != nil {
			return fmt.Errorf("variant %s: %w", v.Name, err)
		}
	}
	// The ChampSim codec round trip only needs one conversion; use the
	// richest record mix (All_imps splits micro-ops and adds cross-line
	// addresses).
	recs, _, err := convertAllImps(instrs)
	if err != nil {
		return err
	}
	if err := CheckChampRoundTrip(recs); err != nil {
		return fmt.Errorf("champtrace round trip: %w", err)
	}
	return nil
}
