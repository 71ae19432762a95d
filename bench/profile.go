package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"
)

// This file measures where a span's CPU went: a CPU profile covering just
// that span, decoded here (the standard library writes the pprof format but
// has no reader) and folded by layer and simulator stage, next to the
// process's own CPU time from getrusage so the two can be reconciled.

// cpuSpan is a span being measured.
type cpuSpan struct {
	prof  bytes.Buffer
	start time.Time
	cpu   time.Duration
	gc    float64
}

// spanCPU is what one span used.
type spanCPU struct {
	Wall time.Duration
	// CPU is the process's user+system time over the span (getrusage).
	CPU time.Duration
	// GC is the runtime's estimate of GC CPU over the span.
	GC float64
	// Fold is the span's CPU profile folded by layer and stage.
	Fold fold
}

func startCPU() (*cpuSpan, error) {
	s := &cpuSpan{}
	if err := pprof.StartCPUProfile(&s.prof); err != nil {
		return nil, err
	}
	s.cpu, s.gc, s.start = processCPU(), gcCPU(), time.Now()
	return s, nil
}

func (s *cpuSpan) stop() (spanCPU, error) {
	out := spanCPU{Wall: time.Since(s.start), CPU: processCPU() - s.cpu, GC: gcCPU() - s.gc}
	pprof.StopCPUProfile()
	samples, err := parseProfile(s.prof.Bytes())
	if err != nil {
		return out, err
	}
	out.Fold = foldSamples(samples)
	return out, nil
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPU() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// fold is CPU time in seconds keyed by layer, and the sim layer's CPU keyed
// by stage.
type fold struct {
	Layers map[string]float64
	Stages map[string]float64
}

func (f *fold) add(o fold) {
	if f.Layers == nil {
		f.Layers, f.Stages = map[string]float64{}, map[string]float64{}
	}
	for k, v := range o.Layers {
		f.Layers[k] += v
	}
	for k, v := range o.Stages {
		f.Stages[k] += v
	}
}

func (f fold) total() float64 {
	var t float64
	for _, v := range f.Layers {
		t += v
	}
	return t
}

// sample is one decoded profile sample: CPU nanoseconds, the stack's
// function names, innermost first (inlined frames included), and whether
// the goroutine carried the benchmark's own pprof label.
type sample struct {
	cpu   int64
	stack []string
	bench bool
}

// benchLabel marks goroutines of the benchmark itself, such as the service
// load generator and the HTTP connections it opens; the label is inherited
// by every goroutine they start. Their CPU is folded into the "bench"
// layer, apart from the program's.
const benchLabel = "bench"

func foldSamples(samples []sample) fold {
	f := fold{Layers: map[string]float64{}, Stages: map[string]float64{}}
	for _, s := range samples {
		sec := float64(s.cpu) / 1e9
		layer := layerOf(s.stack)
		if s.bench {
			layer = benchLabel
		}
		f.Layers[layer] += sec
		if layer == "sim" {
			f.Stages[stageOf(s.stack)] += sec
		}
	}
	return f
}

const internalPrefix = "tracerebase/internal/"

// helperPackages hold code every layer calls (trace codecs, the record
// frame, statistics); their CPU belongs to the layer that called them.
var helperPackages = map[string]bool{"champtrace": true, "cvp": true, "frame": true, "stats": true}

// internalPackage returns the package path below tracerebase/internal/ of
// a profile function name such as
// "tracerebase/internal/sim/cpu.(*Pipeline).issue", and the rest of the
// name after the package ("(*Pipeline).issue").
func internalPackage(fn string) (pkg, rest string, ok bool) {
	name, found := strings.CutPrefix(fn, internalPrefix)
	if !found {
		return "", "", false
	}
	// A generic instantiation's type list may hold dots and slashes of its
	// own; the package ends at the first dot after the last slash before it.
	head := name
	if i := strings.IndexByte(head, '['); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/') + 1
	dot := strings.IndexByte(head[slash:], '.')
	if dot < 0 {
		return "", "", false
	}
	return name[:slash+dot], name[slash+dot+1:], true
}

// layerOf names the layer of the innermost frame in a layer package, or
// "runtime" when the stack has none.
func layerOf(stack []string) string {
	for _, fn := range stack {
		pkg, _, ok := internalPackage(fn)
		if !ok {
			continue
		}
		top, _, _ := strings.Cut(pkg, "/")
		if !helperPackages[top] {
			return top
		}
	}
	return "runtime"
}

// simPackageStages maps each package under internal/sim except sim/cpu to
// its stage; sim/cpu is split per function by cpuStages.
var simPackageStages = map[string]string{
	"sim":           "loop",
	"sim/mem":       "mem",
	"sim/bpred":     "bpred",
	"sim/btb":       "bpred",
	"sim/iprefetch": "iprefetch",
	"sim/dprefetch": "dprefetch",
	"sim/snap":      "snap",
}

// cpuStages maps every function and method of sim/cpu to the pipeline
// stage whose work it does. "" marks small helpers every stage calls:
// their CPU goes to the calling stage. TestCPUStagesCoverSimulator fails
// when sim/cpu gains a function this table does not name.
var cpuStages = map[string]string{
	"fetch": "fetch", "accessICache": "fetch", "issueIPrefetches": "fetch", "init": "fetch", "pop": "fetch",
	"bpuFill": "bpu", "processBranch": "bpu",
	"dispatch": "dispatch", "newUop": "dispatch",
	"issue": "issue", "depsReady": "issue",
	"execute": "execute", "pushStore": "execute", "forward": "execute",
	"retire": "retire",

	"Run": "loop", "pass": "loop", "jumpTo": "loop", "drained": "loop", "finalize": "loop",
	"beginMeasurement": "loop", "collectCacheStats": "loop", "runExactBody": "loop",
	"New": "loop", "newPipeline": "loop", "NewMulti": "loop", "Hierarchy": "loop", "Core": "loop",
	"Validate": "loop", "Identity": "loop", "WarmIdentity": "loop", "add": "loop",
	"IPC": "loop", "MPKI": "loop", "BranchMPKI": "loop", "DirMPKI": "loop", "TargetMPKI": "loop", "ReturnMPKI": "loop",

	"runSampled": "warm", "warmPrefix": "warm", "sampleLoop": "warm", "runDetailedInterval": "warm",
	"flushInflight": "warm", "warm": "warm", "warmInstr": "warm", "light": "warm", "lightInstr": "warm",
	"skip": "warm", "sampleRNG": "warm",

	"Checkpointable": "snap", "Checkpoint": "snap", "RestoreCheckpoint": "snap", "WarmTo": "snap", "RunFrom": "snap",

	"at": "", "wake": "", "nextPow2": "", "max64": "",
}

// funcBase strips the receiver and any closure suffix from the part of a
// function name after its package: "(*Pipeline).Run.func1" and
// "Config.Identity" (a value receiver) give "Run" and "Identity", while
// "Run.func1" and "init.0" give "Run" and "init".
func funcBase(rest string) string {
	rest = stripTypeArgs(rest)
	if strings.HasPrefix(rest, "(") {
		if i := strings.Index(rest, ")."); i >= 0 {
			rest = rest[i+2:]
		}
	} else if _, after, ok := strings.Cut(rest, "."); ok {
		if next, _, _ := strings.Cut(after, "."); !isClosureSuffix(next) {
			rest = after
		}
	}
	base, _, _ := strings.Cut(rest, ".")
	return base
}

// isClosureSuffix reports whether one dot-separated part of a function
// name is the compiler's name for a closure or an init function ("func2",
// "0", or empty as in "glob..func1") rather than a method name.
func isClosureSuffix(part string) bool {
	digits := strings.TrimPrefix(part, "func")
	return strings.Trim(digits, "0123456789") == ""
}

// stripTypeArgs removes the bracketed type arguments of generic
// instantiations, which may hold dots of their own.
func stripTypeArgs(s string) string {
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// stageOf names the simulator stage of a sample in the sim layer, or
// "unmapped" for a simulator function no table names.
func stageOf(stack []string) string {
	for _, fn := range stack {
		pkg, rest, ok := internalPackage(fn)
		if !ok || (pkg != "sim" && !strings.HasPrefix(pkg, "sim/")) {
			continue
		}
		if pkg != "sim/cpu" {
			if st, ok := simPackageStages[pkg]; ok {
				return st
			}
			return "unmapped"
		}
		st, ok := cpuStages[funcBase(rest)]
		if !ok {
			return "unmapped"
		}
		if st != "" {
			return st
		}
	}
	return "loop"
}

// parseProfile decodes a gzipped pprof CPU profile into samples.
func parseProfile(data []byte) ([]sample, error) {
	if len(data) == 0 {
		return nil, nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs, values, labelKeys []uint64
	}
	var (
		valueTypes []uint64 // string index of each value's type
		samples    []rawSample
		locLines   = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames  = map[uint64]uint64{}   // function id → string index
		strs       []string
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					valueTypes = append(valueTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					return appendPacked(&s.values, v, b)
				case 3: // label
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							s.labelKeys = append(s.labelKeys, v)
						}
						return nil
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpuIdx := -1
	for i, t := range valueTypes {
		if str(t) == "cpu" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]sample, 0, len(samples))
	for _, rs := range samples {
		if cpuIdx >= len(rs.values) {
			continue
		}
		s := sample{cpu: int64(rs.values[cpuIdx])}
		for _, k := range rs.labelKeys {
			s.bench = s.bench || str(k) == benchLabel
		}
		for _, loc := range rs.locs {
			for _, fn := range locLines[loc] {
				s.stack = append(s.stack, str(funcNames[fn]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField calls fn for every field of one protobuf message: the number
// and, by wire type, the varint value or the length-delimited bytes.
func eachField(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("wire type %d", wire)
		}
		if err := fn(num, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either as one
// value (v) or packed (data).
func appendPacked(dst *[]uint64, v uint64, data []byte) error {
	if data == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		data = data[n:]
	}
	return nil
}
