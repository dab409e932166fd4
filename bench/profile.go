package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// The budget: every CPU-profile sample and every sampled allocation is
// charged to one layer, so that cpu_share.* x cpu_us_per_op is the µs per
// committed operation each layer costs.

// pkgLayer maps a unidir/internal package to its budget layer. Packages
// not listed (syncx, types, cluster, ...) decide nothing: the walk goes on
// to their caller.
var pkgLayer = map[string]string{
	"sig":              "sig",
	"sig/fastverify":   "sig",
	"trusted/trinc":    "trusted",
	"trusted/ctrstore": "trusted",
	"tcpnet":           "tcpnet",
	"transport":        "tcpnet",
	"wire":             "wire",
	"smr":              "smr",
	"minbft":           "order",
	"pbft":             "order",
	"kvstore":          "kvstore",
	"obs":              "obs",
	"obs/tracing":      "obs",
	"obs/knob":         "obs",
}

// frameLayer returns the layer a function's frame decides, or "".
func frameLayer(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "unidir/internal/")
	if !ok {
		return ""
	}
	// Package path segments hold no dot, so the first one ends the path
	// (type parameters, which may hold slashes and dots, come after it).
	pkg, _, _ := strings.Cut(rest, ".")
	return pkgLayer[pkg]
}

// stackLayer charges one stack (leaf first) to the first frame, walking up
// from the leaf, that belongs to a layer: crypto/ed25519 under sig lands on
// sig, write(2) under the tcpnet sender on tcpnet. A stack with no such
// frame (scheduler, GC, netpoll) is the runtime's.
func stackLayer(stack []string) string {
	for _, fn := range stack {
		if l := frameLayer(fn); l != "" {
			return l
		}
	}
	return "runtime"
}

// stackSample is one profile entry: a stack, leaf first, and its weight.
type stackSample struct {
	stack  []string
	weight float64
}

// shares attributes the samples to layers and normalises to 1.
func shares(samples []stackSample) map[string]float64 {
	out := make(map[string]float64, len(layers))
	var total float64
	for _, s := range samples {
		out[stackLayer(s.stack)] += s.weight
		total += s.weight
	}
	if total > 0 {
		for l := range out {
			out[l] /= total
		}
	}
	return out
}

// --- allocation profile ---

type memKey [32]uintptr

// memProfile returns the sampled allocation counts by stack since process
// start, scaled back to estimated objects the way pprof does.
func memProfile() map[memKey]float64 {
	n, _ := runtime.MemProfile(nil, true)
	var recs []runtime.MemProfileRecord
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
	}
	out := make(map[memKey]float64, len(recs))
	rate := float64(runtime.MemProfileRate)
	for _, r := range recs {
		if r.AllocObjects == 0 {
			continue
		}
		objs := float64(r.AllocObjects)
		if rate > 1 {
			// A size-s object is sampled with probability 1-exp(-s/rate).
			avg := float64(r.AllocBytes) / objs
			objs /= 1 - math.Exp(-avg/rate)
		}
		out[memKey(r.Stack0)] += objs
	}
	return out
}

// allocSamples turns the growth between two memProfile calls into stack
// samples.
func allocSamples(before, after map[memKey]float64) []stackSample {
	var out []stackSample
	for k, v := range after {
		d := v - before[k]
		if d <= 0 {
			continue
		}
		pcs := k[:]
		for i, pc := range pcs {
			if pc == 0 {
				pcs = pcs[:i]
				break
			}
		}
		var stack []string
		frames := runtime.CallersFrames(pcs)
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		out = append(out, stackSample{stack: stack, weight: d})
	}
	return out
}

// --- CPU profile ---

// parseCPUProfile decodes the gzipped pprof protobuf runtime/pprof writes
// into stack samples weighted by CPU time. Only the fields the attribution
// needs are read: samples, locations (with inlined lines), function names.
func parseCPUProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []uint64
	}
	var (
		samples []rawSample
		locs    = make(map[uint64][]uint64) // location id -> function ids, innermost first
		funcs   = make(map[uint64]uint64)   // function id -> name string index
		strs    []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			if err := eachField(b, func(f int, v uint64, p []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, p)
				case 2:
					s.vals = appendVarints(s.vals, v, p)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := eachField(b, func(f int, v uint64, p []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(p, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locs[id] = fns
		case 5: // Function
			var id, name uint64
			if err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcs[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		if len(s.vals) == 0 {
			continue
		}
		ss := stackSample{weight: float64(s.vals[len(s.vals)-1])} // cpu nanoseconds
		for _, l := range s.locs {
			for _, fn := range locs[l] {
				if i := funcs[fn]; i < uint64(len(strs)) {
					ss.stack = append(ss.stack, strs[i])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number and its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n == 0 {
			return errTruncated
		}
		b = b[n:]
		var v uint64
		var data []byte
		switch key & 7 {
		case 0:
			if v, n = uvarint(b); n == 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n == 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, data); err != nil {
			return err
		}
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var v uint64
	for i := 0; i < len(b) && i < 10; i++ {
		v |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return v, i + 1
		}
	}
	return 0, 0
}

// appendVarints appends a repeated integer field's content: one value when
// it came unpacked, every varint of packed when it came packed.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := uvarint(packed)
		if n == 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
