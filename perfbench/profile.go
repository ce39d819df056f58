package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// Self-time layers of the CPU profile. Each sample is charged to the
// innermost godsm frame on its stack, so runtime callees such as map
// lookups and channel handoff count toward their caller's layer. Samples in
// the garbage collector go to runtime.gc; samples with no godsm frame at
// all (the scheduler, idle runtime work) to runtime.other; samples in the
// benchmark's own code (mostly its event sink and Send wrapper, which exist
// only in traced runs) and the harness helpers it calls to bench.
var selfLayers = []string{
	"apps", "core", "event", "lrc", "netsim", "pagemem", "proto", "race", "sim",
	"bench", "runtime.gc", "runtime.other",
}

// accessFunc is the shared-memory access path whose cumulative time
// core.access_s reports.
const accessFunc = "godsm/internal/core.(*Env).access"

// profileSplit is a CPU profile bucketed by layer.
type profileSplit struct {
	self   map[string]int64 // layer → self CPU ns
	access int64            // CPU ns with accessFunc on the stack
	total  int64            // CPU ns of every sample
}

// splitProfile buckets a gzipped profile.proto CPU profile by layer.
func splitProfile(data []byte) (profileSplit, error) {
	samples, err := decodeProfile(data)
	if err != nil {
		return profileSplit{}, err
	}
	p := profileSplit{self: map[string]int64{}}
	for _, s := range samples {
		p.total += s.ns
		p.self[layerOfStack(s.stack)] += s.ns
		for _, fn := range s.stack {
			if fn == accessFunc {
				p.access += s.ns
				break
			}
		}
	}
	return p, nil
}

func (p *profileSplit) add(o profileSplit) {
	p.total += o.total
	p.access += o.access
	for _, l := range selfLayers {
		p.self[l] += o.self[l]
	}
}

// layerOfStack returns the layer a leaf-first stack is charged to.
func layerOfStack(stack []string) string {
	for _, fn := range stack {
		if isGC(fn) {
			return "runtime.gc"
		}
	}
	for _, fn := range stack {
		if layer, ok := layerOfFunc(fn); ok {
			return layer
		}
	}
	return "runtime.other"
}

func isGC(fn string) bool {
	switch fn {
	case "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone", "runtime.markroot":
		return true
	}
	return strings.HasPrefix(fn, "runtime.gc")
}

// layerOfFunc maps a godsm function to its layer: the repo's module names,
// with stats folded into event and the public dsm facade into core. The
// only other godsm code in the process is the benchmark itself and the
// harness helpers it calls.
func layerOfFunc(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, "godsm/")
	if !ok {
		return "", false
	}
	pkg, _, _ := strings.Cut(rest, ".")
	pkg = strings.TrimPrefix(pkg, "internal/")
	switch pkg {
	case "stats":
		return "event", true
	case "dsm":
		return "core", true
	case "apps", "core", "event", "lrc", "netsim", "pagemem", "proto", "race", "sim":
		return pkg, true
	}
	return "bench", true
}

// profSample is one profile sample: its CPU time and its stack as function
// names, innermost first (inlined frames included).
type profSample struct {
	ns    int64
	stack []string
}

// decodeProfile reads the samples of a gzipped profile.proto (the format
// runtime/pprof writes), decoding only the fields the split needs.
func decodeProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs       []string
		valueTypes [][2]uint64 // (type, unit) string indices
		rawSamples [][]byte
		funcName   = map[uint64]uint64{}   // function id → name string index
		locFuncs   = map[uint64][]uint64{} // location id → function ids, innermost first
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			var vt [2]uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 || n == 2 {
					vt[n-1] = v
				}
				return nil
			})
			valueTypes = append(valueTypes, vt)
			return err
		case 2: // sample
			rawSamples = append(rawSamples, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(n int, v uint64, lb []byte) error {
				if n == 1 {
					id = v
				} else if n == 4 { // line
					return eachField(lb, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					id = v
				} else if n == 2 {
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpuIdx := -1
	for i, vt := range valueTypes {
		if str(vt[0]) == "cpu" && str(vt[1]) == "nanoseconds" {
			cpuIdx = i
		}
	}
	if cpuIdx < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	var out []profSample
	for _, sb := range rawSamples {
		var locs, vals []uint64
		err := eachField(sb, func(n int, v uint64, b []byte) error {
			switch n {
			case 1:
				locs = appendVarints(locs, v, b)
			case 2:
				vals = appendVarints(vals, v, b)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		if cpuIdx >= len(vals) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		s := profSample{ns: int64(vals[cpuIdx])}
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				s.stack = append(s.stack, str(funcName[f]))
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// appendVarints appends a repeated integer field's value: v when it was
// encoded unpacked, every varint of b when packed.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

// eachField calls fn for every field of a protobuf message: varint and
// fixed-width fields pass their value with a nil b, length-delimited fields
// their bytes (non-nil, possibly empty).
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1, 5:
			size := 8
			if wire == 5 {
				size = 4
			}
			if len(msg) < size {
				return errors.New("profile: truncated fixed field")
			}
			for i := size - 1; i >= 0; i-- {
				v = v<<8 | uint64(msg[i])
			}
			msg = msg[size:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: truncated field")
			}
			b = msg[n : n+int(l) : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// metrics returns the profile's per-layer self times, the access path's
// cumulative time, and the profiled total, by metric name. Each figure is
// its share of the samples times cpu, the CPU time the profile covered as
// the process measured it, so the self times add up to profile.total_s and
// do not carry the sampling period's granularity.
func (p profileSplit) metrics(cpu time.Duration) map[string]metric {
	share := func(ns int64) float64 {
		if p.total == 0 {
			return 0
		}
		return cpu.Seconds() * float64(ns) / float64(p.total)
	}
	out := map[string]metric{
		"core.access_s":   {share(p.access), "cpu_s"},
		"profile.total_s": {cpu.Seconds(), "cpu_s"},
	}
	for _, l := range selfLayers {
		name := l + ".self_s"
		if l == "runtime.gc" {
			name = "runtime.gc_s"
		} else if l == "runtime.other" {
			name = "runtime.other_s"
		}
		out[name] = metric{share(p.self[l]), "cpu_s"}
	}
	return out
}
