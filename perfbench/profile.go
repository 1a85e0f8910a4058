package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
)

// profModules are the layers whose CPU-profile share is reported as
// prof.<module>; everything else (the benchmark itself, sort, sync, ...)
// is prof.other.
var profModules = []string{"sim", "workload", "cpu", "cache", "memctrl", "dram", "power", "core", "trace", "checkpoint", "runtime"}

// profiled runs fn under the CPU profiler and returns each module's share
// of the sampled CPU time, attributed to the innermost frame of each
// sample (inlined frames included, so core's mask algebra inlined into
// memctrl counts as core).
func profiled(fn func()) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("start CPU profile: %w", err)
	}
	fn()
	pprof.StopCPUProfile()
	return profileShares(buf.Bytes())
}

// moduleOf maps a function name from the profile to its module.
func moduleOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "pradram/internal/"); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			rest = rest[:i]
		}
		for _, m := range profModules {
			if m == rest {
				return m
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// profileShares decodes a gzipped pprof CPU profile (profile.proto) with a
// minimal protobuf reader, enough for samples, locations and functions.
func profileShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		loc   uint64
		value int64
	}
	var (
		samples  []sample
		locFn    = map[uint64]uint64{} // location id -> innermost function id
		fnName   = map[uint64]int64{}  // function id -> string index
		strtab   []string
		valueIdx = 1 // CPU profiles carry [samples, cpu-nanoseconds]
	)
	err = pbFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var locs []uint64
			var vals []int64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return pbRepeated(v, b, func(x uint64) { locs = append(locs, x) })
				case 2:
					return pbRepeated(v, b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, sample{locs[0], vals[min(valueIdx, len(vals)-1)]})
			}
		case 4: // Location
			var id, fn uint64
			seenLine := false
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					if seenLine {
						return nil // the first line is the innermost inlined frame
					}
					seenLine = true
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFn[id] = fn
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string table
			strtab = append(strtab, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	sums := map[string]int64{}
	var total int64
	for _, s := range samples {
		name := ""
		if si, ok := fnName[locFn[s.loc]]; ok && si >= 0 && si < int64(len(strtab)) {
			name = strtab[si]
		}
		sums[moduleOf(name)] += s.value
		total += s.value
	}
	shares := map[string]float64{}
	for _, m := range append(profModules, "other") {
		shares[m] = ratio(float64(sums[m]), float64(total))
	}
	return shares, nil
}

var errProto = errors.New("malformed protobuf")

// pbFields walks the fields of one protobuf message, passing varint
// values as v and length-delimited payloads as b.
func pbFields(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := pbVarint(data)
		if n == 0 {
			return errProto
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = pbVarint(data)
			if n == 0 {
				return errProto
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errProto
			}
			data = data[8:]
			continue
		case 2:
			l, n := pbVarint(data)
			if n == 0 || uint64(len(data)-n) < l {
				return errProto
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errProto
			}
			data = data[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbRepeated handles a repeated integer field in either encoding: one
// varint (b == nil) or a packed run of varints.
func pbRepeated(v uint64, b []byte, add func(uint64)) error {
	if b == nil {
		add(v)
		return nil
	}
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n == 0 {
			return errProto
		}
		add(x)
		b = b[n:]
	}
	return nil
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
