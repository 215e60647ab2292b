package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuBuckets are the CPU-share buckets the traced run reports, in output
// order. Each is a repro/internal module (core is folded into engine),
// except:
//   - hash: every sample with kvcache.BlockHashes on its stack;
//   - facade: the root package (prefillonly);
//   - harness: the benchmark's own frames;
//   - gc: background GC work with no repo frame on the stack;
//   - runtime: other runtime work with no repo frame (scheduler, timers);
//   - other: everything else, including the remaining small internal
//     modules (trace, timeseries, hw, model, ...). This is the only
//     unattributed bucket.
var cpuBuckets = []string{
	"hash", "kvcache", "sched", "router", "cluster", "engine", "graph", "jct",
	"sim", "autoscale", "server", "tokenizer", "workload", "memory", "metrics",
	"facade", "harness", "gc", "runtime", "other",
}

// moduleBucket maps a repro/internal module directory to its bucket.
func moduleBucket(mod string) string {
	if mod == "core" {
		return "engine"
	}
	for _, b := range cpuBuckets {
		if b == mod {
			return mod
		}
	}
	return "other"
}

// gcFramePrefixes mark runtime frames that belong to the collector's
// background work rather than to whatever goroutine was running.
var gcFramePrefixes = []string{
	"runtime.gc", "runtime._GC", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.markroot", "runtime.scanobject", "runtime.sweepone",
}

// attribute charges one sample to a bucket. stack lists function names
// innermost first, inlined frames included. Runtime frames (map access,
// allocation, GC assists) below a repo frame are charged to that repo
// frame, so the innermost repo frame decides.
func attribute(stack []string) string {
	for _, f := range stack {
		if f == "repro/internal/kvcache.BlockHashes" {
			return "hash"
		}
	}
	for _, f := range stack {
		switch {
		case strings.HasPrefix(f, "repro/internal/"):
			rest := f[len("repro/internal/"):]
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return moduleBucket(rest[:i])
			}
		case strings.HasPrefix(f, "repro."):
			return "facade"
		case strings.HasPrefix(f, "main."), strings.HasPrefix(f, "repro/perfbench"):
			return "harness"
		}
	}
	for _, f := range stack {
		for _, p := range gcFramePrefixes {
			if strings.HasPrefix(f, p) {
				return "gc"
			}
		}
	}
	for _, f := range stack {
		if strings.HasPrefix(f, "runtime.") {
			return "runtime"
		}
	}
	return "other"
}

// cpuShares decodes runtime/pprof CPU profiles (gzipped profile.proto)
// and returns each bucket's share of their samples and the sample count.
func cpuShares(profiles [][]byte) (map[string]float64, int64, error) {
	counts := map[string]int64{}
	var total int64
	var stack []string
	for _, gz := range profiles {
		zr, err := gzip.NewReader(bytes.NewReader(gz))
		if err != nil {
			return nil, 0, fmt.Errorf("cpu profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, 0, fmt.Errorf("cpu profile: %w", err)
		}
		p, err := parseProfile(raw)
		if err != nil {
			return nil, 0, fmt.Errorf("cpu profile: %w", err)
		}
		for _, s := range p.samples {
			stack = stack[:0]
			for _, locID := range s.locs {
				for _, fnID := range p.locFuncs[locID] {
					stack = append(stack, p.strings[p.funcNames[fnID]])
				}
			}
			counts[attribute(stack)] += s.count
			total += s.count
		}
	}
	shares := make(map[string]float64, len(cpuBuckets))
	for _, b := range cpuBuckets {
		if total > 0 {
			shares[b] = float64(counts[b]) / float64(total)
		}
	}
	return shares, total, nil
}

// profile is the subset of profile.proto the attribution needs.
type profile struct {
	samples   []sample
	locFuncs  map[uint64][]uint64 // location ID → function IDs, innermost first
	funcNames map[uint64]int64    // function ID → string-table index
	strings   []string
}

type sample struct {
	locs  []uint64 // innermost first
	count int64    // value[0]: the sample count
}

// parseProfile decodes profile.proto fields 2 (sample), 4 (location),
// 5 (function) and 6 (string_table).
func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, wire int, v uint64, sub []byte) error {
		switch num {
		case 2:
			var s sample
			first := true
			err := eachField(sub, func(n, w int, v uint64, sb []byte) error {
				switch n {
				case 1:
					return eachPacked(w, v, sb, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachPacked(w, v, sb, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4:
			var id uint64
			var fns []uint64
			err := eachField(sub, func(n, w int, v uint64, sb []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(sb, func(ln, lw int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5:
			var id uint64
			var name int64
			err := eachField(sub, func(n, w int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6:
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcNames {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errors.New("function name outside the string table")
		}
	}
	for _, s := range p.samples {
		for _, l := range s.locs {
			for _, f := range p.locFuncs[l] {
				if _, ok := p.funcNames[f]; !ok {
					return nil, fmt.Errorf("location %d names unknown function %d", l, f)
				}
			}
		}
	}
	return p, nil
}

// eachField walks a protobuf message, calling fn with each field's number,
// wire type, and either its varint/fixed value or its length-delimited
// payload.
func eachField(b []byte, fn func(num, wire int, v uint64, sub []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var sub []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			v = binary.LittleEndian.Uint64(b)
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			sub = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			v = uint64(binary.LittleEndian.Uint32(b))
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// eachPacked yields a repeated varint field in either encoding: one
// unpacked value, or a packed run.
func eachPacked(wire int, v uint64, sub []byte, fn func(uint64)) error {
	if wire != 2 {
		fn(v)
		return nil
	}
	for len(sub) > 0 {
		x, n := binary.Uvarint(sub)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		sub = sub[n:]
	}
	return nil
}
