package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"runtime/pprof"
	"strings"
	"time"
)

// A workload's main path (the in-process report, explore.Run, the serve
// scenario) is one call whose layers call each other internally, out of
// reach of spans placed around calls from outside. doProfiled runs such a
// call under the CPU profiler and splits its span's self time across layers in
// proportion to the CPU samples each layer's own code took: a sample
// belongs to the innermost frame in one of the repository's layer packages
// (standard-library and helper-package frames are charged to the layer that
// called them), and samples with no such frame (the runtime's GC and
// scheduler, the harness's own client code) stay unattributed.

// layerOf maps a function name to its layer, or "" for frames that are
// charged to their caller.
func layerOf(fn string) string {
	const repo = "waymemo/internal/"
	if strings.HasPrefix(fn, "main.") {
		return "unattributed"
	}
	if !strings.HasPrefix(fn, repo) {
		return ""
	}
	pkg := fn[len(repo):]
	if i := strings.IndexAny(pkg, "."); i >= 0 {
		pkg = pkg[:i]
	}
	switch {
	case strings.HasPrefix(pkg, "serve/client"):
		return "unattributed" // the benchmark's load generator
	case strings.HasPrefix(pkg, "serve"):
		return "serve"
	case strings.HasPrefix(pkg, "isa"), pkg == "workloads":
		return "sim"
	case pkg == "experiments", pkg == "report":
		return "suite"
	case pkg == "cacti", pkg == "synth":
		return "power"
	}
	for _, l := range layers {
		if pkg == l {
			return l
		}
	}
	return "" // cache, mem, stats, pool, fault: helpers of the caller
}

// doProfiled is tracer.do with fn run under the CPU profiler; the span's
// self time is then charged across layers by CPU sample share.
func (tr *tracer) doProfiled(parent int, name, layer string, fn func(id int) error) error {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return tr.do(parent, name, layer, fn) // a profile is already running; the span stays whole
	}
	var id int
	err := tr.do(parent, name, layer, func(sid int) error {
		id = sid
		return fn(sid)
	})
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	samples, err := layerSamples(&buf)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	total := int64(0)
	for _, n := range samples {
		total += n
	}
	if total == 0 {
		return nil
	}
	self := tr.selfTimes()[id]
	for _, l := range append(append([]string(nil), layers...), "unattributed") {
		if n := samples[l]; n > 0 {
			d := time.Duration(self * float64(n) / float64(total) * 1e9)
			tr.aggregate(id, l+".profiled", l, d, n)
		}
	}
	return nil
}

// layerSamples decodes a gzipped pprof CPU profile and counts samples by
// layer.
func layerSamples(r io.Reader) (map[string]int64, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]int64{}    // function id -> name string index
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	type sample struct {
		locs  []uint64
		count int64
	}
	var samples []sample
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample
			var s sample
			var vals []uint64
			if err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := fields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4: // Line
					return fields(b, func(n int, v uint64, _ []byte) error {
						if n == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]int64{}
	for _, s := range samples {
		layer := "unattributed"
	walk:
		for _, loc := range s.locs { // leaf first
			for _, f := range locFuncs[loc] {
				idx := funcName[f]
				if idx < 0 || int(idx) >= len(strs) {
					continue
				}
				if l := layerOf(strs[idx]); l != "" {
					layer = l
					break walk
				}
			}
		}
		out[layer] += s.count
	}
	return out, nil
}

// fields walks the protobuf fields of msg, calling fn with each field's
// number and its varint value or length-delimited bytes.
func fields(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return fmt.Errorf("bad field key")
		}
		msg = msg[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0: // varint
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return fmt.Errorf("bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1: // fixed64
			if len(msg) < 8 {
				return fmt.Errorf("short fixed64")
			}
			msg = msg[8:]
		case 2: // length-delimited
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return fmt.Errorf("bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5: // fixed32
			if len(msg) < 4 {
				return fmt.Errorf("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b) or not (v).
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
