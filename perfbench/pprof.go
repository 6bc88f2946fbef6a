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

// Layers are the buckets a CPU profile's self time is split into: the
// simulator and service packages by their last path element, the Go
// runtime, and everything else. The shares of one profile sum to 100%.
var layers = []string{
	"cpu", "sim", "emc", "dram", "cache", "interconnect", "trace",
	"prefetch", "vm", "bpred", "service", "runtime", "other",
}

// layerOf maps a package import path to its layer.
var layerOf = map[string]string{
	"repro/internal/cpu":          "cpu",
	"repro/internal/sim":          "sim",
	"repro/internal/emc":          "emc",
	"repro/internal/mem/dram":     "dram",
	"repro/internal/mem/cache":    "cache",
	"repro/internal/interconnect": "interconnect",
	"repro/internal/trace":        "trace",
	"repro/internal/prefetch":     "prefetch",
	"repro/internal/vm":           "vm",
	"repro/internal/bpred":        "bpred",
	"repro/internal/service":      "service",
}

// funcPackage returns the import path of a Go symbol name such as
// "repro/internal/mem/dram.(*Controller).Tick" or
// "slices.SortFunc[go.shape.*uint8]".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may hold other import paths
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// bucket maps a leaf function name to its layer.
func bucket(fn string) string {
	pkg := funcPackage(fn)
	if l, ok := layerOf[pkg]; ok {
		return l
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// layerShares is a CPU profile reduced to flat self time per layer.
type layerShares struct {
	Samples int64              // profile samples in total
	Pct     map[string]float64 // layer -> percent of samples; sums to 100
}

// shareByLayer buckets every sample of a CPU profile by the package of its
// leaf function (the innermost inlined frame of the first location) and
// returns each layer's percentage of the samples.
func shareByLayer(profile []byte) (layerShares, error) {
	p, err := parseProfile(profile)
	if err != nil {
		return layerShares{}, err
	}
	counts := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		name := "?"
		if len(s.locs) > 0 {
			if fns := p.locFuncs[s.locs[0]]; len(fns) > 0 {
				name = p.strings[p.funcNames[fns[0]]]
			}
		}
		counts[bucket(name)] += s.count
		total += s.count
	}
	out := layerShares{Samples: total, Pct: map[string]float64{}}
	for _, l := range layers {
		if total > 0 {
			out.Pct[l] = 100 * float64(counts[l]) / float64(total)
		} else {
			out.Pct[l] = 0
		}
	}
	return out, nil
}

// ---- Minimal reader for the pprof protobuf format ----------------------------
//
// Only the fields the bucketing needs are decoded: each sample's location ids
// and first value, each location's inline stack of function ids, each
// function's name, and the string table.

type profSample struct {
	locs  []uint64
	count int64
}

type profile struct {
	samples   []profSample
	locFuncs  map[uint64][]uint64 // location id -> function ids, leaf first
	funcNames map[uint64]int64    // function id -> string table index
	strings   []string
}

// Field numbers of perftools.profiles.Profile and its messages.
const (
	fProfileSample   = 2
	fProfileLocation = 4
	fProfileFunction = 5
	fProfileStrings  = 6

	fSampleLocation = 1
	fSampleValue    = 2

	fLocationID   = 1
	fLocationLine = 4

	fLineFunction = 1

	fFunctionID   = 1
	fFunctionName = 2
)

func parseProfile(data []byte) (*profile, error) {
	if len(data) >= 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(data, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case fProfileSample:
			var s profSample
			first := true
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case fSampleLocation:
					return varints(wire, v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case fSampleValue:
					return varints(wire, v, b, func(x uint64) {
						if first {
							s.count, first = int64(x), false
						}
					})
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case fLocationID:
					id = v
				case fLocationLine:
					return eachField(b, func(num int, wire int, v uint64, b []byte) error {
						if num == fLineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case fProfileFunction:
			var id uint64
			var name int64
			err := eachField(b, func(num int, wire int, v uint64, b []byte) error {
				switch num {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case fProfileStrings:
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for id, name := range p.funcNames {
		if name < 0 || name >= int64(len(p.strings)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, name, len(p.strings))
		}
	}
	return p, nil
}

var errTruncated = errors.New("profile: truncated protobuf")

// eachField walks the fields of one protobuf message. For varint fields v is
// the value; for length-delimited fields b is the payload. Fixed-width
// fields are skipped.
func eachField(data []byte, fn func(num int, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(data); n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints delivers a repeated integer field, which an encoder may write
// either as one varint per field or packed into a length-delimited payload.
func varints(wire int, v uint64, b []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
