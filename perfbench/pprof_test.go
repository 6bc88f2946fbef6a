package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

// pb is a tiny protobuf writer for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) key(num, wire int) { p.b = binary.AppendUvarint(p.b, uint64(num<<3|wire)) }

func (p *pb) varint(num int, v uint64) {
	p.key(num, 0)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(num int, b []byte) {
	p.key(num, 2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(num int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(num, q.b)
}

// synthProfile builds a CPU profile. Each function gets id i+1 and one
// location with the same id; inline lists extra function ids per location,
// callers after the leaf. Samples are (location ids, count) pairs; odd
// samples use the unpacked encoding so both paths are read.
func synthProfile(funcs []string, inline map[uint64][]uint64, samples [][2]uint64, stacks map[int][]uint64) []byte {
	var p pb
	strs := append([]string{""}, funcs...)
	for i := range funcs {
		var fn pb
		fn.varint(fFunctionID, uint64(i+1))
		fn.varint(fFunctionName, uint64(i+1))
		p.bytes(fProfileFunction, fn.b)

		var loc pb
		loc.varint(fLocationID, uint64(i+1))
		for _, f := range append([]uint64{uint64(i + 1)}, inline[uint64(i+1)]...) {
			var line pb
			line.varint(fLineFunction, f)
			loc.bytes(fLocationLine, line.b)
		}
		p.bytes(fProfileLocation, loc.b)
	}
	for i, s := range samples {
		var smp pb
		locs := append([]uint64{s[0]}, stacks[i]...)
		if i%2 == 0 {
			smp.packed(fSampleLocation, locs...)
			smp.packed(fSampleValue, s[1], s[1]*10_000_000)
		} else {
			for _, l := range locs {
				smp.varint(fSampleLocation, l)
			}
			smp.varint(fSampleValue, s[1])
			smp.varint(fSampleValue, s[1]*10_000_000)
		}
		p.bytes(fProfileSample, smp.b)
	}
	for _, s := range strs {
		p.bytes(fProfileStrings, []byte(s))
	}
	return p.b
}

func TestBucket(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/cpu.(*Core).Tick":                         "cpu",
		"repro/internal/mem/dram.(*Controller).Tick":              "dram",
		"repro/internal/mem/cache.(*MSHRFile).Complete":           "cache",
		"repro/internal/sim.(*System).step":                       "sim",
		"repro/internal/emc.(*EMC).Tick.func1":                    "emc",
		"runtime.mallocgc":                                        "runtime",
		"runtime._GC":                                             "runtime",
		"internal/runtime/atomic.(*Uint32).Load":                  "runtime",
		"slices.SortFunc[go.shape.*repro/internal/cpu.Chain]":     "other",
		"repro/internal/stats.(*Histogram).Add":                   "other",
		"repro/internal/service.(*Service).Submit":                "service",
		"sort.Strings":                                            "other",
		"repro/internal/interconnect.(*Ring).Tick":                "interconnect",
		"type:.eq.repro/internal/sim.msg":                         "other",
		"repro/internal/trace.(*Generator).emitBlock":             "trace",
		"repro/internal/prefetch.(*Stream).Train":                 "prefetch",
		"repro/internal/vm.(*TLB).Lookup":                         "vm",
		"repro/internal/bpred.(*Predictor).Predict":               "bpred",
		"repro/internal/obs/span.(*Recorder).FinishSpan":          "other",
		"repro/internal/cpu.(*Core).issue[go.shape.interface {}]": "cpu",
	} {
		if got := bucket(fn); got != want {
			t.Errorf("bucket(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestShareByLayerSynthetic(t *testing.T) {
	funcs := []string{
		"repro/internal/cpu.(*Core).Tick",            // 1
		"runtime.mallocgc",                           // 2
		"repro/internal/mem/dram.(*Controller).scan", // 3: inlined into 4
		"repro/internal/sim.(*System).mcTick",        // 4
		"sort.Strings",                               // 5
	}
	// Location 3's leaf is dram's scan, inlined into sim's mcTick: the
	// sample is dram's. Sample 0 carries a caller stack below its leaf,
	// which must not change its bucket.
	inline := map[uint64][]uint64{3: {4}}
	samples := [][2]uint64{{1, 50}, {2, 20}, {3, 20}, {4, 5}, {5, 5}}
	stacks := map[int][]uint64{0: {4, 5}}
	raw := synthProfile(funcs, inline, samples, stacks)

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw)
	zw.Close()

	for name, data := range map[string][]byte{"raw": raw, "gzip": gz.Bytes()} {
		sh, err := shareByLayer(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if sh.Samples != 100 {
			t.Errorf("%s: %d samples, want 100", name, sh.Samples)
		}
		want := map[string]float64{"cpu": 50, "runtime": 20, "dram": 20, "sim": 5, "other": 5}
		sum := 0.0
		for _, l := range layers {
			sum += sh.Pct[l]
			if !near(sh.Pct[l], want[l]) {
				t.Errorf("%s: %s = %g%%, want %g%%", name, l, sh.Pct[l], want[l])
			}
		}
		if math.Abs(sum-100) > 1e-9 {
			t.Errorf("%s: shares sum to %g", name, sum)
		}
	}
}

func TestShareByLayerRejectsTruncated(t *testing.T) {
	raw := synthProfile([]string{"runtime.mallocgc"}, nil, [][2]uint64{{1, 3}}, nil)
	if _, err := shareByLayer(raw[:len(raw)-3]); err == nil {
		t.Fatal("truncated profile parsed without error")
	}
}

// TestShareByLayerRealProfile reads a profile the Go runtime wrote.
func TestShareByLayerRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler busy: %v", err)
	}
	x := 0
	for end := time.Now().Add(200 * time.Millisecond); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x ^= i * x
		}
	}
	pprof.StopCPUProfile()
	sh, err := shareByLayer(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if sh.Samples == 0 {
		return // a starved test process may take no sample; the parse is what counts
	}
	sum := 0.0
	for _, l := range layers {
		sum += sh.Pct[l]
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %g over %d samples", sum, sh.Samples)
	}
}
