package service

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/sim"
)

// FuzzDecodeJobSpec feeds arbitrary bytes through the decode steps of the
// job-submit endpoint: the JSON decoder into JobRequest, then Config(). It
// must never panic, and any config it accepts must pass Validate, stay
// within sim.MaxCores, and have a canonical CacheKey (the identity routing
// and the result cache need). The target never builds a System: the
// bound is what keeps an accepted spec's sim.New cheap, so checking the
// bound here stands in for running it. The seed corpus (testdata/fuzz)
// holds a valid spec, empty benchmarks, a bad prefetcher, and one core past
// the limit; `make fuzz` explores beyond it.
func FuzzDecodeJobSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) > MaxRequestBody {
			return // the handler's body cap refuses these before decoding
		}
		var req JobRequest
		if err := json.NewDecoder(bytes.NewReader(b)).Decode(&req); err != nil {
			return
		}
		cfg, err := req.Config()
		if err != nil {
			return
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("accepted config fails Validate: %v", err)
		}
		if n := len(cfg.Benchmarks); n > sim.MaxCores {
			t.Fatalf("accepted config has %d cores, limit %d", n, sim.MaxCores)
		}
		if _, ok := CacheKey(&cfg); !ok {
			t.Fatal("accepted config has no cache key")
		}
	})
}
