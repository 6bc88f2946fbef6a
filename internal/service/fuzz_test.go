package service

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzDecodeRecord feeds arbitrary bytes to the EMCR decoder, the one path
// every record from disk or from a peer passes through. DecodeRecord must
// never panic, must wrap every rejection in ErrRecordCorrupt, and any frame
// it accepts must round-trip: its re-encoding decodes to the same key and
// re-encodes to the same bytes. The seed corpus (testdata/fuzz) holds a
// valid frame, a truncated one, a bad CRC, and a length overflow; `make
// fuzz` explores beyond it.
func FuzzDecodeRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		key, res, err := DecodeRecord(b)
		if err != nil {
			if !errors.Is(err, ErrRecordCorrupt) {
				t.Fatalf("rejection does not wrap ErrRecordCorrupt: %v", err)
			}
			return
		}
		frame, err := EncodeRecord(key, res)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v", err)
		}
		key2, res2, err := DecodeRecord(frame)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if key2 != key {
			t.Fatalf("round trip changed the key: %q -> %q", key, key2)
		}
		again, err := EncodeRecord(key2, res2)
		if err != nil {
			t.Fatalf("round-tripped record does not re-encode: %v", err)
		}
		if !bytes.Equal(again, frame) {
			t.Fatal("round trip changed the frame bytes")
		}
	})
}
