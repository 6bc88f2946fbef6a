package span

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

// FuzzDecodeDump feeds arbitrary bytes to the EMFR decoder, which reads
// flight dumps back from disk (tracecheck -flight). DecodeDump must never
// panic, must wrap every rejection in ErrDumpCorrupt, and any frame it
// accepts must survive encode → decode unchanged. The seed corpus
// (testdata/fuzz) holds a valid frame, a truncated one, a bad CRC, and a
// length overflow; `make fuzz` explores beyond it.
func FuzzDecodeDump(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		d, err := DecodeDump(b)
		if err != nil {
			if !errors.Is(err, ErrDumpCorrupt) {
				t.Fatalf("rejection does not wrap ErrDumpCorrupt: %v", err)
			}
			return
		}
		frame, err := EncodeDump(d)
		if err != nil {
			t.Fatalf("accepted dump does not re-encode: %v", err)
		}
		d2, err := DecodeDump(frame)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if !reflect.DeepEqual(d, d2) {
			t.Fatalf("round trip changed the dump:\n%+v\n%+v", d, d2)
		}
		again, err := EncodeDump(d2)
		if err != nil {
			t.Fatalf("round-tripped dump does not re-encode: %v", err)
		}
		if !bytes.Equal(again, frame) {
			t.Fatal("round trip changed the frame bytes")
		}
	})
}
