package plan

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzDecode feeds arbitrary bytes to Decode, seeded with the golden plans
// and the strict-rejection table. Decode must never panic, and a plan it
// accepts must encode, and its canonical form must decode and re-encode to
// the same bytes.
func FuzzDecode(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "*.plan.json"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range goldens {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, tc := range strictRejectionCases() {
		f.Add([]byte(tc.json))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Decode(data)
		if err != nil {
			return
		}
		canon, err := Encode(p)
		if err != nil {
			t.Fatalf("accepted plan does not encode: %v\ninput: %s", err, data)
		}
		back, err := Decode(canon)
		if err != nil {
			t.Fatalf("canonical form does not decode: %v\ncanonical: %s", err, canon)
		}
		again, err := Encode(back)
		if err != nil {
			t.Fatalf("re-decoded plan does not encode: %v\ncanonical: %s", err, canon)
		}
		if !bytes.Equal(canon, again) {
			t.Fatalf("canonical form is not a fixpoint:\nfirst:  %s\nsecond: %s", canon, again)
		}
	})
}
