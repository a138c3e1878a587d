package serve

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cityhunter/internal/stats"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStoreRequiresDir(t *testing.T) {
	if _, err := NewStore(""); err == nil {
		t.Fatal("empty store dir accepted")
	}
}

func TestStoreSpecRoundTrip(t *testing.T) {
	st := testStore(t)
	hash := strings.Repeat("ab", 32)
	in := SpecResult{
		Index:     3,
		Name:      "lunch baseline",
		Venue:     "canteen",
		Attack:    "cityhunter",
		Slot:      4,
		SlotLabel: "12pm-1pm",
		Seconds:   120,
		Tally:     stats.Tally{Total: 40, ConnectedDirect: 3, ConnectedBroadcast: 5},
	}
	if _, ok := st.Spec(hash, 3); ok {
		t.Fatal("spec present before Put")
	}
	if err := st.PutSpec(hash, 3, in); err != nil {
		t.Fatalf("PutSpec: %v", err)
	}
	out, ok := st.Spec(hash, 3)
	if !ok {
		t.Fatal("spec absent after Put")
	}
	if !reflect.DeepEqual(out, in) {
		t.Errorf("spec did not round-trip:\nin:  %+v\nout: %+v", in, out)
	}
	// A different index stays absent.
	if _, ok := st.Spec(hash, 4); ok {
		t.Error("unwritten index reported present")
	}
}

func TestStoreTornSpecReadsAsAbsent(t *testing.T) {
	st := testStore(t)
	hash := strings.Repeat("cd", 32)
	if err := st.PutSpec(hash, 0, SpecResult{Index: 0}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.jobDir(hash), specFile(0))
	if err := os.WriteFile(path, []byte(`{"index": 0, "tal`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Spec(hash, 0); ok {
		t.Error("torn spec file reported present; it must read as absent so the spec re-runs")
	}
}

func TestStorePlanIdempotent(t *testing.T) {
	st := testStore(t)
	hash := strings.Repeat("ef", 32)
	if err := st.PutPlan(hash, []byte("doc-v1\n")); err != nil {
		t.Fatal(err)
	}
	// A second put must not clobber the original document (same hash ==
	// same bytes in real use; the guard is what this checks).
	if err := st.PutPlan(hash, []byte("doc-v2\n")); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(st.jobDir(hash), "plan.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "doc-v1\n" {
		t.Errorf("plan document rewritten: %q", data)
	}
}

func TestStoreResultRoundTrip(t *testing.T) {
	st := testStore(t)
	hash := strings.Repeat("01", 32)
	if _, ok := st.Result(hash); ok {
		t.Fatal("result present before Put")
	}
	doc := []byte(`{"hash": "x"}` + "\n")
	if err := st.PutResult(hash, doc); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Result(hash)
	if !ok || string(got) != string(doc) {
		t.Errorf("result did not round-trip: %q (present=%v)", got, ok)
	}
}

func TestStoreShardsByHashPrefix(t *testing.T) {
	st := testStore(t)
	hash := "f0" + strings.Repeat("12", 31)
	if err := st.PutResult(hash, []byte("{}\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(st.dir, "f0", hash, "result.json")); err != nil {
		t.Errorf("expected sharded layout dir/f0/<hash>/result.json: %v", err)
	}
}
