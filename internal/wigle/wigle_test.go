package wigle

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cityhunter/internal/geo"
)

var testBounds = geo.NewRect(geo.Pt(0, 0), geo.Pt(1000, 1000))

func testRecords() []Record {
	return []Record{
		{SSID: "CafeNet", BSSID: "02:00:00:00:00:01", Pos: geo.Pt(100, 100), Open: true},
		{SSID: "CafeNet", BSSID: "02:00:00:00:00:02", Pos: geo.Pt(900, 900), Open: true},
		{SSID: "SecureCorp", BSSID: "02:00:00:00:00:03", Pos: geo.Pt(105, 100), Open: false},
		{SSID: "MallWiFi", BSSID: "02:00:00:00:00:04", Pos: geo.Pt(120, 100), Open: true},
		{SSID: "AirportFree", BSSID: "02:00:00:00:00:05", Pos: geo.Pt(500, 500), Open: true},
		{SSID: "AirportFree", BSSID: "02:00:00:00:00:06", Pos: geo.Pt(505, 500), Open: true},
		{SSID: "AirportFree", BSSID: "02:00:00:00:00:07", Pos: geo.Pt(510, 500), Open: true},
	}
}

func mustDB(t *testing.T) *DB {
	t.Helper()
	db, err := New(testBounds, testRecords())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return db
}

func TestNewRejectsEmptyBounds(t *testing.T) {
	if _, err := New(geo.Rect{}, nil); err == nil {
		t.Error("want error for empty bounds")
	}
}

func TestNewCopiesRecords(t *testing.T) {
	recs := testRecords()
	db, err := New(testBounds, recs)
	if err != nil {
		t.Fatal(err)
	}
	recs[0].SSID = "mutated"
	if db.records[0].SSID == "mutated" {
		t.Error("DB shares caller's slice")
	}
}

func TestLenAndBounds(t *testing.T) {
	db := mustDB(t)
	if db.Len() != 7 {
		t.Errorf("Len = %d, want 7", db.Len())
	}
	if db.bounds != testBounds {
		t.Errorf("bounds = %v", db.bounds)
	}
}

func TestNearestSSIDs(t *testing.T) {
	db := mustDB(t)
	got := db.NearestSSIDs(geo.Pt(100, 100), 2)
	want := []string{"CafeNet", "MallWiFi"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("NearestSSIDs = %v, want %v", got, want)
	}
}

func TestNearestSSIDsDeduplicates(t *testing.T) {
	db := mustDB(t)
	got := db.NearestSSIDs(geo.Pt(500, 500), 10)
	seen := make(map[string]bool)
	for _, s := range got {
		if seen[s] {
			t.Fatalf("duplicate SSID %q", s)
		}
		seen[s] = true
	}
	// All 4 distinct open SSIDs eventually found even with a big n.
	if len(got) != 3 { // AirportFree, CafeNet, MallWiFi (SecureCorp excluded)
		t.Errorf("found %d SSIDs %v, want 3", len(got), got)
	}
	if got[0] != "AirportFree" {
		t.Errorf("nearest SSID = %q, want AirportFree", got[0])
	}
}

func TestNearestSSIDsZero(t *testing.T) {
	db := mustDB(t)
	if got := db.NearestSSIDs(geo.Pt(0, 0), 0); got != nil {
		t.Errorf("n=0 returned %v", got)
	}
}

func TestCountBySSID(t *testing.T) {
	db := mustDB(t)
	all := db.CountBySSID(false)
	if all["CafeNet"] != 2 || all["SecureCorp"] != 1 || all["AirportFree"] != 3 {
		t.Errorf("counts = %v", all)
	}
	open := db.CountBySSID(true)
	if _, ok := open["SecureCorp"]; ok {
		t.Error("secured SSID counted with openOnly")
	}
}

func TestTopByAPCount(t *testing.T) {
	db := mustDB(t)
	got := db.TopByAPCount(2)
	if len(got) != 2 {
		t.Fatalf("len = %d", len(got))
	}
	if got[0].SSID != "AirportFree" || got[0].Count != 3 {
		t.Errorf("top = %+v, want AirportFree x3", got[0])
	}
	if got[1].SSID != "CafeNet" || got[1].Count != 2 {
		t.Errorf("second = %+v, want CafeNet x2", got[1])
	}
	// n beyond the distinct count returns everything.
	if all := db.TopByAPCount(100); len(all) != 3 {
		t.Errorf("TopByAPCount(100) = %d entries, want 3 open SSIDs", len(all))
	}
}

func TestTopByAPCountDeterministicTies(t *testing.T) {
	recs := []Record{
		{SSID: "beta", Pos: geo.Pt(1, 1), Open: true},
		{SSID: "alpha", Pos: geo.Pt(2, 2), Open: true},
	}
	for trial := 0; trial < 5; trial++ {
		db, err := New(testBounds, recs)
		if err != nil {
			t.Fatal(err)
		}
		got := db.TopByAPCount(2)
		if got[0].SSID != "alpha" || got[1].SSID != "beta" {
			t.Fatalf("tie order = %v", got)
		}
	}
}

func TestOpenPositionsBySSID(t *testing.T) {
	db := mustDB(t)
	pos := db.OpenPositionsBySSID()
	if len(pos["AirportFree"]) != 3 {
		t.Errorf("AirportFree positions = %d, want 3", len(pos["AirportFree"]))
	}
	if _, ok := pos["SecureCorp"]; ok {
		t.Error("secured SSID present in open positions")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	db := mustDB(t)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !reflect.DeepEqual(back.Records(), db.Records()) {
		t.Error("records changed across save/load")
	}
	if back.bounds != db.bounds {
		t.Error("bounds changed across save/load")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("{not json")); err == nil {
		t.Error("want error for invalid JSON")
	}
}

func TestSaveLoadFile(t *testing.T) {
	db := mustDB(t)
	path := filepath.Join(t.TempDir(), "wigle.json")
	if err := db.SaveFile(path); err != nil {
		t.Fatalf("SaveFile: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back, err := Load(f)
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if back.Len() != db.Len() {
		t.Errorf("Len = %d, want %d", back.Len(), db.Len())
	}
}

func TestRecordsReturnsCopy(t *testing.T) {
	db := mustDB(t)
	recs := db.Records()
	recs[0].SSID = "mutated"
	if db.records[0].SSID == "mutated" {
		t.Error("Records exposes internal slice")
	}
}

func TestNearestSSIDsMemoCap(t *testing.T) {
	db := mustDB(t)
	query := func(i int) geo.Point { return geo.Pt(float64(i%100)*10, float64(i/100)*10) }
	for i := range nearestMemoCap + 50 {
		for range 2 {
			got := db.NearestSSIDs(query(i), 2)
			if want := db.NearestSSIDsWithin(query(i), 2, math.Inf(1)); !reflect.DeepEqual(got, want) {
				t.Fatalf("query %d at %v: got %q, want %q", i, query(i), got, want)
			}
		}
		if want := min(i+1, nearestMemoCap); len(db.nearest) != want {
			t.Fatalf("after %d queries the memo holds %d answers, want %d", i+1, len(db.nearest), want)
		}
	}
}
