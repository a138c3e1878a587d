package core

import (
	"fmt"
	"testing"
	"time"

	"cityhunter/internal/ieee80211"
	"cityhunter/internal/obs"
)

// benchEngine builds a full-mode engine with a large harvested database.
func benchEngine(tb testing.TB, entries int) *Engine {
	tb.Helper()
	e, err := NewEngine(DefaultConfig(ModeFull), nil)
	if err != nil {
		tb.Fatal(err)
	}
	src := ieee80211.MAC{0x02, 9, 9, 9, 9, 9}
	for i := 0; i < entries; i++ {
		e.HarvestDirect(0, lnk(src), fmt.Sprintf("Net-%05d", i))
	}
	return e
}

func BenchmarkBroadcastReplyFreshClient(b *testing.B) {
	e := benchEngine(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mac := ieee80211.MAC{0x02, 0, 0, byte(i >> 16), byte(i >> 8), byte(i)}
		if got := e.BroadcastReply(0, lnk(mac), 40); len(got) != 40 {
			b.Fatalf("batch = %d", len(got))
		}
	}
}

// BenchmarkBroadcastReplyInstrumented mirrors BroadcastReplyFreshClient
// with the metrics registry armed; comparing the two bounds the cost of
// the observability hooks (the nil-check fast path when off, one counter
// increment and one histogram observation when on).
func BenchmarkBroadcastReplyInstrumented(b *testing.B) {
	e := benchEngine(b, 2000)
	e.Instrument(&obs.Runtime{Metrics: obs.NewRegistry()})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mac := ieee80211.MAC{0x02, 0, 0, byte(i >> 16), byte(i >> 8), byte(i)}
		if got := e.BroadcastReply(0, lnk(mac), 40); len(got) != 40 {
			b.Fatalf("batch = %d", len(got))
		}
	}
}

func BenchmarkBroadcastReplyRotatingClient(b *testing.B) {
	e := benchEngine(b, 2000)
	client := 0
	mac := rotatingClientMAC(client)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.BroadcastReply(time.Duration(i), lnk(mac), 40)
		if e.SentCount(mac) >= 2000 {
			// Exhausted: start a new client to keep the work uniform.
			b.StopTimer()
			client++
			mac = rotatingClientMAC(client)
			b.StartTimer()
		}
	}
}

func BenchmarkHarvestDirect(b *testing.B) {
	e := benchEngine(b, 0)
	src := ieee80211.MAC{0x02, 9, 9, 9, 9, 9}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.HarvestDirect(time.Duration(i), lnk(src), fmt.Sprintf("H-%07d", i))
	}
}

func BenchmarkRecordHit(b *testing.B) {
	e := benchEngine(b, 512)
	victim := ieee80211.MAC{0x02, 1, 1, 1, 1, 1}
	e.BroadcastReply(0, lnk(victim), 40)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RecordHit(time.Duration(i), lnk(victim), fmt.Sprintf("Net-%05d", i%512))
	}
}
