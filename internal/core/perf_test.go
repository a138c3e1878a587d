package core

import (
	"testing"
	"time"

	"cityhunter/internal/ieee80211"
)

// rotatingClientMAC is client c of the rotating-client measurements: every
// c is a distinct MAC, so an exhausted client is never answered again.
func rotatingClientMAC(c int) ieee80211.MAC {
	return ieee80211.MAC{0x02, 1, 1, byte(c >> 16), byte(c >> 8), byte(c)}
}

// TestBroadcastReplyFreshClientAllocs pins the cost of answering a client
// the engine has never seen: a new track, its sent set and a full batch
// from a 2000-SSID database.
func TestBroadcastReplyFreshClientAllocs(t *testing.T) {
	e := benchEngine(t, 2000)
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		i++
		mac := ieee80211.MAC{0x02, 0, 0, byte(i >> 16), byte(i >> 8), byte(i)}
		if got := e.BroadcastReply(0, lnk(mac), 40); len(got) != 40 {
			t.Fatalf("batch = %d, want 40", len(got))
		}
	})
	if avg > 20 {
		t.Errorf("BroadcastReply for a fresh client allocates %.0f/op, want ≤ 20", avg)
	}
}

// TestBroadcastReplyRotatingClientAllocs pins the untried rotation: a
// client is answered until it has been sent all 2000 SSIDs (50 batches),
// then a never-seen client takes over, so every window of operations
// holds the same mix of first and follow-up replies.
func TestBroadcastReplyRotatingClientAllocs(t *testing.T) {
	e := benchEngine(t, 2000)
	client, i := 0, 0
	avg := testing.AllocsPerRun(2000, func() {
		mac := rotatingClientMAC(client)
		i++
		e.BroadcastReply(time.Duration(i), lnk(mac), 40)
		if e.SentCount(mac) >= 2000 {
			client++
		}
	})
	if avg > 10 {
		t.Errorf("BroadcastReply for a rotating client allocates %.0f/op, want ≤ 10", avg)
	}
}
