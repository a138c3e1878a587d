package sim

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"cityhunter/internal/geo"
	"cityhunter/internal/ieee80211"
)

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Duration(i%1000)*time.Microsecond, func() {})
		if i%1024 == 1023 {
			e.RunContext(context.Background(), e.Now()+time.Millisecond)
		}
	}
	e.RunContext(context.Background(), e.Now()+time.Second)
}

// BenchmarkMediumBroadcast100Stations fans a broadcast out to 100
// stations packed into the transmitter's cell; they only count what they
// hear, so ns/op times the fan-out alone.
func BenchmarkMediumBroadcast100Stations(b *testing.B) {
	e := NewEngine()
	m := NewMedium(e, 100)
	tx := &quietStation{addr: mac(0), pos: geo.Pt(0, 0)}
	if err := m.Attach(tx); err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= 100; i++ {
		s := &quietStation{
			addr: ieee80211.MAC{0x02, 0, 0, 0, byte(i >> 8), byte(i)},
			pos:  geo.Pt(float64(i%10), float64(i/10)),
		}
		if err := m.Attach(s); err != nil {
			b.Fatal(err)
		}
	}
	f := probeReq(tx.addr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transmit(f)
		e.RunContext(context.Background(), e.Now()+time.Millisecond)
	}
}

func BenchmarkMediumUnicast(b *testing.B) {
	e := NewEngine()
	m := NewMedium(e, 100)
	tx := &fakeStation{addr: mac(0), pos: geo.Pt(0, 0)}
	rx := &fakeStation{addr: mac(1), pos: geo.Pt(5, 0)}
	if err := m.Attach(tx); err != nil {
		b.Fatal(err)
	}
	if err := m.Attach(rx); err != nil {
		b.Fatal(err)
	}
	f := probeResp(tx.addr, rx.addr, "Bench Net")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transmit(f)
		if i%256 == 255 {
			e.RunContext(context.Background(), e.Now()+time.Second)
			rx.received = rx.received[:0]
		}
	}
	e.RunContext(context.Background(), e.Now()+time.Hour)
}

// BenchmarkMediumBroadcastSpread fans a broadcast out to 200 stations
// scattered over the transmitter's 3×3 cell neighborhood, attached in
// random spatial order, so every cell list interleaves with the others
// and the candidates must be merged into attach order.
func BenchmarkMediumBroadcastSpread(b *testing.B) {
	e := NewEngine()
	m := NewMedium(e, 50)
	tx := &quietStation{addr: mac(0), pos: geo.Pt(25, 25)}
	if err := m.Attach(tx); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 1; i <= 200; i++ {
		s := &quietStation{
			addr: ieee80211.MAC{0x02, 0, 0, 0, byte(i >> 8), byte(i)},
			pos:  geo.Pt(rng.Float64()*150-50, rng.Float64()*150-50),
		}
		if err := m.Attach(s); err != nil {
			b.Fatal(err)
		}
	}
	f := probeReq(tx.addr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transmit(f)
		e.RunContext(context.Background(), e.Now()+time.Millisecond)
	}
}

// BenchmarkMediumBroadcastChannels fans a channel-6 broadcast out over 150
// stations spread across the transmitter's cell neighbourhood on channels
// 1, 6 and 11, plus one channel-agnostic station: the medium merges the
// cells of the channel-6 grid and the agnostic one.
func BenchmarkMediumBroadcastChannels(b *testing.B) {
	e := NewEngine()
	m := NewMedium(e, 50)
	f := probeReq(channelCrowd(b, m, 150).addr)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transmit(f)
		e.RunContext(ctx, e.Now()+time.Millisecond)
	}
}
