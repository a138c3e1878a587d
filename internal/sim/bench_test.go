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

// BenchmarkEngineMixedHorizon times one executed event under the mix a
// venue run schedules: 128 chains of short hops, 95 % of them under 17 ms
// ahead (frame deliveries, scan-window closes) and the rest 17 ms to 2 s
// (scan intervals, walk steps), beside 300 timers re-armed 2 s to 10 min
// ahead (arrivals, departures, far-field promotions) that stay pending
// throughout. BenchmarkEngineScheduleRun has no long timers. The delays
// are drawn up front, so ns/op is the queue's.
func BenchmarkEngineMixedHorizon(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var hops, timers [4096]time.Duration
	for i := range hops {
		hops[i] = time.Duration(rng.Int63n(int64(17 * time.Millisecond)))
		if rng.Intn(20) == 0 {
			hops[i] = 17*time.Millisecond + time.Duration(rng.Int63n(int64(2*time.Second-17*time.Millisecond)))
		}
		timers[i] = 2*time.Second + time.Duration(rng.Int63n(int64(598*time.Second)))
	}
	e := NewEngine()
	var nh, nt int
	var timer, hop func()
	timer = func() {
		e.Schedule(timers[nt%len(timers)], timer)
		nt++
	}
	hop = func() {
		e.Schedule(hops[nh%len(hops)], hop)
		nh++
	}
	for i := 0; i < 300; i++ {
		timer()
	}
	for i := 0; i < 128; i++ {
		hop()
	}
	ctx := context.Background()
	e.RunContext(ctx, time.Minute) // past the first refills
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; {
		k, _ := e.RunContext(ctx, e.Now()+100*time.Millisecond)
		n += k
	}
}

// BenchmarkMediumBroadcast100Stations fans a broadcast out to 100
// stations packed into the transmitter's cell; they only count what they
// hear, so ns/op times the fan-out alone.
func BenchmarkMediumBroadcast100Stations(b *testing.B) {
	e := NewEngine()
	m := NewMedium(e, 100)
	tx := &quietStation{addr: mac(0), pos: geo.Pt(0, 0)}
	radio := attach(b, m.Attach, tx)
	for i := 1; i <= 100; i++ {
		s := &quietStation{
			addr: ieee80211.MAC{0x02, 0, 0, 0, byte(i >> 8), byte(i)},
			pos:  geo.Pt(float64(i%10), float64(i/10)),
		}
		attach(b, m.Attach, s)
	}
	f := probeReq(tx.addr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		radio.Transmit(f)
		e.RunContext(context.Background(), e.Now()+time.Millisecond)
	}
}

func BenchmarkMediumUnicast(b *testing.B) {
	e := NewEngine()
	m := NewMedium(e, 100)
	tx := &fakeStation{addr: mac(0), pos: geo.Pt(0, 0)}
	rx := &fakeStation{addr: mac(1), pos: geo.Pt(5, 0)}
	radio := attach(b, m.Attach, tx)
	attach(b, m.Attach, rx)
	f := probeResp(tx.addr, rx.addr, "Bench Net")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		radio.Transmit(f)
		if i%256 == 255 {
			e.RunContext(context.Background(), e.Now()+time.Second)
			rx.received = rx.received[:0]
		}
	}
	e.RunContext(context.Background(), e.Now()+time.Hour)
}

// BenchmarkMediumUnicastBurst times one landed probe response in the
// pattern an attacker answers phones with: a phone's broadcast probe, then
// a burst of 40 responses to it, then the next phone, over a table of 300
// stations that all hear each other, where BenchmarkMediumUnicast's table
// holds two.
func BenchmarkMediumUnicastBurst(b *testing.B) {
	e := NewEngine()
	m := NewMedium(e, 100)
	tx := &quietStation{addr: mac(0), pos: geo.Pt(0, 0)}
	radio := attach(b, m.Attach, tx)
	rng := rand.New(rand.NewSource(1))
	phones := make([]*quietStation, 300)
	radios := make([]*Radio, len(phones))
	for i := range phones {
		phones[i] = &quietStation{
			addr: ieee80211.MAC{0x02, 1, 0, 0, byte(i >> 8), byte(i)},
			pos:  geo.Pt(rng.Float64()*100-50, rng.Float64()*100-50),
		}
		radios[i] = attach(b, m.Attach, phones[i])
	}
	order := rng.Perm(len(phones))
	req, resp := probeReq(tx.addr), probeResp(tx.addr, tx.addr, "Bench Net")
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%40 == 0 {
			k := order[i/40%len(order)]
			req.SA, resp.DA = phones[k].addr, phones[k].addr
			radios[k].Transmit(req)
		}
		radio.Transmit(resp)
		if i%40 == 39 {
			e.RunContext(ctx, e.Now()+time.Second)
		}
	}
	e.RunContext(ctx, e.Now()+time.Hour)
}

// BenchmarkMediumBroadcastSpread fans a broadcast out to 200 stations
// scattered over the transmitter's 3×3 cell neighborhood, attached in
// random spatial order, so every cell's slots interleave with the
// others'.
func BenchmarkMediumBroadcastSpread(b *testing.B) {
	e := NewEngine()
	m := NewMedium(e, 50)
	tx := &quietStation{addr: mac(0), pos: geo.Pt(25, 25)}
	radio := attach(b, m.Attach, tx)
	rng := rand.New(rand.NewSource(1))
	for i := 1; i <= 200; i++ {
		s := &quietStation{
			addr: ieee80211.MAC{0x02, 0, 0, 0, byte(i >> 8), byte(i)},
			pos:  geo.Pt(rng.Float64()*150-50, rng.Float64()*150-50),
		}
		attach(b, m.Attach, s)
	}
	f := probeReq(tx.addr)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		radio.Transmit(f)
		e.RunContext(context.Background(), e.Now()+time.Millisecond)
	}
}

// BenchmarkMediumBroadcastChannels fans a channel-6 broadcast out over 150
// stations spread across the transmitter's cell neighbourhood on channels
// 1, 6 and 11, plus one channel-agnostic station: the medium ORs the
// cells and masks them with the channel-6 and agnostic slots.
func BenchmarkMediumBroadcastChannels(b *testing.B) {
	e := NewEngine()
	m := NewMedium(e, 50)
	radio, f := channelCrowd(b, m, 150)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		radio.Transmit(f)
		e.RunContext(ctx, e.Now()+time.Millisecond)
	}
}

// BenchmarkMediumBroadcastLargeTable fans a channel-6 broadcast out from
// the middle of 2,000 stations spread over 40 cells (a 400 × 250 m
// rectangle of 50 m cells), round-robin over channels 1, 6 and 11: the
// fan-out visits a few hundred candidates, but its index work spans the
// whole 32-word station table in each of the nine cells it reads.
func BenchmarkMediumBroadcastLargeTable(b *testing.B) {
	e := NewEngine()
	m := NewMedium(e, 50)
	tx := &quietTuner{quietStation: quietStation{addr: mac(0), pos: geo.Pt(200, 125)}, ch: 6}
	radio := attach(b, m.Attach, tx)
	rng := rand.New(rand.NewSource(1))
	for i := 1; i < 2000; i++ {
		attach(b, m.Attach, &quietTuner{
			quietStation: quietStation{
				addr: ieee80211.MAC{0x02, 1, 0, 0, byte(i >> 8), byte(i)},
				pos:  geo.Pt(rng.Float64()*400, rng.Float64()*250),
			},
			ch: []uint8{1, 6, 11}[i%3],
		})
	}
	f := probeReq(tx.addr)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		radio.Transmit(f)
		e.RunContext(ctx, e.Now()+time.Millisecond)
	}
}
