// Benchmarks that regenerate every table and figure of the paper's
// evaluation (DESIGN.md §4 maps each to its experiment). They run the
// shared generators from internal/experiments at a reduced scale so the
// full suite stays in benchmark-friendly time; cmd/experiments runs the
// same code at full scale. Each benchmark logs the rendered table/series
// once, so `go test -bench=. -benchmem -v` doubles as a results report.
package cityhunter_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"cityhunter"
	"cityhunter/internal/experiments"
)

var (
	benchWorldOnce sync.Once
	benchWorldVal  *cityhunter.World
	benchWorldErr  error
)

// benchWorld builds the shared world once per benchmark binary.
func benchWorld(b *testing.B) *cityhunter.World {
	b.Helper()
	benchWorldOnce.Do(func() {
		benchWorldVal, benchWorldErr = cityhunter.NewWorld(cityhunter.WithSeed(1))
	})
	if benchWorldErr != nil {
		b.Fatalf("NewWorld: %v", benchWorldErr)
	}
	return benchWorldVal
}

// benchOptions is the reduced scale used by all experiment benchmarks:
// 10-minute runs at 60 % crowd rates.
func benchOptions() experiments.Options {
	return experiments.Options{
		SlotDuration: 10 * time.Minute,
		ArrivalScale: 0.6,
	}
}

// BenchmarkTable1 regenerates Table I (KARMA vs MANA, canteen).
func BenchmarkTable1(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(context.Background(), w, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFigure1 regenerates Figure 1 (MANA DB growth vs h_b^r).
func BenchmarkFigure1(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure1(context.Background(), w, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkTable2 regenerates Table II (MANA vs preliminary City-Hunter).
func BenchmarkTable2(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(context.Background(), w, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2 (SSIDs tried per client).
func BenchmarkFigure2(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure2(context.Background(), w, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkTable3 regenerates Table III (preliminary City-Hunter, passage).
func BenchmarkTable3(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(context.Background(), w, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkTable4 regenerates Table IV (AP-count vs heat rankings).
func BenchmarkTable4(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table4(context.Background(), w, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFigure4 regenerates Figure 4 (heat-map hot cells).
func BenchmarkFigure4(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure4(context.Background(), w, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkFigure5 regenerates the Figure 5 grid (4 venues × 12 slots) at
// reduced per-slot duration; BenchmarkFigure6 renders its breakdown.
func BenchmarkFigure5(b *testing.B) {
	w := benchWorld(b)
	opts := benchOptions()
	opts.SlotDuration = 5 * time.Minute
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid, err := experiments.Grid(context.Background(), w, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + grid.Figure5())
		}
	}
}

// BenchmarkFigure6 regenerates the Figure 6 breakdown from the same grid.
func BenchmarkFigure6(b *testing.B) {
	w := benchWorld(b)
	opts := benchOptions()
	opts.SlotDuration = 5 * time.Minute
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		grid, err := experiments.Grid(context.Background(), w, opts)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + grid.Figure6())
		}
	}
}

// BenchmarkExtensions regenerates the §V-B extension comparisons.
func BenchmarkExtensions(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Extensions(context.Background(), w, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkAblation regenerates the design-choice ablation.
func BenchmarkAblation(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Ablation(context.Background(), w, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkWorldGeneration measures the offline setup cost: city synthesis,
// heat map, PNL model and WiGLE sampling.
func BenchmarkWorldGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := cityhunter.NewWorld(cityhunter.WithSeed(int64(i + 1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCountermeasures regenerates the §VI defence report.
func BenchmarkCountermeasures(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Countermeasures(context.Background(), w, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkRobustness replicates the headline h_b across seeds.
func BenchmarkRobustness(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Robustness(context.Background(), w, benchOptions(), 3)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}

// BenchmarkSensitivity sweeps the model knobs around calibration.
func BenchmarkSensitivity(b *testing.B) {
	w := benchWorld(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Sensitivity(context.Background(), w, benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.Log("\n" + res.String())
		}
	}
}
