package scenario

import (
	"math"
	"math/rand"
	"testing"
)

// lazySeeds are the seeds the identity tests run: math/rand's seed
// normalisation edges (0, ±1, multiples of 2³¹−1, the extremes of int64,
// 89482311, the value a zero seed maps to) plus 500 random signed seeds.
func lazySeeds() []int64 {
	seeds := []int64{0, 1, -1, int32max, -int32max, 2 * int32max,
		math.MinInt64, math.MaxInt64, 89482311}
	r := rand.New(rand.NewSource(20261018))
	for i := 0; i < 500; i++ {
		seeds = append(seeds, int64(r.Uint64()))
	}
	return seeds
}

// checkLazyStream draws n values from a lazySource seeded with seed and
// from rand.NewSource(seed), alternating Int63 and Uint64, and fails at the
// first difference.
func checkLazyStream(t testing.TB, seed int64, n int) {
	t.Helper()
	lazy := new(lazySource)
	lazy.Seed(seed)
	ref := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			if got, want := lazy.Int63(), ref.Int63(); got != want {
				t.Fatalf("seed %d: Int63 draw %d = %d, math/rand %d", seed, i, got, want)
			}
		} else if got, want := lazy.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("seed %d: Uint64 draw %d = %d, math/rand %d", seed, i, got, want)
		}
	}
	if lazy.n != n {
		t.Fatalf("seed %d: counted %d draws, took %d", seed, lazy.n, n)
	}
}

// TestLazySourceMatchesMathRand pins lazySource to rand.NewSource: the same
// values over 3000 draws, which wrap the 607-word state several times; the
// same results through every rand.Rand method the simulator uses; and the
// same stream after a re-Seed in the middle of one.
func TestLazySourceMatchesMathRand(t *testing.T) {
	seeds := lazySeeds()
	for _, seed := range seeds {
		checkLazyStream(t, seed, 3000)
	}

	for _, seed := range seeds[:60] {
		lazy, ref := rand.New(new(lazySource)), rand.New(rand.NewSource(0))
		lazy.Seed(seed)
		ref.Seed(seed)
		for round := 0; round < 20; round++ {
			if a, b := lazy.Float64(), ref.Float64(); a != b {
				t.Fatalf("seed %d round %d: Float64 %v != %v", seed, round, a, b)
			}
			if a, b := lazy.Int63n(1e12+7), ref.Int63n(1e12+7); a != b {
				t.Fatalf("seed %d round %d: Int63n %d != %d", seed, round, a, b)
			}
			if a, b := lazy.Intn(37), ref.Intn(37); a != b {
				t.Fatalf("seed %d round %d: Intn %d != %d", seed, round, a, b)
			}
			if a, b := lazy.NormFloat64(), ref.NormFloat64(); a != b {
				t.Fatalf("seed %d round %d: NormFloat64 %v != %v", seed, round, a, b)
			}
			pa, pb := lazy.Perm(25), ref.Perm(25)
			for i := range pa {
				if pa[i] != pb[i] {
					t.Fatalf("seed %d round %d: Perm %v != %v", seed, round, pa, pb)
				}
			}
			sa, sb := make([]int, 30), make([]int, 30)
			for i := range sa {
				sa[i], sb[i] = i, i
			}
			lazy.Shuffle(len(sa), func(i, j int) { sa[i], sa[j] = sa[j], sa[i] })
			ref.Shuffle(len(sb), func(i, j int) { sb[i], sb[j] = sb[j], sb[i] })
			for i := range sa {
				if sa[i] != sb[i] {
					t.Fatalf("seed %d round %d: Shuffle %v != %v", seed, round, sa, sb)
				}
			}
		}
	}

	// Re-seed mid-stream, once inside the lazy phase and once after every
	// word exists: the source must forget the old stream entirely.
	for _, at := range []int{100, 1000} {
		lazy := new(lazySource)
		lazy.Seed(7)
		ref := rand.NewSource(7).(rand.Source64)
		for i := 0; i < at; i++ {
			lazy.Uint64()
			ref.Uint64()
		}
		lazy.Seed(-424242)
		ref.Seed(-424242)
		for i := 0; i < 2000; i++ {
			if got, want := lazy.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("re-seeded after %d draws: draw %d = %d, math/rand %d", at, i, got, want)
			}
		}
		if lazy.n != 2000 {
			t.Fatalf("re-seeded after %d draws: counted %d draws, want 2000", at, lazy.n)
		}
	}
}

// TestLazySourceReplay pins the far-field stream rebuild: replaySource
// skipping the counted draws continues exactly where the counted stream
// stopped, whichever Rand methods took the draws and whether or not they
// ran past the lazy phase.
func TestLazySourceReplay(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		src := new(lazySource)
		src.Seed(seed)
		orig := rand.New(src)
		orig.Float64()
		orig.Int63n(seed * 1e9)
		orig.Intn(7)
		orig.Uint64()
		orig.Perm(int(seed) * 40)
		orig.NormFloat64()

		rebuilt := rand.New(replaySource(seed, src.n))
		for i := 0; i < 50; i++ {
			if a, b := orig.Int63(), rebuilt.Int63(); a != b {
				t.Fatalf("seed %d: draw %d after %d skipped: %d != %d", seed, i, src.n, a, b)
			}
		}
	}
}

// TestLazySourceAllocs pins re-seeding and drawing to zero allocations: the
// spawn workers re-seed one source per pedestrian.
func TestLazySourceAllocs(t *testing.T) {
	src := new(lazySource)
	seed := int64(0)
	allocs := testing.AllocsPerRun(100, func() {
		seed++
		src.Seed(seed)
		for i := 0; i < 64; i++ {
			src.Uint64()
		}
	})
	if allocs != 0 {
		t.Fatalf("Seed plus 64 draws allocates %v times, want 0", allocs)
	}
}

// FuzzLazySource checks lazySource against rand.NewSource for any seed and
// stream length.
func FuzzLazySource(f *testing.F) {
	f.Add(int64(0), uint16(20))
	f.Add(int64(-1), uint16(lazyDraws))
	f.Add(int64(int32max), uint16(lazyDraws+1))
	f.Add(int64(math.MinInt64), uint16(2000))
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		checkLazyStream(t, seed, int(draws))
	})
}

// BenchmarkPedestrianSeed measures what spawn pays per pedestrian for its
// stream: a re-seed plus 20 draws.
func BenchmarkPedestrianSeed(b *testing.B) {
	for _, bc := range []struct {
		name string
		src  rand.Source64
	}{
		{"lazy", new(lazySource)},
		{"math-rand", rand.NewSource(0).(rand.Source64)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc.src.Seed(int64(i))
				for j := 0; j < 20; j++ {
					bc.src.Uint64()
				}
			}
		})
	}
}

// BenchmarkPedestrianDraw measures a steady-state draw, after every state
// word exists: what a promoted phone pays per value.
func BenchmarkPedestrianDraw(b *testing.B) {
	for _, bc := range []struct {
		name string
		src  rand.Source64
	}{
		{"lazy", new(lazySource)},
		{"math-rand", rand.NewSource(0).(rand.Source64)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bc.src.Seed(1)
			for i := 0; i < rngLen; i++ {
				bc.src.Uint64()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bc.src.Uint64()
			}
		})
	}
}
