package scenario

// lazySource is a rand.Source64 that yields exactly the stream of
// rand.NewSource(seed), but seeds in time proportional to the draws taken
// rather than to the 607-word state. A far-field pedestrian's stream is
// seeded once at spawn for about twenty draws and once more at its first
// promotion; math/rand's Seed computes all 607 words (1,841 Lehmer steps)
// each time, which made seeding most of the spawn's cost.
//
// Two facts about math/rand make the laziness exact:
//
//   - Seeding runs the Lehmer generator x ← 48271·x mod (2³¹−1) from the
//     normalised seed s, skips 20 values, then takes three per word, so
//     word i is (a<<40 ^ b<<20 ^ c) ^ rngCooked[i] with a, b, c =
//     s·48271^(21+3i), s·48271^(22+3i), s·48271^(23+3i) mod (2³¹−1).
//     Any word can be computed on its own from a table of powers.
//   - Drawing is an additive lagged-Fibonacci step: the tap and feed
//     indices walk down from 0 and 334 (mod 607), and the draw is
//     vec[feed] += vec[tap]. During the first 334 draws the feed index
//     meets each of words 333..0 for the first time; the tap index meets
//     words 606..334 for the first time during the first 273 draws and
//     then words 333..273, which the feed wrote 273 draws earlier. So a
//     draw in that phase computes the words it reads first-hand and needs
//     no per-word bookkeeping, and after 334 draws every word exists and
//     draws take math/rand's plain step.
//
// lazySource also counts the draws since the last Seed, so a stream can be
// rebuilt later from its seed by skipping that many.
type lazySource struct {
	tap, feed int
	vec       [rngLen]int64
	seed      int64 // normalised: in [1, 2³¹−2]
	n         int   // draws since the last Seed
}

const (
	rngLen   = 607
	rngTap   = 273
	rngMask  = 1<<63 - 1
	int32max = 1<<31 - 1

	// lazyDraws is the number of draws after which every state word has
	// been computed: the feed index has visited words 333..0.
	lazyDraws = rngLen - rngTap
)

// seedPowers[j] is 48271^(21+j) mod (2³¹−1): the multipliers that take a
// normalised seed to the three Lehmer values behind each state word.
var seedPowers = func() (p [3 * rngLen]int64) {
	x := int64(1)
	for i := 0; i < 21; i++ {
		x = x * 48271 % int32max
	}
	for j := range p {
		p[j] = x
		x = x * 48271 % int32max
	}
	return p
}()

// Seed resets the source to the start of rand.NewSource(seed)'s stream,
// normalising the seed as math/rand does. It computes no state word; the
// first lazyDraws draws set the tap and feed indices themselves.
func (s *lazySource) Seed(seed int64) {
	s.n = 0
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = seed
}

// word computes state word i as math/rand's Seed would leave it.
func (s *lazySource) word(i int) int64 {
	p := seedPowers[3*i : 3*i+3 : 3*i+3]
	a := s.seed * p[0] % int32max
	b := s.seed * p[1] % int32max
	c := s.seed * p[2] % int32max
	return (a<<40 ^ b<<20 ^ c) ^ rngCooked[i]
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *lazySource) Int63() int64 {
	return int64(s.Uint64() & rngMask)
}

// Uint64 returns a pseudo-random 64-bit value.
func (s *lazySource) Uint64() uint64 {
	s.n++
	if s.n <= lazyDraws {
		return s.lazyUint64()
	}
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// lazyUint64 takes draw n, one of the first lazyDraws after Seed, when the
// tap index is 607−n and the feed index 334−n. The feed word is always
// read for the first time; the tap word is for the first rngTap draws, and
// after them is one the feed wrote rngTap draws earlier.
func (s *lazySource) lazyUint64() uint64 {
	s.tap = rngLen - s.n
	s.feed = lazyDraws - s.n
	if s.n <= rngTap {
		s.vec[s.tap] = s.word(s.tap)
	}
	x := s.word(s.feed) + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// replaySource returns the stream of rand.NewSource(seed) after its first
// skip draws.
func replaySource(seed int64, skip int) *lazySource {
	s := new(lazySource)
	s.Seed(seed)
	for i := 0; i < skip; i++ {
		s.Uint64()
	}
	return s
}
