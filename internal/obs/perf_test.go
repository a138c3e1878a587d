package obs

import (
	"testing"
	"time"
)

// journalSink keeps the compiler from eliding the measured allocation.
var journalSink *Journal

// TestJournalShardLazyBuffer pins the cost of registering a run with the
// monitor: a new shard holds no event buffer until its first Record, and
// the buffer grows with the events instead of coming at its full bound
// (2048 events, about 115 KB, for the monitor's shards).
func TestJournalShardLazyBuffer(t *testing.T) {
	sj := NewShardedJournal()
	s := sj.NewShard(2048)
	if c := cap(s.j.buf); c != 0 {
		t.Fatalf("new shard holds a %d-event buffer, want none", c)
	}
	for i := 0; i < 3; i++ {
		s.Record(time.Duration(i), EventRunStart, "run", "")
	}
	if c := cap(s.j.buf); c > 16 {
		t.Errorf("shard with 3 events holds a %d-event buffer, want at most 16", c)
	}
	if s.Len() != 3 || s.j.Cap() != 2048 {
		t.Errorf("Len, Cap = %d, %d, want 3, 2048", s.Len(), s.j.Cap())
	}
	if avg := testing.AllocsPerRun(100, func() { journalSink = NewJournal(DefaultJournalCap) }); avg > 1 {
		t.Errorf("NewJournal allocates %.0f/op, want 1: the journal, no buffer", avg)
	}
}
