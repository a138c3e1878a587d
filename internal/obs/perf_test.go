package obs

import (
	"testing"
	"time"
)

// journalSink keeps the compiler from eliding the measured allocation.
var journalSink *Journal

// TestJournalLazyBuffer pins the cost of registering a run with the
// monitor: a new journal holds no event buffer until its first Record, and
// the buffer grows with the events instead of coming at its full bound
// (2048 events, about 115 KB, for the monitor's per-run rings).
func TestJournalLazyBuffer(t *testing.T) {
	j := NewJournal(2048)
	if c := cap(j.buf); c != 0 {
		t.Fatalf("new journal holds a %d-event buffer, want none", c)
	}
	for i := 0; i < 3; i++ {
		j.Record(time.Duration(i), EventRunStart, "run", "")
	}
	if c := cap(j.buf); c > 16 {
		t.Errorf("journal with 3 events holds a %d-event buffer, want at most 16", c)
	}
	if j.Len() != 3 {
		t.Errorf("Len = %d, want 3", j.Len())
	}
	checkCapacity(t, j, 2048)
	if avg := testing.AllocsPerRun(100, func() { journalSink = NewJournal(DefaultJournalCap) }); avg > 1 {
		t.Errorf("NewJournal allocates %.0f/op, want 1: the journal, no buffer", avg)
	}
}
