package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"cityhunter"
)

// TableRow is one attacker's line in a comparison table.
type TableRow struct {
	Attack string
	Tally  cityhunter.Tally
}

func (r TableRow) render(b *strings.Builder) {
	t := r.Tally
	fmt.Fprintf(b, "%-28s %6d  %4d/%-4d   %3d (direct); %3d (broadcast)  %5.1f%%  %5.1f%%\n",
		r.Attack, t.Total, t.Direct, t.Broadcast,
		t.ConnectedDirect, t.ConnectedBroadcast, pct(t.HitRate()), pct(t.BroadcastHitRate()))
}

func tableHeader(b *strings.Builder, title string) {
	b.WriteString(title + "\n")
	fmt.Fprintf(b, "%-28s %6s  %-9s  %-31s %6s  %6s\n",
		"Attack", "Total", "Dir/Bcast", "Clients connected", "h", "h_b")
}

// Table1Result reproduces Table I: KARMA versus MANA in the canteen.
type Table1Result struct {
	Duration time.Duration
	Rows     []TableRow
}

// String renders the table with the paper's reference row.
func (r *Table1Result) String() string {
	var b strings.Builder
	tableHeader(&b, fmt.Sprintf("Table I — KARMA vs MANA (canteen, %v)", r.Duration))
	for _, row := range r.Rows {
		row.render(&b)
	}
	b.WriteString("paper: KARMA 614 clients h=3.9% h_b=0; MANA 688 clients h=6.6% h_b=3%\n")
	return b.String()
}

// Table1 runs the Table I experiment: the two baselines deployed in the
// canteen over the lunch period.
func Table1(ctx context.Context, w *cityhunter.World, o Options) (*Table1Result, error) {
	res := &Table1Result{Duration: o.tableDuration()}
	for i, kind := range []cityhunter.AttackKind{cityhunter.KARMA, cityhunter.MANA} {
		r, err := w.RunContext(ctx, cityhunter.CanteenVenue(), kind, cityhunter.LunchSlot,
			o.tableDuration(), o.runOpts(w, int64(i))...)
		if err != nil {
			return nil, fmt.Errorf("table1: %w", err)
		}
		res.Rows = append(res.Rows, TableRow{Attack: r.Attack, Tally: r.Tally})
	}
	return res, nil
}

// Table2Result reproduces Table II: MANA versus the preliminary
// City-Hunter in the canteen.
type Table2Result struct {
	Duration time.Duration
	Rows     []TableRow
}

// String renders the table with the paper's reference row.
func (r *Table2Result) String() string {
	var b strings.Builder
	tableHeader(&b, fmt.Sprintf("Table II — MANA vs City-Hunter preliminary (canteen, %v)", r.Duration))
	for _, row := range r.Rows {
		row.render(&b)
	}
	b.WriteString("paper: MANA h=6.6% h_b=3%; City-Hunter 626 clients h=19.1% h_b=15.9%\n")
	return b.String()
}

// Table2 runs the Table II experiment.
func Table2(ctx context.Context, w *cityhunter.World, o Options) (*Table2Result, error) {
	res := &Table2Result{Duration: o.tableDuration()}
	for i, kind := range []cityhunter.AttackKind{cityhunter.MANA, cityhunter.CityHunterPreliminary} {
		r, err := w.RunContext(ctx, cityhunter.CanteenVenue(), kind, cityhunter.LunchSlot,
			o.tableDuration(), o.runOpts(w, 10+int64(i))...)
		if err != nil {
			return nil, fmt.Errorf("table2: %w", err)
		}
		res.Rows = append(res.Rows, TableRow{Attack: r.Attack, Tally: r.Tally})
	}
	return res, nil
}

// Table3Result reproduces Table III: the preliminary City-Hunter in the
// subway passage.
type Table3Result struct {
	Duration time.Duration
	Row      TableRow
}

// String renders the table with the paper's reference row.
func (r *Table3Result) String() string {
	var b strings.Builder
	tableHeader(&b, fmt.Sprintf("Table III — City-Hunter preliminary (subway passage, %v)", r.Duration))
	r.Row.render(&b)
	b.WriteString("paper: 1356 clients (178/1178) h=6.3% h_b=4.1%\n")
	return b.String()
}

// Table3 runs the Table III experiment in the morning-rush passage.
func Table3(ctx context.Context, w *cityhunter.World, o Options) (*Table3Result, error) {
	r, err := w.RunContext(ctx, cityhunter.PassageVenue(), cityhunter.CityHunterPreliminary,
		cityhunter.MorningRushSlot, o.tableDuration(), o.runOpts(w, 20)...)
	if err != nil {
		return nil, fmt.Errorf("table3: %w", err)
	}
	return &Table3Result{Duration: o.tableDuration(), Row: TableRow{Attack: r.Attack, Tally: r.Tally}}, nil
}

// Table4Result reproduces Table IV: the top-5 SSIDs by AP count versus by
// heat value, from the attacker's WiGLE snapshot.
type Table4Result struct {
	ByCount []string
	ByHeat  []string
}

// String renders the two rankings side by side.
func (r *Table4Result) String() string {
	var b strings.Builder
	b.WriteString("Table IV — top-5 SSIDs by AP count vs by heat value\n")
	fmt.Fprintf(&b, "%-4s %-28s %-28s\n", "Rank", "Max APs", "Max heat value")
	for i := 0; i < len(r.ByCount) && i < len(r.ByHeat); i++ {
		fmt.Fprintf(&b, "%-4d %-28s %-28s\n", i+1, r.ByCount[i], r.ByHeat[i])
	}
	b.WriteString("paper: heat ranking promotes '#HKAirport Free WiFi' and 'Free Public WiFi'\n")
	return b.String()
}

// Table4 computes the two rankings.
func Table4(_ context.Context, w *cityhunter.World, _ Options) (*Table4Result, error) {
	res := &Table4Result{}
	for _, sc := range w.WiGLE.TopByAPCount(5) {
		res.ByCount = append(res.ByCount, sc.SSID)
	}
	ranked := w.WiGLE.RankByHeat(w.Heat)
	for i := 0; i < 5 && i < len(ranked); i++ {
		res.ByHeat = append(res.ByHeat, ranked[i].SSID)
	}
	return res, nil
}
