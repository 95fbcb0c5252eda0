package experiments

import (
	"bytes"
	"math"
	"testing"

	"goldilocks/internal/cluster"
	"goldilocks/internal/scheduler"
	"goldilocks/internal/topology"
	"goldilocks/internal/trace"
	"goldilocks/internal/workload"
)

func TestFig1aShape(t *testing.T) {
	r := Fig1a(20)
	if len(r.Rows) != 21 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Peak efficiency at the 70% knee.
	if math.Abs(r.PeakUtil-0.70) > 0.02 {
		t.Fatalf("efficiency peak at %v, want 0.70", r.PeakUtil)
	}
	// The modern curve sits below the strictly linear one in the
	// mid-load region (power-saving at the operating point) and meets it
	// at full load.
	for _, row := range r.Rows {
		if row.Load >= 0.3 && row.Load <= 0.7 && row.Dell2018Power >= row.Linear2010 {
			t.Fatalf("at load %v modern power %v not below linear %v",
				row.Load, row.Dell2018Power, row.Linear2010)
		}
	}
	last := r.Rows[len(r.Rows)-1]
	if math.Abs(last.Dell2018Power-1) > 1e-9 || math.Abs(last.Linear2010-1) > 1e-9 {
		t.Fatal("both curves must reach 1.0 at full load")
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("Print produced nothing")
	}
}

func TestFig1aDefaultPoints(t *testing.T) {
	if got := len(Fig1a(0).Rows); got != 21 {
		t.Fatalf("default rows = %d", got)
	}
}

func TestFig1bShape(t *testing.T) {
	r := Fig1b(419, 1)
	if r.FleetSize != 419 {
		t.Fatalf("fleet = %d", r.FleetSize)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	// The 100%-PEE share must collapse between the first and last year.
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if first.Shares[1.0] <= last.Shares[1.0] {
		t.Fatalf("100%%-PEE share must shrink over time: %v → %v",
			first.Shares[1.0], last.Shares[1.0])
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("Print produced nothing")
	}
}

func TestFig2UCurve(t *testing.T) {
	r := Fig2(1000)
	if math.Abs(r.MinPowerLoad-0.70) > 0.021 {
		t.Fatalf("U-curve minimum at %v, want 0.70 (the PEE knee)", r.MinPowerLoad)
	}
	// Servers needed decreases monotonically with per-server load.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].ServersNeeded > r.Rows[i-1].ServersNeeded {
			t.Fatal("servers needed must not increase with packing level")
		}
	}
	// 'U': the endpoints draw more than the minimum.
	min := math.Inf(1)
	for _, row := range r.Rows {
		min = math.Min(min, row.TotalPowerW)
	}
	if r.Rows[0].TotalPowerW <= min || r.Rows[len(r.Rows)-1].TotalPowerW <= min {
		t.Fatal("total power must rise toward both ends of the sweep")
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("Print produced nothing")
	}
}

func TestFig3TakeAways(t *testing.T) {
	r := Fig3(DefaultFig3())
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d, want 5 data centers", len(r.Rows))
	}
	// §II take-aways: traffic packing saves ~8% of total DC power on
	// average, task packing ~53%.
	if r.AvgTrafficSaving < 0.03 || r.AvgTrafficSaving > 0.15 {
		t.Fatalf("avg traffic-packing saving = %v, want ≈0.08", r.AvgTrafficSaving)
	}
	if r.AvgTaskSaving < 0.40 || r.AvgTaskSaving > 0.62 {
		t.Fatalf("avg task-packing saving = %v, want ≈0.53", r.AvgTaskSaving)
	}
	if r.AvgTaskSaving <= r.AvgTrafficSaving {
		t.Fatal("task packing must dominate traffic packing")
	}
	for _, row := range r.Rows {
		if row.TaskPacking >= 1 || row.TaskPacking <= 0 {
			t.Fatalf("%s: task packing normalized power %v out of range", row.Name, row.TaskPacking)
		}
		if row.TrafficPacking > 1 {
			t.Fatalf("%s: traffic packing cannot exceed baseline", row.Name)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("Print produced nothing")
	}
}

func TestFig3DefaultsApplied(t *testing.T) {
	r := Fig3(Fig3Options{})
	if r.Opts.ServerUtil != 0.20 {
		t.Fatal("zero options must fall back to the paper baseline")
	}
}

func TestTableII(t *testing.T) {
	r := TableII()
	if len(r.Profiles) != 4 {
		t.Fatalf("profiles = %d", len(r.Profiles))
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("Print produced nothing")
	}
}

func TestFig5Dimensions(t *testing.T) {
	r := Fig5(trace.SearchTraceOptions{Vertices: 800, Edges: 9000, Seed: 2})
	if r.Vertices != 800 || r.Edges != 9000 {
		t.Fatalf("dims = %d/%d", r.Vertices, r.Edges)
	}
	if got := trace.MaxNormalized(r.Dist.VertexMemory); got != 1 {
		t.Fatalf("memory spread = %v, want 1 (uniform 12 GB)", got)
	}
	if got := trace.MaxNormalized(r.Dist.EdgeWeight); got < 20 {
		t.Fatalf("edge-weight spread = %v, want heavy tail", got)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("Print produced nothing")
	}
}

func TestFig7Shapes(t *testing.T) {
	r := Fig7(3)
	if len(r.TwitterGroups) < 2 {
		t.Fatalf("twitter groups = %d, want several (224 containers exceed one server)", len(r.TwitterGroups))
	}
	total := 0
	for _, g := range r.TwitterGroups {
		total += g
	}
	if total != 224 {
		t.Fatalf("twitter partition covers %d containers, want 224", total)
	}
	if len(r.TraceGroups) != 5 {
		t.Fatalf("trace groups = %d, want 5 (Fig. 7(b))", len(r.TraceGroups))
	}
	snapTotal := 0
	for _, g := range r.TraceGroups {
		if g == 0 {
			t.Fatal("empty trace partition")
		}
		snapTotal += g
	}
	if snapTotal != 100 {
		t.Fatalf("trace snapshot covers %d vertices, want 100", snapTotal)
	}
	if r.TraceCutFraction <= 0 || r.TraceCutFraction >= 1 {
		t.Fatalf("cut fraction = %v", r.TraceCutFraction)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("Print produced nothing")
	}
}

// seriesByPolicy indexes a testbed result.
func seriesByPolicy(series []PolicySeries) map[string]PolicySeries {
	m := make(map[string]PolicySeries, len(series))
	for _, s := range series {
		m[s.Policy] = s
	}
	return m
}

func fig9ForTest(t *testing.T) *Fig9Result {
	t.Helper()
	opts := DefaultFig9()
	opts.Epochs = 20
	r, err := Fig9(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFig9PaperShape(t *testing.T) {
	r := fig9ForTest(t)
	by := seriesByPolicy(r.Series)
	gold, epvm, borg := by["Goldilocks"], by["E-PVM"], by["Borg"]

	// E-PVM keeps all 16 servers on; packers use fewer; Goldilocks needs
	// a couple more than Borg (70% vs 95% packing).
	if epvm.MeanActive() != 16 {
		t.Fatalf("E-PVM active = %v", epvm.MeanActive())
	}
	if gold.MeanActive() <= borg.MeanActive() {
		t.Fatalf("Goldilocks active %v must exceed Borg %v", gold.MeanActive(), borg.MeanActive())
	}

	// Power: Goldilocks draws the least of all policies (Fig. 9(b)).
	for name, s := range by {
		if name == "Goldilocks" {
			continue
		}
		if gold.MeanPowerW() >= s.MeanPowerW() {
			t.Fatalf("Goldilocks power %v not below %s %v", gold.MeanPowerW(), name, s.MeanPowerW())
		}
	}

	// TCT: every alternative is at least 2× Goldilocks (paper: ≥2.56×).
	for name, s := range by {
		if name == "Goldilocks" {
			continue
		}
		if s.MeanTCTMS() < 2*gold.MeanTCTMS() {
			t.Fatalf("%s TCT %v not ≥ 2× Goldilocks %v", name, s.MeanTCTMS(), gold.MeanTCTMS())
		}
	}

	// Energy per request: Goldilocks at most half of the best
	// alternative (paper: ~⅓ of RC-Informed).
	bestAlt := math.Inf(1)
	for name, s := range by {
		if name != "Goldilocks" {
			bestAlt = math.Min(bestAlt, s.EnergyPerRequestJ())
		}
	}
	if gold.EnergyPerRequestJ() > bestAlt/2 {
		t.Fatalf("Goldilocks energy/req %v not ≤ half of best alternative %v",
			gold.EnergyPerRequestJ(), bestAlt)
	}
}

func TestFig9RPSEnvelope(t *testing.T) {
	r := fig9ForTest(t)
	if len(r.RPS) != 20 {
		t.Fatalf("rps samples = %d", len(r.RPS))
	}
	for _, rps := range r.RPS {
		if rps < 44000-1 || rps > 440000+1 {
			t.Fatalf("rps %v outside the Wikipedia envelope", rps)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("Print produced nothing")
	}
}

func fig10ForTest(t *testing.T) *Fig10Result {
	t.Helper()
	opts := DefaultFig10()
	opts.Epochs = 15
	r, err := Fig10(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFig10PaperShape(t *testing.T) {
	r := fig10ForTest(t)
	by := seriesByPolicy(r.Series)
	gold := by["Goldilocks"]

	// Container population stays in the Azure band.
	for _, c := range r.ContainerCounts {
		if c < 149 || c > 221 {
			t.Fatalf("container count %d outside 149–221", c)
		}
	}
	// Goldilocks: least power and shortest Twitter TCT (Fig. 10(b,c)).
	for name, s := range by {
		if name == "Goldilocks" {
			continue
		}
		if gold.MeanPowerW() >= s.MeanPowerW() {
			t.Fatalf("Goldilocks power %v not below %s %v", gold.MeanPowerW(), name, s.MeanPowerW())
		}
		if gold.MeanTCTMS() >= s.MeanTCTMS() {
			t.Fatalf("Goldilocks TCT %v not below %s %v", gold.MeanTCTMS(), name, s.MeanTCTMS())
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("Print produced nothing")
	}
}

func TestFig11Aggregation(t *testing.T) {
	wiki := fig9ForTest(t)
	azure := fig10ForTest(t)
	r := Fig11(wiki, azure)
	if len(r.Wikipedia) != 5 || len(r.Azure) != 5 {
		t.Fatalf("rows = %d/%d", len(r.Wikipedia), len(r.Azure))
	}
	// E-PVM's saving against itself is zero by construction.
	if Row(r.Wikipedia, "E-PVM").PowerSaving != 0 {
		t.Fatal("E-PVM saving must be 0")
	}
	// Goldilocks leads power saving on both patterns.
	for _, rows := range [][]Fig11Row{r.Wikipedia, r.Azure} {
		gold := Row(rows, "Goldilocks")
		best := BestAlternative(rows, func(x Fig11Row) float64 { return x.PowerSaving }, false)
		if gold.PowerSaving <= best.PowerSaving {
			t.Fatalf("Goldilocks saving %v not above best alternative %s %v",
				gold.PowerSaving, best.Policy, best.PowerSaving)
		}
		bestTCT := BestAlternative(rows, func(x Fig11Row) float64 { return x.MeanTCTMS }, true)
		if gold.MeanTCTMS >= bestTCT.MeanTCTMS {
			t.Fatalf("Goldilocks TCT %v not below best alternative %v", gold.MeanTCTMS, bestTCT.MeanTCTMS)
		}
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("Print produced nothing")
	}
}

func TestFig12Curves(t *testing.T) {
	r := Fig12(1)
	if len(r.Solr) != 13 {
		t.Fatalf("solr rows = %d", len(r.Solr))
	}
	for i := 1; i < len(r.Solr); i++ {
		if r.Solr[i].CPU <= r.Solr[i-1].CPU {
			t.Fatal("Solr CPU must rise with RPS")
		}
		if r.Solr[i].MemoryMB != 12*1024 {
			t.Fatal("Solr memory must stay at 12 GB")
		}
	}
	if len(r.Hadoop) == 0 {
		t.Fatal("no hadoop samples")
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("Print produced nothing")
	}
}

func fig13ForTest(t *testing.T) *Fig13Result {
	t.Helper()
	opts := Fig13Options{
		Arity: 8, ReplicasPerServer: 9, TargetEPVMUtil: 0.25,
		Epochs: 4, NetsimFlows: 200, Seed: 13,
	}
	r, err := Fig13(opts)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestFig13PaperShape(t *testing.T) {
	r := fig13ForTest(t)
	if r.NumServers != 128 { // 8³/4
		t.Fatalf("servers = %d", r.NumServers)
	}
	if r.Containers != 128*9 {
		t.Fatalf("containers = %d", r.Containers)
	}
	rows := make(map[string]Fig13Row, len(r.Rows))
	for _, row := range r.Rows {
		rows[row.Policy] = row
	}
	// Fig. 13(a): E-PVM keeps every server on; Borg/mPP have the fewest;
	// RC-Informed sits above them (reservation-driven); Goldilocks above
	// the packers.
	if rows["E-PVM"].MeanActive != float64(r.NumServers) {
		t.Fatalf("E-PVM active = %v", rows["E-PVM"].MeanActive)
	}
	if rows["Borg"].MeanActive > rows["RC-Informed"].MeanActive {
		t.Fatalf("Borg active %v must not exceed RC-Informed %v",
			rows["Borg"].MeanActive, rows["RC-Informed"].MeanActive)
	}
	if rows["Goldilocks"].MeanActive <= rows["Borg"].MeanActive {
		t.Fatal("Goldilocks must run more servers than Borg (70% vs 95%)")
	}
	// Fig. 13(b,d): Goldilocks draws the least power despite more
	// servers.
	for name, row := range rows {
		if name == "Goldilocks" {
			continue
		}
		if rows["Goldilocks"].MeanPowerKW >= row.MeanPowerKW {
			t.Fatalf("Goldilocks power %v not below %s %v",
				rows["Goldilocks"].MeanPowerKW, name, row.MeanPowerKW)
		}
	}
	// Fig. 13(c,d): Goldilocks' TCT beats E-PVM (paper: 0.85×) and the
	// 95% packers sit above E-PVM.
	if rows["Goldilocks"].NormTCT >= 1 {
		t.Fatalf("Goldilocks TCT/E-PVM = %v, want < 1", rows["Goldilocks"].NormTCT)
	}
	if rows["Borg"].NormTCT <= 1 {
		t.Fatalf("Borg TCT/E-PVM = %v, want > 1 (queueing at 95%%)", rows["Borg"].NormTCT)
	}
	// Flow-level cross-check: locality shows up in sampled FCTs too.
	if rows["Goldilocks"].NetsimMeanFCTm <= 0 {
		t.Fatal("netsim sample missing")
	}
	if rows["Goldilocks"].NetsimMeanFCTm >= rows["E-PVM"].NetsimMeanFCTm {
		t.Fatalf("Goldilocks netsim FCT %v not below E-PVM %v",
			rows["Goldilocks"].NetsimMeanFCTm, rows["E-PVM"].NetsimMeanFCTm)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("Print produced nothing")
	}
}

func TestFig13OddArityRejected(t *testing.T) {
	if _, err := Fig13(Fig13Options{Arity: 7}); err == nil {
		t.Fatal("odd arity must be rejected")
	}
}

func TestExtIncrementalTradeoff(t *testing.T) {
	opts := DefaultExtIncremental()
	opts.Epochs = 12
	r, err := ExtIncremental(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	fresh, incr := r.Rows[0], r.Rows[1]
	if incr.Migrations*2 >= fresh.Migrations && fresh.Migrations > 0 {
		t.Fatalf("incremental migrations %d not well below fresh %d",
			incr.Migrations, fresh.Migrations)
	}
	if incr.TotalFreezeSec >= fresh.TotalFreezeSec && fresh.TotalFreezeSec > 0 {
		t.Fatalf("incremental freeze %.1fs not below fresh %.1fs",
			incr.TotalFreezeSec, fresh.TotalFreezeSec)
	}
	// The price: packing no tighter than fresh (power within 2× is fine;
	// assert it does not *win*, which would indicate a bug).
	if incr.MeanPowerW < fresh.MeanPowerW*0.9 {
		t.Fatalf("incremental power %.0fW suspiciously below fresh %.0fW",
			incr.MeanPowerW, fresh.MeanPowerW)
	}
	var buf bytes.Buffer
	r.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("Print produced nothing")
	}
}

// TestExtIncrementalMatchesRunnerLoop pins that the incremental row
// reports the policy the runner ran: a plain runner loop over the same
// epochs must reproduce its migrations, migrated MB, power and TCT
// exactly. Pricing the moves must not place a second time.
func TestExtIncrementalMatchesRunnerLoop(t *testing.T) {
	opts := DefaultExtIncremental()
	r, err := ExtIncremental(opts)
	if err != nil {
		t.Fatal(err)
	}
	got := r.Rows[1]
	base := workload.TwitterWorkload(opts.Containers, opts.Seed)
	wiki := workload.WikipediaPattern{MinRPS: 0.45, MaxRPS: 1.0, PeriodMinutes: opts.Epochs}
	runner := cluster.NewRunner(topology.NewTestbed(),
		&scheduler.IncrementalGoldilocks{MigrationBudget: opts.MigrationBudget}, cluster.DefaultOptions())
	want := ExtIncrementalRow{Scheduler: got.Scheduler, TotalFreezeSec: got.TotalFreezeSec}
	for e := 0; e < opts.Epochs; e++ {
		f := wiki.RPS(e)
		rep, err := runner.RunEpoch(cluster.EpochInput{Spec: base.Scaled(f), RPS: 300000 * f})
		if err != nil {
			t.Fatal(err)
		}
		want.MeanPowerW += rep.TotalPowerW / float64(opts.Epochs)
		want.MeanTCTMS += rep.MeanTCTMS / float64(opts.Epochs)
		want.Migrations += rep.Migrations
		want.MigrationMB += rep.MigrationMB
	}
	if got != want {
		t.Fatalf("incremental row %+v, runner loop %+v", got, want)
	}
}

func TestCSVExports(t *testing.T) {
	o9 := DefaultFig9()
	o9.Epochs = 4
	wiki, err := Fig9(o9)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := wiki.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(buf.Bytes(), []byte("\n"))
	if want := 1 + 5*4; lines != want {
		t.Fatalf("fig9 csv lines = %d, want %d (header + 5 policies × 4 epochs)", lines, want)
	}

	o10 := DefaultFig10()
	o10.Epochs = 4
	azure, err := Fig10(o10)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := azure.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(buf.Bytes(), []byte("\n")); got != 1+5*4 {
		t.Fatalf("fig10 csv lines = %d", got)
	}

	f13, err := Fig13(Fig13Options{Arity: 4, ReplicasPerServer: 4, TargetEPVMUtil: 0.25, Epochs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := f13.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(buf.Bytes(), []byte("\n")); got != 1+5 {
		t.Fatalf("fig13 csv lines = %d", got)
	}
}
