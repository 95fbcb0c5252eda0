package cluster

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"goldilocks/internal/journal"
	"goldilocks/internal/migrate"
	"goldilocks/internal/scheduler"
	"goldilocks/internal/telemetry"
	"goldilocks/internal/topology"
	"goldilocks/internal/workload"
)

// varyingInputs is a small deterministic series whose demand shifts each
// epoch, so every epoch migrates a few containers.
func varyingInputs(epochs int) []EpochInput {
	spec := workload.TwitterWorkload(60, 1)
	inputs := make([]EpochInput, 0, epochs)
	for e := 0; e < epochs; e++ {
		s := spec
		switch e % 3 {
		case 1:
			s = spec.Scaled(0.5)
		case 2:
			s = spec.Scaled(0.8)
		}
		inputs = append(inputs, EpochInput{Spec: s, RPS: 1000})
	}
	return inputs
}

func TestModeledSolveCostOrdering(t *testing.T) {
	for _, n := range []int{10, 100, 2000} {
		full := modeledSolveMS(RungFull, n, 16, 1)
		warm := modeledSolveMS(RungWarmStart, n, 16, 1)
		greedy := modeledSolveMS(RungGreedy, n, 16, 1)
		if !(full > warm && warm > greedy) {
			t.Fatalf("n=%d: rung costs not strictly decreasing: full=%v warm=%v greedy=%v", n, full, warm, greedy)
		}
		if inflated := modeledSolveMS(RungFull, n, 16, 3); inflated != 3*full {
			t.Fatalf("n=%d: factor 3 gave %v, want %v", n, inflated, 3*full)
		}
	}
}

func TestLadderDowngradesUnderDeadline(t *testing.T) {
	spec := workload.TwitterWorkload(60, 1)
	full := modeledSolveMS(RungFull, len(spec.Containers), 16, 1)
	warm := modeledSolveMS(RungWarmStart, len(spec.Containers), 16, 1)

	sess := telemetry.NewSession()
	opts := DefaultOptions()
	opts.Telemetry = sess
	// Budget between warm and full: epoch 0 must run at the warm rung.
	opts.SolveDeadline = time.Duration((full+warm)/2*float64(time.Millisecond)) / 1
	r := NewRunner(topology.NewTestbed(), scheduler.Goldilocks{}, opts)

	rep, err := r.RunEpoch(EpochInput{Spec: spec, RPS: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LadderRung != RungWarmStart {
		t.Fatalf("rung = %d, want %d (warm-start)", rep.LadderRung, RungWarmStart)
	}
	if rep.ModeledSolveMS <= 0 || rep.ModeledSolveMS > opts.SolveDeadline.Seconds()*1000 {
		t.Fatalf("modeled cost %v outside (0, budget]", rep.ModeledSolveMS)
	}

	// A solve-straggler fault inflates the cost past the warm rung too:
	// the epoch bottoms out at greedy.
	rep2, err := r.RunEpoch(EpochInput{Spec: spec, RPS: 1000, SolveCostFactor: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.LadderRung != RungGreedy {
		t.Fatalf("inflated rung = %d, want %d (greedy)", rep2.LadderRung, RungGreedy)
	}

	// Downgrades are visible in metrics and the audit log.
	downgrades := 0.0
	for _, e := range sess.Metrics.Snapshot() {
		if e.Name == "cluster_ladder_downgrades_total" {
			downgrades = e.Value
		}
	}
	if downgrades != 2 {
		t.Fatalf("downgrade counter = %v, want 2", downgrades)
	}
	found := false
	for _, d := range sess.Audit.Records() {
		if d.Action == telemetry.ActionDegraded {
			found = true
		}
	}
	if !found {
		t.Fatal("no ladder-degraded audit decision recorded")
	}
}

func TestLadderNoDeadlineRunsFull(t *testing.T) {
	r := NewRunner(topology.NewTestbed(), scheduler.Goldilocks{}, DefaultOptions())
	rep, err := r.RunEpoch(EpochInput{Spec: workload.TwitterWorkload(60, 1), RPS: 1000, SolveCostFactor: 1e9})
	if err != nil {
		t.Fatal(err)
	}
	if rep.LadderRung != RungFull {
		t.Fatalf("no deadline, yet rung = %d", rep.LadderRung)
	}
}

// TestDroppedMigrationsSurface is the silent-loss regression at the
// cluster level: when every transfer attempt fails, the epoch report must
// carry the loss in DroppedMigrations and exclude the moves from the
// migration axes, with the containers reverted to their source servers.
func TestDroppedMigrationsSurface(t *testing.T) {
	opts := DefaultOptions()
	opts.MigrateRetry = migrate.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Second, FlakeProb: 1, Seed: 7}
	r := NewRunner(topology.NewTestbed(), scheduler.Goldilocks{}, opts)

	spec := workload.TwitterWorkload(60, 1)
	if _, err := r.RunEpoch(EpochInput{Spec: spec, RPS: 1000}); err != nil {
		t.Fatal(err)
	}
	rep, err := r.RunEpoch(EpochInput{Spec: spec.Scaled(0.4), RPS: 400})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DroppedMigrations == 0 {
		t.Skip("scaled workload produced no migrations to drop") // guarded below with a forced case
	}
	if rep.Migrations != 0 {
		t.Fatalf("FlakeProb=1 yet %d migrations reported as applied", rep.Migrations)
	}
	if rep.MigrationMB != 0 {
		t.Fatalf("dropped migrations still carried %v MB", rep.MigrationMB)
	}
	if rep.MigrationRetries < rep.DroppedMigrations {
		t.Fatalf("retries %d < dropped %d", rep.MigrationRetries, rep.DroppedMigrations)
	}
}

// TestDroppedMigrationRevertsPlacement forces one migration and checks
// the container actually stays on its source server.
func TestDroppedMigrationRevertsPlacement(t *testing.T) {
	opts := DefaultOptions()
	opts.MigrateRetry = migrate.RetryPolicy{MaxAttempts: 2, BaseBackoff: time.Second, FlakeProb: 1, Seed: 7}
	r := NewRunner(topology.NewTestbed(), scheduler.Goldilocks{}, opts)
	spec := workload.TwitterWorkload(60, 1)
	if _, err := r.RunEpoch(EpochInput{Spec: spec, RPS: 1000}); err != nil {
		t.Fatal(err)
	}
	before := make(map[int]int, len(r.prevPlace))
	for id, s := range r.prevPlace {
		before[id] = s
	}
	rep, err := r.RunEpoch(EpochInput{Spec: spec.Scaled(0.4), RPS: 400})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DroppedMigrations > 0 {
		for id, s := range r.prevPlace {
			if prev, ok := before[id]; ok && prev != s {
				t.Fatalf("container %d moved %d→%d despite FlakeProb=1", id, prev, s)
			}
		}
	}
	// Retries off: the same series migrates freely.
	r2 := NewRunner(topology.NewTestbed(), scheduler.Goldilocks{}, DefaultOptions())
	if _, err := r2.RunEpoch(EpochInput{Spec: spec, RPS: 1000}); err != nil {
		t.Fatal(err)
	}
	rep2, err := r2.RunEpoch(EpochInput{Spec: spec.Scaled(0.4), RPS: 400})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Migrations > 0 && rep.DroppedMigrations == 0 {
		t.Fatalf("baseline migrated %d but flaky run dropped nothing", rep2.Migrations)
	}
}

// TestRetryPathIsByteIdenticalWhenClean pins that arming the retry
// machinery with a zero flake probability changes no report field.
func TestRetryPathIsByteIdenticalWhenClean(t *testing.T) {
	inputs := varyingInputs(4)
	base := NewRunner(topology.NewTestbed(), scheduler.Goldilocks{}, DefaultOptions())
	baseReps, err := base.RunSeries(inputs)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MigrateRetry = migrate.RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Second, Seed: 99}
	armed := NewRunner(topology.NewTestbed(), scheduler.Goldilocks{}, opts)
	armedReps, err := armed.RunSeries(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(baseReps, armedReps) {
		t.Fatal("zero-flake retry policy perturbed the report stream")
	}
}

func runJournaled(t *testing.T, path string, inputs []EpochInput, crashAfter int) ([]EpochReport, error) {
	t.Helper()
	w, err := journal.Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	opts := DefaultOptions()
	opts.Journal = w
	opts.MigrateRetry = migrate.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Second, FlakeProb: 0.3, Seed: 11}
	r := NewRunner(topology.NewTestbed(), scheduler.Goldilocks{}, opts)
	if err := WriteCheckpoint(w, 0xC0FFEE, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	r.ArmCrash(crashAfter)
	return r.RunSeries(inputs)
}

func resumeJournaled(t *testing.T, path string, inputs []EpochInput) []EpochReport {
	t.Helper()
	w, out, err := RecoverJournal(path, 0xC0FFEE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	opts := DefaultOptions()
	opts.Journal = w
	opts.MigrateRetry = migrate.RetryPolicy{MaxAttempts: 3, BaseBackoff: time.Second, FlakeProb: 0.3, Seed: 11}
	r := NewRunner(topology.NewTestbed(), scheduler.Goldilocks{}, opts)
	r.Restore(out.State)
	if out.State.Epoch < len(inputs) {
		if _, err := r.Reconcile(inputs[out.State.Epoch].Spec, out.Orphans); err != nil {
			t.Fatal(err)
		}
	}
	rest, err := r.RunSeries(inputs[out.State.Epoch:])
	if err != nil {
		t.Fatal(err)
	}
	return append(out.Reports, rest...)
}

// TestCrashResumeByteIdenticalAtEveryRecordBoundary is the recovery
// property test: killing the control plane after *any* journal record and
// resuming must reproduce the uninterrupted run's report stream and final
// state exactly.
func TestCrashResumeByteIdenticalAtEveryRecordBoundary(t *testing.T) {
	inputs := varyingInputs(5)
	dir := t.TempDir()

	fullPath := filepath.Join(dir, "full.wal")
	fullReps, err := runJournaled(t, fullPath, inputs, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, fullOut, err := RecoverJournal(fullPath, 0xC0FFEE, nil)
	if err != nil {
		t.Fatal(err)
	}
	totalRecords := 0
	{
		recs, _, _, err := journal.ReadFile(fullPath, nil)
		if err != nil {
			t.Fatal(err)
		}
		totalRecords = len(recs) - 1 // minus the checkpoint
	}
	if totalRecords < len(inputs)*3 {
		t.Fatalf("only %d records journaled for %d epochs", totalRecords, len(inputs))
	}

	for crash := 1; crash <= totalRecords; crash++ {
		path := filepath.Join(dir, "crash.wal")
		_, err := runJournaled(t, path, inputs, crash)
		if err == nil {
			t.Fatalf("crash=%d: run did not crash", crash)
		}
		got := resumeJournaled(t, path, inputs)
		if !reflect.DeepEqual(got, fullReps) {
			t.Fatalf("crash after record %d: resumed report stream diverges", crash)
		}
		_, out, err := RecoverJournal(path, 0xC0FFEE, nil)
		if err != nil {
			t.Fatal(err)
		}
		if out.State.Hash() != fullOut.State.Hash() {
			t.Fatalf("crash after record %d: final state hash %016x, want %016x", crash, out.State.Hash(), fullOut.State.Hash())
		}
	}
}

// appendTornTail simulates a crash mid-append: bytes after the last valid
// record that do not form a record. It returns the valid prefix length.
func appendTornTail(t *testing.T, path string) int64 {
	t.Helper()
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte{9, 0, 0, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	return info.Size()
}

// TestRecoverJournalReportsTornTail pins that a resume reports the torn
// tail it truncates, cuts the file back to the valid prefix, and decodes
// exactly what the read-only ReadJournal sees.
func TestRecoverJournalReportsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	if _, err := runJournaled(t, path, varyingInputs(3), 0); err != nil {
		t.Fatal(err)
	}
	validLen := appendTornTail(t, path)
	view, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !view.Torn {
		t.Fatal("ReadJournal missed the torn tail")
	}

	w, out, err := RecoverJournal(path, 0xC0FFEE, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !out.Torn {
		t.Fatal("RecoverJournal truncated a torn tail but reported a clean journal")
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != validLen {
		t.Fatalf("recovered journal is %d bytes, want the %d-byte valid prefix", info.Size(), validLen)
	}
	if !reflect.DeepEqual(out, view) {
		t.Fatal("RecoverJournal and ReadJournal decoded the same journal differently")
	}
}

// TestRecoverJournalRejectsWrongConfig pins the config-hash guard: a
// journal from another run configuration is refused and left untouched —
// not even its torn tail is truncated — so the run that wrote it can
// still resume it.
func TestRecoverJournalRejectsWrongConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.wal")
	if _, err := runJournaled(t, path, varyingInputs(2), 0); err != nil {
		t.Fatal(err)
	}
	appendTornTail(t, path)
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RecoverJournal(path, 0xBAD, nil); err == nil {
		t.Fatal("journal from another run configuration accepted")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("refused resume modified the journal: %d bytes → %d bytes", len(before), len(after))
	}
}

// TestReconcileClassifiesTornWaves crashes mid-epoch after a wave record
// and checks the reconcile audit sees the half-applied transfers.
func TestReconcileClassifiesTornWaves(t *testing.T) {
	inputs := varyingInputs(4)
	dir := t.TempDir()
	full, err := runJournaled(t, filepath.Join(dir, "full.wal"), inputs, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = full
	// Find a crash point that lands right after a wave record.
	recs, _, _, err := journal.ReadFile(filepath.Join(dir, "full.wal"), nil)
	if err != nil {
		t.Fatal(err)
	}
	crashAt := -1
	for i, rec := range recs[1:] { // skip checkpoint
		if rec.Kind == journal.KindWave {
			crashAt = i + 1
			break
		}
	}
	if crashAt < 0 {
		t.Skip("series journaled no migration waves")
	}
	path := filepath.Join(dir, "crash.wal")
	if _, err := runJournaled(t, path, inputs, crashAt); err == nil {
		t.Fatal("run did not crash")
	}
	_, out, err := RecoverJournal(path, 0xC0FFEE, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Orphans) == 0 {
		t.Fatal("crash mid-epoch left no orphan records")
	}
	r := NewRunner(topology.NewTestbed(), scheduler.Goldilocks{}, DefaultOptions())
	r.Restore(out.State)
	rec, err := r.Reconcile(inputs[out.State.Epoch].Spec, out.Orphans)
	if err != nil {
		t.Fatal(err)
	}
	if rec.UncommittedEpoch != out.State.Epoch {
		t.Fatalf("reconcile epoch %d, want %d", rec.UncommittedEpoch, out.State.Epoch)
	}
	if rec.OrphanWaves == 0 {
		t.Fatal("wave record in the tail, but reconcile saw no orphan waves")
	}
	if rec.RolledBack+rec.Replaced == 0 {
		t.Fatal("half-applied wave reconciled to nothing")
	}
}
