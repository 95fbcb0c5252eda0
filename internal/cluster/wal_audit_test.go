package cluster

import (
	"path/filepath"
	"reflect"
	"testing"

	"goldilocks/internal/journal"
	"goldilocks/internal/scheduler"
	"goldilocks/internal/telemetry"
	"goldilocks/internal/topology"
)

// TestDecisionCodecRoundTrip pins the KindAudit payload codec.
func TestDecisionCodecRoundTrip(t *testing.T) {
	in := telemetry.Decision{
		Epoch: 3, SimAt: 180e9, Policy: "goldilocks", Container: 17, Group: 2,
		Action: telemetry.ActionGroupPlaced, Server: 5, From: -1, Headroom: 0.125,
		Detail: "fits under the 70% ceiling",
		Candidates: []telemetry.Candidate{
			{Subtree: "rack0", Outcome: "rejected: residual bandwidth"},
			{Subtree: "rack2", Outcome: "accepted"},
		},
	}
	var e journal.Enc
	encodeDecision(&e, in)
	d := journal.NewDec(e.Bytes())
	out, err := decodeDecision(d)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in: %+v\nout: %+v", in, out)
	}
}

// journaledAuditRun runs epochs with auditing on and a journal attached,
// returning the session and journal path.
func journaledAuditRun(t *testing.T, epochs int) (*telemetry.Session, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "audit.wal")
	w, err := journal.Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	sess := telemetry.NewSession()
	opts := DefaultOptions()
	opts.Journal = w
	opts.Telemetry = sess
	r := NewRunner(topology.NewTestbed(), scheduler.Goldilocks{}, opts)
	if err := WriteCheckpoint(w, 0xC0FFEE, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunSeries(varyingInputs(epochs)); err != nil {
		t.Fatal(err)
	}
	return sess, path
}

// TestAuditRecordsJournaledAndRecovered pins the journal-only -explain
// contract: every decision the live session recorded is committed to the
// WAL and comes back identically through both RecoverJournal (the resume
// path) and ReadJournal (the read-only analysis path).
func TestAuditRecordsJournaledAndRecovered(t *testing.T) {
	sess, path := journaledAuditRun(t, 3)
	live := sess.Audit.Records()
	if len(live) == 0 {
		t.Fatal("run recorded no audit decisions")
	}

	w, out, err := RecoverJournal(path, 0xC0FFEE, nil)
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if !reflect.DeepEqual(live, out.Audit) {
		t.Fatalf("recovered audit differs from live session: %d vs %d records", len(out.Audit), len(live))
	}

	view, err := ReadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, view.Audit) {
		t.Fatalf("read-only view audit differs from live session: %d vs %d records", len(view.Audit), len(live))
	}
	if len(view.Reports) != 3 {
		t.Fatalf("view has %d reports, want 3", len(view.Reports))
	}
	if view.CfgHash != 0xC0FFEE {
		t.Fatalf("view cfg hash = %#x, want 0xC0FFEE", view.CfgHash)
	}
	if len(view.Orphans) != 0 || view.Torn {
		t.Fatalf("clean journal reported orphans=%d torn=%v", len(view.Orphans), view.Torn)
	}
}

// TestAuditJournalingPreservesRecordBoundaries pins that with auditing
// *off* the journal record sequence is unchanged (the crash-replay guard
// counts on epoch-begin/placement/wave/commit boundaries), and with it on
// the only new records are KindAudit.
func TestAuditJournalingPreservesRecordBoundaries(t *testing.T) {
	silent := filepath.Join(t.TempDir(), "silent.wal")
	w, err := journal.Create(silent, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Journal = w
	r := NewRunner(topology.NewTestbed(), scheduler.Goldilocks{}, opts)
	if err := WriteCheckpoint(w, 1, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RunSeries(varyingInputs(2)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	recs, _, _, err := journal.ReadFile(silent, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Kind == journal.KindAudit {
			t.Fatal("audit record journaled with auditing disabled")
		}
	}

	_, audited := journaledAuditRun(t, 2)
	arecs, _, _, err := journal.ReadFile(audited, nil)
	if err != nil {
		t.Fatal(err)
	}
	var kept []journal.Kind
	audits := 0
	for _, rec := range arecs {
		if rec.Kind == journal.KindAudit {
			audits++
			continue
		}
		kept = append(kept, rec.Kind)
	}
	if audits == 0 {
		t.Fatal("audited run journaled no KindAudit records")
	}
	want := make([]journal.Kind, 0, len(recs))
	for _, rec := range recs {
		want = append(want, rec.Kind)
	}
	if !reflect.DeepEqual(kept, want) {
		t.Fatalf("non-audit record sequence changed:\naudited: %v\nsilent:  %v", kept, want)
	}
}
