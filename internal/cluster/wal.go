// The cluster side of the write-ahead journal: what goes inside each
// record kind, and how a restart recovers from the log.
//
// internal/journal owns the framing and the codec; this file owns the
// payload schemas, because only the cluster package knows what an epoch
// is. The per-epoch record sequence is
//
//	epoch-begin   epoch number, pre-epoch state hash, ladder rung
//	placement     the decision (placement, rejections, spill target)
//	wave × W      one per migration wave, before its transfers run
//	commit        the full EpochReport + the post-epoch runner state
//
// Recovery rolls back to the last commit and re-executes: everything the
// runner carries across epochs is in the committed state, and every input
// is deterministic, so recomputation reproduces the uninterrupted run
// byte for byte. The uncommitted tail records are not discarded silently —
// Reconcile classifies them (orphaned placement, half-applied waves) into
// the audit log before re-execution overwrites them.
package cluster

import (
	"fmt"

	"goldilocks/internal/journal"
	"goldilocks/internal/metrics"
	"goldilocks/internal/migrate"
	"goldilocks/internal/resources"
	"goldilocks/internal/scheduler"
	"goldilocks/internal/telemetry"
	"goldilocks/internal/workload"
)

// journalAppend frames and appends one record, then fires the simulated
// crash if ArmCrash said this record was the last one the control plane
// lived to write.
func (r *Runner) journalAppend(kind journal.Kind, body []byte) error {
	if r.opts.Journal == nil {
		return nil
	}
	if err := r.opts.Journal.Append(kind, body); err != nil {
		return err
	}
	r.recordsWritten++
	if r.crashAfterRecords > 0 && r.recordsWritten >= r.crashAfterRecords {
		return ErrSimulatedCrash
	}
	return nil
}

// journalEpochBegin declares the intent to execute the current epoch.
func (r *Runner) journalEpochBegin(rung int, modeledMS float64) error {
	if r.opts.Journal == nil {
		return nil
	}
	var e journal.Enc
	e.Int(r.epoch)
	e.U64(r.Snapshot().Hash())
	e.Int(rung)
	e.F64(modeledMS)
	return r.journalAppend(journal.KindEpochBegin, e.Bytes())
}

// journalPlacement records the placement decision before it is applied.
func (r *Runner) journalPlacement(res scheduler.Result, rejected []int) error {
	if r.opts.Journal == nil {
		return nil
	}
	var e journal.Enc
	e.F64(res.TargetUtil)
	if res.AllServersOn {
		e.Int(1)
	} else {
		e.Int(0)
	}
	e.Ints(res.Placement)
	e.Ints(rejected)
	return r.journalAppend(journal.KindPlacement, e.Bytes())
}

// journalWave records one migration wave (the containers it transfers)
// before the transfers run — the boundary mid-commit crashes tear at.
func (r *Runner) journalWave(wi int, plan *migrate.Plan, wave []int) error {
	if r.opts.Journal == nil {
		return nil
	}
	containers := make([]int, 0, len(wave))
	for _, mi := range wave {
		containers = append(containers, plan.Moves[mi].Container)
	}
	var e journal.Enc
	e.Int(wi)
	e.Ints(containers)
	return r.journalAppend(journal.KindWave, e.Bytes())
}

// journalCommit seals the epoch: the full report plus the post-epoch
// state (whose Epoch field already points at the next epoch to run).
func (r *Runner) journalCommit(rep EpochReport) error {
	if r.opts.Journal == nil {
		return nil
	}
	var e journal.Enc
	encodeReport(&e, rep)
	r.Snapshot().Encode(&e)
	return r.journalAppend(journal.KindCommit, e.Bytes())
}

// journalAudit journals the audit decisions recorded since the last call
// (the current epoch's slice of the session log) so `-explain` can answer
// from the journal alone. Written just before the commit record: a
// decision is authoritative only once the epoch that made it commits, and
// recovery replays exactly the audit records whose epochs sealed.
func (r *Runner) journalAudit() error {
	sess := r.opts.Telemetry
	if r.opts.Journal == nil || !sess.Auditing() {
		return nil
	}
	recs := sess.Audit.Records()
	fresh := recs[r.auditJournaled:]
	r.auditJournaled = len(recs)
	if len(fresh) == 0 {
		return nil
	}
	var e journal.Enc
	e.Int(len(fresh))
	for _, d := range fresh {
		encodeDecision(&e, d)
	}
	return r.journalAppend(journal.KindAudit, e.Bytes())
}

// SyncAuditCursor marks every decision currently in the session audit log
// as already journaled. A resume calls it after replaying the committed
// audit records back into the session, so the resumed runner does not
// re-journal history it just replayed. Records added *after* the sync
// (e.g. Reconcile's rollback decisions) are fresh and ride the next
// epoch's audit record.
func (r *Runner) SyncAuditCursor() {
	sess := r.opts.Telemetry
	if sess.Auditing() {
		r.auditJournaled = sess.Audit.Len()
	}
}

// encodeDecision writes one audit decision in field-declaration order.
// Like encodeReport, the order is part of the journal format: append new
// fields at the end only.
func encodeDecision(e *journal.Enc, d telemetry.Decision) {
	e.Int(d.Epoch)
	e.Dur(d.SimAt)
	e.Str(d.Policy)
	e.Int(d.Container)
	e.Int(d.Group)
	e.Str(string(d.Action))
	e.Int(d.Server)
	e.Int(d.From)
	e.F64(d.Headroom)
	e.Str(d.Detail)
	e.Int(len(d.Candidates))
	for _, c := range d.Candidates {
		e.Str(c.Subtree)
		e.Str(c.Outcome)
	}
}

// decodeDecision reads a decision written by encodeDecision.
func decodeDecision(d *journal.Dec) (telemetry.Decision, error) {
	var dec telemetry.Decision
	dec.Epoch = d.Int()
	dec.SimAt = d.Dur()
	dec.Policy = d.Str()
	dec.Container = d.Int()
	dec.Group = d.Int()
	dec.Action = telemetry.Action(d.Str())
	dec.Server = d.Int()
	dec.From = d.Int()
	dec.Headroom = d.F64()
	dec.Detail = d.Str()
	n := d.Int()
	if err := d.Err(); err != nil {
		return telemetry.Decision{}, err
	}
	if n < 0 || n > 1<<20 {
		return telemetry.Decision{}, fmt.Errorf("cluster: audit decision carries %d candidates", n)
	}
	for i := 0; i < n; i++ {
		sub := d.Str()
		out := d.Str()
		dec.Candidates = append(dec.Candidates, telemetry.Candidate{Subtree: sub, Outcome: out})
	}
	return dec, d.Err()
}

// decodeAuditRecord reads one KindAudit record body: the decisions the
// committing epoch appended.
func decodeAuditRecord(body []byte) ([]telemetry.Decision, error) {
	d := journal.NewDec(body)
	n := d.Int()
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n < 0 || n > 1<<22 {
		return nil, fmt.Errorf("cluster: audit record carries %d decisions", n)
	}
	decs := make([]telemetry.Decision, 0, n)
	for i := 0; i < n; i++ {
		dec, err := decodeDecision(d)
		if err != nil {
			return nil, err
		}
		decs = append(decs, dec)
	}
	return decs, nil
}

// WriteCheckpoint opens a fresh journal's record stream: the run
// configuration hash (so a resume refuses to continue a different run)
// plus the initial runner state.
func WriteCheckpoint(w *journal.Writer, cfgHash uint64, st journal.RunnerState) error {
	var e journal.Enc
	e.U64(cfgHash)
	st.Encode(&e)
	return w.Append(journal.KindCheckpoint, e.Bytes())
}

// encodeReport writes every EpochReport field in declaration order. The
// encoding is part of the journal format: append new fields at the end.
func encodeReport(e *journal.Enc, rep EpochReport) {
	e.Int(rep.Epoch)
	e.Dur(rep.Time)
	e.Str(rep.Policy)
	e.Int(rep.ActiveServers)
	e.F64(rep.ServerPowerW)
	e.F64(rep.NetworkPowerW)
	e.F64(rep.TotalPowerW)
	e.F64(rep.TCT.MeanMS)
	e.F64(rep.TCT.P50MS)
	e.F64(rep.TCT.P95MS)
	e.F64(rep.TCT.P99MS)
	e.Int(rep.TCT.Count)
	e.F64(rep.MeanTCTMS)
	e.F64(rep.Requests)
	e.F64(rep.EnergyJ)
	e.F64(rep.EnergyPerRequestJ)
	e.Int(rep.Migrations)
	e.F64(rep.MigrationMB)
	e.F64(rep.MeanServerUtil)
	e.F64(rep.SLAViolations)
	e.Int(rep.FailedServers)
	e.Int(rep.DisplacedContainers)
	encodeVector(e, rep.DisplacedDemand)
	e.Int(rep.GroupsDown)
	e.Int(rep.RecoveryMigrations)
	e.F64(rep.RecoveryTimeS)
	e.F64(rep.Availability)
	e.Int(rep.AdmissionRejected)
	encodeVector(e, rep.RejectedDemand)
	e.F64(rep.SpillTarget)
	e.Int(rep.LadderRung)
	e.F64(rep.ModeledSolveMS)
	e.Int(rep.MigrationRetries)
	e.Int(rep.DroppedMigrations)
}

// decodeReport reads a report written by encodeReport.
func decodeReport(d *journal.Dec) (EpochReport, error) {
	var rep EpochReport
	rep.Epoch = d.Int()
	rep.Time = d.Dur()
	rep.Policy = d.Str()
	rep.ActiveServers = d.Int()
	rep.ServerPowerW = d.F64()
	rep.NetworkPowerW = d.F64()
	rep.TotalPowerW = d.F64()
	rep.TCT = metrics.TCTStats{
		MeanMS: d.F64(),
		P50MS:  d.F64(),
		P95MS:  d.F64(),
		P99MS:  d.F64(),
		Count:  d.Int(),
	}
	rep.MeanTCTMS = d.F64()
	rep.Requests = d.F64()
	rep.EnergyJ = d.F64()
	rep.EnergyPerRequestJ = d.F64()
	rep.Migrations = d.Int()
	rep.MigrationMB = d.F64()
	rep.MeanServerUtil = d.F64()
	rep.SLAViolations = d.F64()
	rep.FailedServers = d.Int()
	rep.DisplacedContainers = d.Int()
	rep.DisplacedDemand = decodeVector(d)
	rep.GroupsDown = d.Int()
	rep.RecoveryMigrations = d.Int()
	rep.RecoveryTimeS = d.F64()
	rep.Availability = d.F64()
	rep.AdmissionRejected = d.Int()
	rep.RejectedDemand = decodeVector(d)
	rep.SpillTarget = d.F64()
	rep.LadderRung = d.Int()
	rep.ModeledSolveMS = d.F64()
	rep.MigrationRetries = d.Int()
	rep.DroppedMigrations = d.Int()
	return rep, d.Err()
}

func encodeVector(e *journal.Enc, v resources.Vector) {
	for i := 0; i < int(resources.NumDims); i++ {
		e.F64(v[i])
	}
}

func decodeVector(d *journal.Dec) resources.Vector {
	var v resources.Vector
	for i := 0; i < int(resources.NumDims); i++ {
		v[i] = d.F64()
	}
	return v
}

// JournalView is a decoded journal: what a resume restores (RecoverJournal)
// and what an analysis tool (goldilocks-inspect, journal-only -explain)
// reads without reopening the log (ReadJournal).
type JournalView struct {
	// CfgHash is the run-configuration hash stamped by WriteCheckpoint.
	CfgHash uint64
	// State is the last committed runner state; its Epoch is the next
	// epoch to execute. The initial checkpoint counts — a journal with no
	// epoch commits recovers to the checkpointed start state.
	State journal.RunnerState
	// Reports holds every committed epoch's report, in order, decoded
	// from the commit records. A resume reprints these instead of
	// re-running their epochs: the journal, not the dead process's
	// stdout, is the authoritative report stream.
	Reports []EpochReport
	// Audit holds every *committed* audit decision, in record order: the
	// KindAudit payloads whose epochs sealed. A resume replays them into
	// the live session so -explain answers span the pre-crash history.
	Audit []telemetry.Decision
	// Records is every valid record of the file, checkpoint included.
	Records []journal.Raw
	// Orphans are the records after the last commit — the partially
	// journaled epoch a crash tore. Pass them to Reconcile.
	Orphans []journal.Raw
	// Torn reports a CRC-failing tail after the valid prefix (which
	// RecoverJournal truncates away).
	Torn bool
}

// decodeJournal is the one decoder of a journal's record stream: the
// checkpoint, then every commit's report and state, sealing the audit
// records journaled since the previous commit.
func decodeJournal(path string, recs []journal.Raw, torn bool) (JournalView, error) {
	if len(recs) == 0 || recs[0].Kind != journal.KindCheckpoint {
		return JournalView{}, fmt.Errorf("cluster: journal %s has no checkpoint record", path)
	}
	view := JournalView{Records: recs, Torn: torn}
	d := journal.NewDec(recs[0].Body)
	view.CfgHash = d.U64()
	var err error
	if view.State, err = journal.DecodeRunnerState(d); err != nil {
		return JournalView{}, fmt.Errorf("cluster: journal checkpoint: %w", err)
	}
	lastCommit := 0
	var pendingAudit []telemetry.Decision
	for i := 1; i < len(recs); i++ {
		switch recs[i].Kind {
		case journal.KindAudit:
			decs, err := decodeAuditRecord(recs[i].Body)
			if err != nil {
				return JournalView{}, fmt.Errorf("cluster: audit record %d: %w", i, err)
			}
			pendingAudit = append(pendingAudit, decs...)
		case journal.KindCommit:
			cd := journal.NewDec(recs[i].Body)
			rep, err := decodeReport(cd)
			if err != nil {
				return JournalView{}, fmt.Errorf("cluster: commit record %d: %w", i, err)
			}
			cst, err := journal.DecodeRunnerState(cd)
			if err != nil {
				return JournalView{}, fmt.Errorf("cluster: commit record %d state: %w", i, err)
			}
			view.Reports = append(view.Reports, rep)
			view.State = cst
			// The commit seals every audit decision journaled since the
			// prior commit; audit records in the orphan tail stay
			// uncommitted.
			view.Audit = append(view.Audit, pendingAudit...)
			pendingAudit = nil
			lastCommit = i
		}
	}
	view.Orphans = recs[lastCommit+1:]
	return view, nil
}

// ReadJournal decodes the journal at path without opening it for append
// and without a configuration check — analysis is read-only and must work
// on logs from runs whose configuration the inspector does not know.
func ReadJournal(path string) (JournalView, error) {
	recs, _, torn, err := journal.ReadFile(path, nil)
	if err != nil {
		return JournalView{}, err
	}
	return decodeJournal(path, recs, torn)
}

// RecoverJournal decodes a journal, rolls state back to the last commit,
// and reopens the log for append after its valid prefix (truncating a
// torn tail). cfgHash must match the hash stamped by WriteCheckpoint —
// resuming a journal from a different run configuration is refused, since
// re-execution would diverge from the journaled intents. A refused
// journal is left untouched on disk.
func RecoverJournal(path string, cfgHash uint64, sess *telemetry.Session) (*journal.Writer, JournalView, error) {
	recs, validLen, torn, err := journal.ReadFile(path, sess)
	if err != nil {
		return nil, JournalView{}, err
	}
	span := sess.Root("journal-replay", 0)
	defer span.End()
	span.SetInt("records", len(recs))

	view, err := decodeJournal(path, recs, torn)
	if err != nil {
		return nil, JournalView{}, err
	}
	if view.CfgHash != cfgHash {
		return nil, JournalView{}, fmt.Errorf("cluster: journal %s was written by a different run configuration (hash %016x, want %016x)", path, view.CfgHash, cfgHash)
	}
	w, err := journal.Resume(path, validLen, sess)
	if err != nil {
		return nil, JournalView{}, err
	}
	span.SetInt("committed_epochs", len(view.Reports))
	span.SetInt("orphan_records", len(view.Orphans))
	return w, view, nil
}

// ReconcileReport classifies the uncommitted tail of a recovered journal.
type ReconcileReport struct {
	// UncommittedEpoch is the epoch the crash interrupted (-1 when the
	// crash fell exactly on an epoch boundary and there is nothing to
	// reconcile).
	UncommittedEpoch int
	// Rung is the interrupted epoch's journaled ladder rung.
	Rung int
	// OrphanWaves counts migration waves that were journaled (and so may
	// have partially run) before the crash.
	OrphanWaves int
	// RolledBack counts containers in those waves rolled back to their
	// live source server; re-execution re-decides their moves.
	RolledBack int
	// Replaced counts containers that cannot roll back — dead source, or
	// a fresh arrival with no source — and will be re-placed from
	// scratch by the re-executed epoch.
	Replaced int
}

// Reconcile audits the orphaned records of a torn epoch against the
// restored state. It mutates nothing: recovery is rollback-and-reexecute,
// so the restored checkpoint already *is* the truth. What Reconcile adds
// is the audit trail — which placement was discarded, which half-applied
// migration waves rolled back to their journaled sources (classified
// through migrate.Replan, the same machinery live stuck-transfer handling
// uses) — so an operator can see exactly what the crash interrupted.
// Call it after Restore(out.State), with the interrupted epoch's spec.
func (r *Runner) Reconcile(spec *workload.Spec, orphans []journal.Raw) (ReconcileReport, error) {
	rec := ReconcileReport{UncommittedEpoch: -1}
	if len(orphans) == 0 {
		return rec, nil
	}
	sess := r.opts.Telemetry
	span := sess.Root("journal-reconcile", 0)
	defer span.End()

	var placement []int
	waveContainers := make(map[int]bool)
	for _, o := range orphans {
		d := journal.NewDec(o.Body)
		switch o.Kind {
		case journal.KindEpochBegin:
			rec.UncommittedEpoch = d.Int()
			_ = d.U64() // state hash
			rec.Rung = d.Int()
		case journal.KindPlacement:
			_ = d.F64() // target util
			_ = d.Int() // all-servers-on
			placement = d.Ints()
		case journal.KindWave:
			_ = d.Int() // wave index
			rec.OrphanWaves++
			for _, c := range d.Ints() {
				waveContainers[c] = true
			}
		case journal.KindCommit, journal.KindCheckpoint:
			return rec, fmt.Errorf("cluster: %s record in the uncommitted tail", o.Kind)
		}
		if err := d.Err(); err != nil {
			return rec, fmt.Errorf("cluster: orphan %s record: %w", o.Kind, err)
		}
	}
	span.SetInt("epoch", rec.UncommittedEpoch)
	span.SetInt("orphan_waves", rec.OrphanWaves)
	if placement == nil || len(waveContainers) == 0 {
		return rec, nil // no waves started: nothing was half-applied
	}
	if len(placement) != len(spec.Containers) {
		return rec, fmt.Errorf("cluster: journaled placement covers %d containers, spec has %d — wrong workload for this journal", len(placement), len(spec.Containers))
	}

	// Rebuild the interrupted transfer plan from the journaled intent,
	// mark the journaled waves' moves as interrupted, and let Replan
	// classify the rollback: live sources take their container back
	// (dst == source → restart-in-place bucket), dead or absent sources
	// leave the container to the re-executed epoch (dropped bucket).
	carried := r.Carried(spec)
	rollback := append([]int(nil), carried...)
	for i, s := range rollback {
		if s >= 0 && r.topo.ServerFailed(s) {
			rollback[i] = -1
		}
	}
	moves, err := migrate.PlanMoves(spec, carried, placement)
	if err != nil {
		return rec, err
	}
	plan := migrate.Schedule(moves)
	var interrupted []int
	for i, m := range plan.Moves {
		if waveContainers[m.Container] {
			interrupted = append(interrupted, i)
		}
	}
	_, restarts, replaced, err := migrate.Replan(r.topo, plan, interrupted, rollback)
	if err != nil {
		return rec, err
	}
	rec.RolledBack = len(restarts)
	rec.Replaced = len(replaced)
	span.SetInt("rolled_back", rec.RolledBack)
	span.SetInt("replaced", rec.Replaced)
	sess.Counter("journal_reconcile_rollbacks_total").Add(int64(rec.RolledBack))
	if sess.Auditing() {
		for _, m := range restarts {
			sess.Decide(telemetry.Decision{
				Policy: r.policy.Name(), Container: spec.Containers[m.Container].ID, Group: -1,
				Action: telemetry.ActionRolledBack, Server: m.To, From: m.From,
				Detail: fmt.Sprintf("crash tore epoch %d mid-commit; half-applied transfer rolled back to server %d", rec.UncommittedEpoch, m.To),
			})
		}
	}
	return rec, nil
}
