package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"goldilocks/internal/cluster"
)

// ArtifactDiff is the byte-identity verdict for one artifact pair.
type ArtifactDiff struct {
	Artifact string `json:"artifact"` // "trace", "metrics", "audit", "journal"
	// Present says which sides have the artifact: "both", "a-only",
	// "b-only", "neither".
	Present   string `json:"present"`
	Identical bool   `json:"identical"`
	// FirstDivergence locates the first differing unit when both sides
	// have the artifact and differ: "line N: ..." for text artifacts,
	// "record N (kind): ..." for the journal.
	FirstDivergence string `json:"first_divergence,omitempty"`
}

// FieldDelta is one diverging EpochReport field.
type FieldDelta struct {
	Field string  `json:"field"`
	A     float64 `json:"a"`
	B     float64 `json:"b"`
	Delta float64 `json:"delta"`
}

// EpochDelta lists one epoch's diverging report fields.
type EpochDelta struct {
	Epoch   int          `json:"epoch"`
	PolicyA string       `json:"policy_a,omitempty"`
	PolicyB string       `json:"policy_b,omitempty"`
	Fields  []FieldDelta `json:"fields,omitempty"`
}

// DiffReport is the full comparison of two runs.
type DiffReport struct {
	RunA string `json:"run_a"`
	RunB string `json:"run_b"`
	// Identical is true when every artifact present on either side is
	// present and byte-identical on both — the inspect-guard contract for
	// two same-seed runs.
	Identical bool           `json:"identical"`
	Artifacts []ArtifactDiff `json:"artifacts"`
	// EpochsA/B count the journaled reports on each side.
	EpochsA int `json:"epochs_a"`
	EpochsB int `json:"epochs_b"`
	// FirstDivergingEpoch is the first epoch whose reports differ (-1
	// when the streams agree over their common prefix).
	FirstDivergingEpoch int `json:"first_diverging_epoch"`
	// Epochs holds the per-epoch deltas (diverging fields only).
	Epochs []EpochDelta `json:"epochs,omitempty"`
}

// reportFields is the diff surface of an EpochReport: the per-epoch axes
// operators compare across policies and the control-plane robustness
// axes. Order is presentation order.
var reportFields = []struct {
	name string
	get  func(r cluster.EpochReport) float64
}{
	{"active_servers", func(r cluster.EpochReport) float64 { return float64(r.ActiveServers) }},
	{"total_power_w", func(r cluster.EpochReport) float64 { return r.TotalPowerW }},
	{"mean_tct_ms", func(r cluster.EpochReport) float64 { return r.MeanTCTMS }},
	{"p99_tct_ms", func(r cluster.EpochReport) float64 { return r.TCT.P99MS }},
	{"energy_per_request_j", func(r cluster.EpochReport) float64 { return r.EnergyPerRequestJ }},
	{"migrations", func(r cluster.EpochReport) float64 { return float64(r.Migrations) }},
	{"migration_mb", func(r cluster.EpochReport) float64 { return r.MigrationMB }},
	{"migration_retries", func(r cluster.EpochReport) float64 { return float64(r.MigrationRetries) }},
	{"dropped_migrations", func(r cluster.EpochReport) float64 { return float64(r.DroppedMigrations) }},
	{"ladder_rung", func(r cluster.EpochReport) float64 { return float64(r.LadderRung) }},
	{"modeled_solve_ms", func(r cluster.EpochReport) float64 { return r.ModeledSolveMS }},
	{"recovery_time_s", func(r cluster.EpochReport) float64 { return r.RecoveryTimeS }},
	{"availability", func(r cluster.EpochReport) float64 { return r.Availability }},
	{"sla_violations", func(r cluster.EpochReport) float64 { return r.SLAViolations }},
	{"admission_rejected", func(r cluster.EpochReport) float64 { return float64(r.AdmissionRejected) }},
}

// Diff compares two loaded runs: byte identity per artifact (with first
// divergence), then per-epoch report deltas from the journaled streams.
func Diff(a, b *Run) *DiffReport {
	rep := &DiffReport{RunA: a.Dir, RunB: b.Dir, Identical: true, FirstDivergingEpoch: -1}

	rep.addArtifact("trace", a.TraceData, b.TraceData, firstLineDivergence)
	rep.addArtifact("metrics", a.MetricsData, b.MetricsData, firstLineDivergence)
	rep.addArtifact("audit", a.AuditData, b.AuditData, firstLineDivergence)
	rep.addJournal(a, b)

	ra, rb := a.Reports(), b.Reports()
	rep.EpochsA, rep.EpochsB = len(ra), len(rb)
	n := len(ra)
	if len(rb) < n {
		n = len(rb)
	}
	for i := 0; i < n; i++ {
		d := EpochDelta{Epoch: ra[i].Epoch}
		if ra[i].Policy != rb[i].Policy {
			d.PolicyA, d.PolicyB = ra[i].Policy, rb[i].Policy
		}
		for _, f := range reportFields {
			va, vb := f.get(ra[i]), f.get(rb[i])
			if va != vb {
				d.Fields = append(d.Fields, FieldDelta{Field: f.name, A: va, B: vb, Delta: vb - va})
			}
		}
		if len(d.Fields) > 0 || d.PolicyA != d.PolicyB {
			if rep.FirstDivergingEpoch < 0 {
				rep.FirstDivergingEpoch = d.Epoch
			}
			rep.Epochs = append(rep.Epochs, d)
		}
	}
	if len(ra) != len(rb) {
		rep.Identical = false
		if rep.FirstDivergingEpoch < 0 {
			rep.FirstDivergingEpoch = n
		}
	}
	if len(rep.Epochs) > 0 {
		rep.Identical = false
	}
	return rep
}

func (rep *DiffReport) addArtifact(name string, da, db []byte, diverge func(da, db []byte) string) {
	ad := ArtifactDiff{Artifact: name}
	switch {
	case da == nil && db == nil:
		ad.Present, ad.Identical = "neither", true
	case db == nil:
		ad.Present = "a-only"
	case da == nil:
		ad.Present = "b-only"
	default:
		ad.Present = "both"
		ad.Identical = bytes.Equal(da, db)
		if !ad.Identical {
			ad.FirstDivergence = diverge(da, db)
		}
	}
	if !ad.Identical {
		rep.Identical = false
	}
	rep.Artifacts = append(rep.Artifacts, ad)
}

// addJournal diffs the journals at the framed-record level so the first
// diverging record (and its kind) is named even when the byte streams
// disagree deep inside a record body.
func (rep *DiffReport) addJournal(a, b *Run) {
	ad := ArtifactDiff{Artifact: "journal"}
	switch {
	case a.JournalPath == "" && b.JournalPath == "":
		ad.Present, ad.Identical = "neither", true
	case b.JournalPath == "":
		ad.Present = "a-only"
	case a.JournalPath == "":
		ad.Present = "b-only"
	default:
		ad.Present = "both"
		ad.Identical = true
		ra, rb := a.View.Records, b.View.Records
		n := min(len(ra), len(rb))
		for i := 0; i < n; i++ {
			if ra[i].Kind != rb[i].Kind {
				ad.Identical = false
				ad.FirstDivergence = fmt.Sprintf("record %d: kind %s vs %s", i, ra[i].Kind, rb[i].Kind)
				break
			}
			if !bytes.Equal(ra[i].Body, rb[i].Body) {
				ad.Identical = false
				ad.FirstDivergence = fmt.Sprintf("record %d (%s): %d-byte body vs %d-byte body differ", i, ra[i].Kind, len(ra[i].Body), len(rb[i].Body))
				break
			}
		}
		if ad.Identical && len(ra) != len(rb) {
			ad.Identical = false
			ad.FirstDivergence = fmt.Sprintf("record %d: present in one journal only (%d vs %d records)", n, len(ra), len(rb))
		}
	}
	if !ad.Identical {
		rep.Identical = false
	}
	rep.Artifacts = append(rep.Artifacts, ad)
}

// firstLineDivergence names the first differing line of two text
// artifacts, 1-indexed, quoting both sides (truncated).
func firstLineDivergence(da, db []byte) string {
	la := bytes.Split(da, []byte("\n"))
	lb := bytes.Split(db, []byte("\n"))
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Sprintf("line %d: %q vs %q", i+1, clip(la[i]), clip(lb[i]))
		}
	}
	return fmt.Sprintf("line %d: present in one artifact only", n+1)
}

func clip(b []byte) string {
	const max = 80
	if len(b) <= max {
		return string(b)
	}
	return string(b[:max]) + "..."
}

// WriteJSON renders the diff machine-readably.
func (rep *DiffReport) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// WriteMarkdown renders the diff as the human-facing report.
func (rep *DiffReport) WriteMarkdown(w io.Writer) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# Run diff\n\n- A: `%s`\n- B: `%s`\n\n", rep.RunA, rep.RunB)
	if rep.Identical {
		buf.WriteString("**Runs are identical**: every shared artifact matches byte for byte.\n")
	} else {
		fmt.Fprintf(&buf, "**Runs differ** (first diverging epoch: %s).\n", divergingEpochLabel(rep))
	}
	buf.WriteString("\n## Artifacts\n\n| artifact | present | identical | first divergence |\n|---|---|---|---|\n")
	for _, ad := range rep.Artifacts {
		ident := "no"
		if ad.Identical {
			ident = "yes"
		}
		div := ad.FirstDivergence
		if div == "" {
			div = "—"
		}
		fmt.Fprintf(&buf, "| %s | %s | %s | %s |\n", ad.Artifact, ad.Present, ident, div)
	}
	if len(rep.Epochs) > 0 {
		fmt.Fprintf(&buf, "\n## Epoch deltas (%d vs %d epochs, %d differ)\n", rep.EpochsA, rep.EpochsB, len(rep.Epochs))
		for _, d := range rep.Epochs {
			fmt.Fprintf(&buf, "\n### Epoch %d", d.Epoch)
			if d.PolicyA != d.PolicyB {
				fmt.Fprintf(&buf, " (policy %s vs %s)", d.PolicyA, d.PolicyB)
			}
			buf.WriteString("\n\n| field | A | B | delta |\n|---|---|---|---|\n")
			for _, f := range d.Fields {
				fmt.Fprintf(&buf, "| %s | %g | %g | %+g |\n", f.Field, f.A, f.B, f.Delta)
			}
		}
	}
	_, err := w.Write(buf.Bytes())
	return err
}

func divergingEpochLabel(rep *DiffReport) string {
	if rep.FirstDivergingEpoch < 0 {
		return "none in the common prefix"
	}
	return fmt.Sprintf("%d", rep.FirstDivergingEpoch)
}
