package obs

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"goldilocks/internal/cluster"
)

// Canonical artifact file names inside a run directory — the names the
// Makefile/CI targets and inspect-guard write. A journal is any *.wal in
// the directory (crashchaos writes <dir>/crashchaos.wal, so a -journal
// directory doubles as a run directory).
const (
	TraceFile   = "trace.json"
	MetricsFile = "metrics.prom"
	AuditFile   = "audit.txt"
)

// Run is one run's loaded artifact set. Every artifact is optional: a
// missing file leaves its field nil, and each analysis declares what it
// needs.
type Run struct {
	Dir string
	// Raw artifact bytes (nil when the file is absent).
	TraceData   []byte
	MetricsData []byte
	AuditData   []byte
	// JournalPath is the discovered *.wal (first in name order), "" when
	// none; View its decoded form (raw framed records included).
	JournalPath string
	View        *cluster.JournalView
}

// Reports returns the journaled EpochReport stream (nil without a journal).
func (r *Run) Reports() []cluster.EpochReport {
	if r.View == nil {
		return nil
	}
	return r.View.Reports
}

// LoadRun loads the artifacts found in dir. Only the journal is decoded
// eagerly (the report stream feeds diff and slo); trace bytes are parsed
// on demand by the analysis that needs the span tree.
func LoadRun(dir string) (*Run, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("obs: load run: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("obs: load run: %s is not a directory", dir)
	}
	run := &Run{Dir: dir}
	read := func(name string) []byte {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil
		}
		return data
	}
	run.TraceData = read(TraceFile)
	run.MetricsData = read(MetricsFile)
	run.AuditData = read(AuditFile)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("obs: load run: %w", err)
	}
	var wals []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".wal") {
			wals = append(wals, e.Name())
		}
	}
	sort.Strings(wals)
	if len(wals) > 0 {
		run.JournalPath = filepath.Join(dir, wals[0])
		view, err := cluster.ReadJournal(run.JournalPath)
		if err != nil {
			return nil, fmt.Errorf("obs: journal %s: %w", run.JournalPath, err)
		}
		run.View = &view
	}
	return run, nil
}

// Trace parses the run's Chrome trace (nil, nil when absent).
func (r *Run) Trace() (*Trace, error) {
	if r.TraceData == nil {
		return nil, nil
	}
	return ParseChromeTrace(r.TraceData)
}
