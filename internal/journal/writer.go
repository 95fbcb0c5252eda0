// File-backed journal lifecycle: Create opens a fresh log, ReadFile scans
// an existing one, Resume truncates the torn tail ReadFile found and
// reopens for append. Every Append frames, writes, and fsyncs one record
// — the journal is a WAL, so a record the caller saw succeed is on disk
// before the epoch effects it describes are applied.
package journal

import (
	"fmt"
	"os"

	"goldilocks/internal/telemetry"
)

// Writer appends framed records to a journal file. Not safe for
// concurrent use — the epoch loop is single-threaded, and so is its log.
type Writer struct {
	f   *os.File
	buf []byte // frame scratch, reused across Appends

	// Telemetry counters are resolved once at construction so the
	// per-record path never touches the registry map; with a nil session
	// they are nil and every update is the no-op fast path (0 allocs).
	records *telemetry.Counter
	bytes   *telemetry.Counter
	fsyncs  *telemetry.Counter
}

func newWriter(f *os.File, sess *telemetry.Session) *Writer {
	return &Writer{
		f:       f,
		records: sess.Counter("journal_records_written_total"),
		bytes:   sess.Counter("journal_bytes_written_total"),
		fsyncs:  sess.Counter("journal_fsyncs_total"),
	}
}

// Create opens path as a fresh journal (truncating any previous file) and
// writes the magic header.
func Create(path string, sess *telemetry.Session) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: create: %w", err)
	}
	if _, err := f.Write(Magic()); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: write magic: %w", err)
	}
	return newWriter(f, sess), nil
}

// ReadFile scans the journal at path: the records of the valid prefix,
// whether a torn tail follows it, and the prefix's byte length. A session
// (optional) receives replay counters and the torn-tail counter.
func ReadFile(path string, sess *telemetry.Session) (recs []Raw, validLen int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false, fmt.Errorf("journal: read: %w", err)
	}
	recs, n, torn, err := Scan(data)
	if err != nil {
		return nil, 0, false, err
	}
	sess.Counter("journal_records_replayed_total").Add(int64(len(recs)))
	if torn {
		sess.Counter("journal_torn_tails_total").Inc()
	}
	return recs, int64(n), torn, nil
}

// Resume reopens an existing journal for append after its valid prefix:
// validLen is the prefix length ReadFile reported, and anything beyond it
// (a torn tail) is truncated away.
func Resume(path string, validLen int64, sess *telemetry.Session) (*Writer, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: reopen: %w", err)
	}
	if err := f.Truncate(validLen); err != nil {
		f.Close()
		return nil, fmt.Errorf("journal: truncate torn tail: %w", err)
	}
	return newWriter(f, sess), nil
}

// Append frames one record, writes it, and fsyncs. The record is durable
// when Append returns.
func (w *Writer) Append(kind Kind, body []byte) error {
	if w == nil {
		return nil
	}
	w.buf = AppendRecord(w.buf[:0], kind, body)
	if _, err := w.f.Write(w.buf); err != nil {
		return fmt.Errorf("journal: append %s: %w", kind, err)
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("journal: fsync: %w", err)
	}
	w.records.Inc()
	w.bytes.Add(int64(len(w.buf)))
	w.fsyncs.Inc()
	return nil
}

// Close releases the file. Append after Close fails.
func (w *Writer) Close() error {
	if w == nil || w.f == nil {
		return nil
	}
	return w.f.Close()
}
