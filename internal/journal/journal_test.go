package journal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestAppendScanRoundTrip(t *testing.T) {
	var e Enc
	e.Int(-42)
	e.F64(3.14159)
	e.Str("hello")
	e.Ints([]int{1, 2, 3})
	e.Dur(7 * time.Second)
	body := append([]byte(nil), e.Bytes()...)

	data := append([]byte(nil), Magic()...)
	data = AppendRecord(data, KindEpochBegin, body)
	data = AppendRecord(data, KindCommit, nil)

	recs, validLen, torn, err := Scan(data)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Fatal("clean image reported torn")
	}
	if validLen != len(data) {
		t.Fatalf("validLen = %d, want %d", validLen, len(data))
	}
	if len(recs) != 2 || recs[0].Kind != KindEpochBegin || recs[1].Kind != KindCommit {
		t.Fatalf("recs = %+v", recs)
	}
	d := NewDec(recs[0].Body)
	if got := d.Int(); got != -42 {
		t.Fatalf("Int = %d", got)
	}
	if got := d.F64(); got != 3.14159 {
		t.Fatalf("F64 = %v", got)
	}
	if got := d.Str(); got != "hello" {
		t.Fatalf("Str = %q", got)
	}
	if got := d.Ints(); len(got) != 3 || got[2] != 3 {
		t.Fatalf("Ints = %v", got)
	}
	if got := d.Dur(); got != 7*time.Second {
		t.Fatalf("Dur = %v", got)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 0 {
		t.Fatalf("%d bytes left over", d.Len())
	}
}

func TestScanDetectsTornTail(t *testing.T) {
	data := append([]byte(nil), Magic()...)
	data = AppendRecord(data, KindEpochBegin, []byte("abc"))
	whole := len(data)
	data = AppendRecord(data, KindCommit, []byte("defghij"))

	// Every proper prefix that cuts into the second record must scan as
	// one valid record plus a torn tail at the first record's boundary.
	for cut := whole + 1; cut < len(data); cut++ {
		recs, validLen, torn, err := Scan(data[:cut])
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !torn {
			t.Fatalf("cut %d: torn tail not detected", cut)
		}
		if validLen != whole || len(recs) != 1 {
			t.Fatalf("cut %d: validLen=%d recs=%d, want %d/1", cut, validLen, len(recs), whole)
		}
	}
}

func TestScanDetectsBitFlip(t *testing.T) {
	data := append([]byte(nil), Magic()...)
	data = AppendRecord(data, KindPlacement, []byte("payload-bytes"))
	for i := len(Magic()) + headerLen; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		recs, _, torn, err := Scan(mut)
		if err != nil {
			t.Fatalf("flip %d: %v", i, err)
		}
		if !torn || len(recs) != 0 {
			t.Fatalf("flip %d: corruption not detected (torn=%v recs=%d)", i, torn, len(recs))
		}
	}
}

func TestScanRejectsBadMagic(t *testing.T) {
	if _, _, _, err := Scan([]byte("NOPE....")); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, _, _, err := Scan(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestRunnerStateRoundTripAndHash(t *testing.T) {
	st := RunnerState{
		Epoch:        17,
		TotalEnergyJ: 123456.789,
		TotalReqs:    42.5,
		Place:        []Assignment{{1, 0}, {2, 3}, {9, -1}},
	}
	var e Enc
	st.Encode(&e)
	got, err := DecodeRunnerState(NewDec(e.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != st.Epoch || got.TotalEnergyJ != st.TotalEnergyJ || got.TotalReqs != st.TotalReqs {
		t.Fatalf("got %+v want %+v", got, st)
	}
	if len(got.Place) != 3 || got.Place[2] != (Assignment{9, -1}) {
		t.Fatalf("place = %+v", got.Place)
	}
	if st.Hash() != got.Hash() {
		t.Fatal("hash changed across round trip")
	}
	st2 := st
	st2.Place = append([]Assignment(nil), st.Place...)
	st2.Place[1].Server = 4
	if st.Hash() == st2.Hash() {
		t.Fatal("hash blind to a moved container")
	}
}

func TestWriterCreateResumeTruncatesTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "epochs.wal")
	w, err := Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(KindCheckpoint, []byte("cfg")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(KindCommit, []byte("epoch-0")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: garbage after the last valid record.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x01, 0x02}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	recs, validLen, torn, err := ReadFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !torn {
		t.Fatal("torn tail not detected")
	}
	if len(recs) != 2 || recs[1].Kind != KindCommit || string(recs[1].Body) != "epoch-0" {
		t.Fatalf("resume recs = %+v", recs)
	}
	w2, err := Resume(path, validLen, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(KindCommit, []byte("epoch-1")); err != nil {
		t.Fatal(err)
	}
	w2.Close()

	recs2, _, torn, err := ReadFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Fatal("resumed file still torn")
	}
	if len(recs2) != 3 || string(recs2[2].Body) != "epoch-1" {
		t.Fatalf("after resume recs = %+v", recs2)
	}
}

// TestAppendNilTelemetrySteadyStateAllocs pins the nil-session no-op
// contract: once the frame scratch has grown, Append with disabled
// telemetry performs zero heap allocations.
func TestAppendNilTelemetrySteadyStateAllocs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "allocs.wal")
	w, err := Create(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	body := bytes.Repeat([]byte{0xAB}, 64)
	if err := w.Append(KindWave, body); err != nil {
		t.Fatal(err) // warm the scratch buffer
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := w.Append(KindWave, body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state Append allocates %.1f times per op, want 0", allocs)
	}
}
