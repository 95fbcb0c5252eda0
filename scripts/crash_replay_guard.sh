#!/bin/sh
# crash-replay-guard: the blocking crash-recovery contract.
#
# Two layers, both under the race detector:
#
#  1. The property sweeps: kill the journaled control plane at EVERY
#     record boundary (the cluster-level sweep over varying epoch inputs,
#     and the experiment-level sweep under the full chaos schedule —
#     GOLDILOCKS_CRASH_SWEEP=full disables boundary sampling) and require
#     the resumed run's report stream and state hash to be byte-identical
#     to the uninterrupted run's.
#
#  2. The CLI end-to-end diff: run goldilocks-sim crashchaos to
#     completion, then crash it mid-run (once more with a torn tail
#     appended to the journal) and resume from the journal; the
#     "epoch ..." and "final: ..." lines of the resumed run must be
#     byte-for-byte the full run's.
#
# Run via `make crash-replay-guard`. Any diff or test failure is a
# recovery bug: half-applied state leaked through the journal.
set -eu

GO="${GO:-go}"
cd "$(dirname "$0")/.."

echo "== crash-replay-guard: property sweeps (race detector, full boundary coverage) =="
GOLDILOCKS_CRASH_SWEEP=full "$GO" test -race -count=1 \
    -run 'TestCrashResumeByteIdenticalAtEveryRecordBoundary|TestCrashChaos|TestRecoverJournal|TestReconcile|TestJournal|TestWriter|TestScan' \
    ./internal/journal ./internal/cluster ./internal/experiments ./cmd/goldilocks-sim

echo "== crash-replay-guard: CLI end-to-end crash/resume diff =="
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
"$GO" build -o "$tmp/goldilocks-sim" ./cmd/goldilocks-sim

keep_lines() { grep -E '^(epoch |final:)' "$1" > "$2"; }

"$tmp/goldilocks-sim" -experiment crashchaos > "$tmp/full.out"
keep_lines "$tmp/full.out" "$tmp/full.lines"

# Record indices stay ≤ 2: every epoch journals at least three records
# (epoch-begin, placement, commit), while wave counts vary per epoch.
for boundary in "3 -1" "7 1" "13 2"; do
    epoch="${boundary% *}"
    record="${boundary#* }"
    rm -rf "$tmp/journal"
    "$tmp/goldilocks-sim" -experiment crashchaos -journal "$tmp/journal" \
        -crash-at-epoch "$epoch" -crash-at-record "$record" > "$tmp/crash.out"
    grep -q "crash: simulated control-plane kill during epoch $epoch" "$tmp/crash.out" || {
        echo "crash-replay-guard: crash at epoch $epoch record $record did not land" >&2
        exit 1
    }
    "$tmp/goldilocks-sim" -experiment crashchaos -journal "$tmp/journal" -resume \
        -crash-at-epoch "$epoch" -crash-at-record "$record" > "$tmp/resume.out"
    keep_lines "$tmp/resume.out" "$tmp/resume.lines"
    if ! diff -u "$tmp/full.lines" "$tmp/resume.lines"; then
        echo "crash-replay-guard: resume after crash at epoch $epoch record $record diverged from the full run" >&2
        exit 1
    fi
    echo "crash at epoch $epoch record $record: resume byte-identical"
done

# A torn tail: the kill lands mid-append, leaving bytes after the last
# valid record. The resume must truncate them, say so, and still
# reproduce the full run.
rm -rf "$tmp/journal"
"$tmp/goldilocks-sim" -experiment crashchaos -journal "$tmp/journal" \
    -crash-at-epoch 7 -crash-at-record 1 > "$tmp/crash.out"
grep -q "crash: simulated control-plane kill during epoch 7" "$tmp/crash.out" || {
    echo "crash-replay-guard: crash at epoch 7 record 1 did not land" >&2
    exit 1
}
printf '\377\001\002\003\004' >> "$tmp/journal/crashchaos.wal"
"$tmp/goldilocks-sim" -experiment crashchaos -journal "$tmp/journal" -resume \
    -crash-at-epoch 7 -crash-at-record 1 > "$tmp/resume.out"
grep -q '^recovered: .* (torn tail truncated)$' "$tmp/resume.out" || {
    echo "crash-replay-guard: resume did not report the truncated torn tail" >&2
    exit 1
}
keep_lines "$tmp/resume.out" "$tmp/resume.lines"
if ! diff -u "$tmp/full.lines" "$tmp/resume.lines"; then
    echo "crash-replay-guard: resume after a torn tail diverged from the full run" >&2
    exit 1
fi
echo "crash at epoch 7 record 1 with a torn tail: resume byte-identical"

echo "crash-replay-guard: OK"
