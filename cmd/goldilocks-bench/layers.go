package main

import (
	"strings"
	"time"

	"goldilocks/internal/scheduler"
	"goldilocks/internal/telemetry"
)

// timedPolicy is the traced run's decorator: it times every Policy.Place
// call the runner makes through the configured policy (ladder rung 0) from
// outside the scheduler, and otherwise behaves exactly like the policy it
// wraps.
type timedPolicy struct {
	inner scheduler.Goldilocks
	busy  time.Duration
}

var _ scheduler.Policy = (*timedPolicy)(nil)

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Place(req scheduler.Request) (scheduler.Result, error) {
	start := time.Now()
	res, err := p.inner.Place(req)
	p.busy += time.Since(start)
	return res, err
}

// layerLedger attributes the wall time of traced epochs to layers by walking
// the spans the program already records. A layer's time is the inclusive
// time of its outermost span; nested spans of other layers are subtracted
// where a metric says "self". Times accumulate over every traced epoch;
// counts only over the epochs of the quality window, so they are
// deterministic.
type layerLedger struct {
	epochs      int
	epochMS     float64 // RunEpoch wall time, measured by the bench
	snapshot    float64
	place       float64
	partition   float64
	presplit    float64
	shardMax    float64
	shardSum    float64
	stitch      float64
	pack        float64
	vc          float64
	migrate     float64
	account     float64
	recovery    float64
	countEpochs int
	partitions  int
	policyCalls int
	goldilocks  int
	attempts    int
	vcGroups    int
	waves       int
	netsimRuns  int
	counting    bool
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// addEpoch folds one epoch's root span into the ledger.
func (l *layerLedger) addEpoch(root *telemetry.Span, wall time.Duration, inWindow bool) {
	l.epochs++
	l.epochMS += ms(wall)
	l.counting = inWindow
	if inWindow {
		l.countEpochs++
	}
	for _, c := range root.Children() {
		d := ms(c.WallDuration())
		switch c.Name() {
		case "snapshot-failures":
			l.snapshot += d
		case "place":
			l.place += d
			l.walkPlace(c)
		case "migrate":
			l.migrate += d
			l.walkMigrate(c)
		case "account":
			l.account += d
		case "recovery":
			l.recovery += d
		}
	}
}

func (l *layerLedger) count(n *int) {
	if l.counting {
		*n++
	}
}

// walkPlace attributes a place span's subtree: its direct children (and
// those of shed attempts) are policy calls.
func (l *layerLedger) walkPlace(s *telemetry.Span) {
	for _, c := range s.Children() {
		if c.Name() == "shed-attempt" {
			l.walkPlace(c)
			continue
		}
		l.count(&l.policyCalls)
		l.walkScheduler(c)
	}
}

// walkScheduler descends through scheduler spans down to the partition,
// packing and vc layers.
func (l *layerLedger) walkScheduler(s *telemetry.Span) {
	switch s.Name() {
	case "goldilocks":
		l.count(&l.goldilocks)
	case "attempt":
		l.count(&l.attempts)
	case "partition":
		l.count(&l.partitions)
		l.partition += ms(s.WallDuration())
		l.walkPartition(s)
		return
	case "pack-symmetric":
		l.pack += ms(s.WallDuration())
		return
	case "vc-place":
		l.vc += ms(s.WallDuration())
		for range s.Children() {
			l.count(&l.vcGroups)
		}
		return
	}
	for _, c := range s.Children() {
		l.walkScheduler(c)
	}
}

// walkPartition splits a sharded partition span into pre-split bisections,
// shards and the stitch. The flat pipeline has none of these children.
func (l *layerLedger) walkPartition(s *telemetry.Span) {
	var shards []float64
	for _, c := range s.Children() {
		switch c.Name() {
		case "presplit":
			shards = l.walkPresplit(c, shards)
		case "stitch":
			l.stitch += ms(c.WallDuration())
		}
	}
	longest := 0.0
	for _, d := range shards {
		l.shardSum += d
		longest = max(longest, d)
	}
	l.shardMax += longest
}

// walkPresplit collects the shard spans under a pre-split level and adds the
// level's own bisection time to presplit.
func (l *layerLedger) walkPresplit(s *telemetry.Span, shards []float64) []float64 {
	for _, c := range s.Children() {
		switch {
		case c.Name() == "bisect":
			l.presplit += ms(c.WallDuration())
		case c.Name() == "presplit":
			shards = l.walkPresplit(c, shards)
		case strings.HasPrefix(c.Name(), "shard "):
			shards = append(shards, ms(c.WallDuration()))
		}
	}
	return shards
}

// walkMigrate counts the transfer waves and the netsim runs inside them.
func (l *layerLedger) walkMigrate(s *telemetry.Span) {
	for _, w := range s.Children() {
		if w.Name() != "wave" {
			continue
		}
		l.count(&l.waves)
		for _, c := range w.Children() {
			if c.Name() == "netsim-run" {
				l.count(&l.netsimRuns)
			}
		}
	}
}

// attributedMS is the epoch time the spans account for; the rest of
// RunEpoch (ladder choice, journal appends and fsyncs, metrics) is residue.
func (l *layerLedger) attributedMS() float64 {
	return l.snapshot + l.place + l.migrate + l.account + l.recovery
}
