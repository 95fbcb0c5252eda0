package migrate

import (
	"testing"
	"time"

	"goldilocks/internal/resources"
	"goldilocks/internal/topology"
	"goldilocks/internal/workload"
)

func spec3(t *testing.T, memMB float64) *workload.Spec {
	t.Helper()
	s := &workload.Spec{}
	for i := 0; i < 3; i++ {
		s.Containers = append(s.Containers, workload.Container{
			ID: i, Demand: resources.New(10, memMB, 5),
		})
	}
	return s
}

func TestPlanMovesDiffs(t *testing.T) {
	s := spec3(t, 1024)
	moves, err := PlanMoves(s, []int{0, 1, 2}, []int{0, 2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 1 {
		t.Fatalf("moves = %d, want 1", len(moves))
	}
	if moves[0].Container != 1 || moves[0].From != 1 || moves[0].To != 2 {
		t.Fatalf("move = %+v", moves[0])
	}
	if moves[0].ImageMB != 1024 {
		t.Fatalf("image = %v MB", moves[0].ImageMB)
	}
}

func TestPlanMovesSkipsArrivalsAndDepartures(t *testing.T) {
	s := spec3(t, 512)
	moves, err := PlanMoves(s, []int{-1, 1, 2}, []int{0, -1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(moves) != 0 {
		t.Fatalf("arrival/departure produced %d moves", len(moves))
	}
}

func TestPlanMovesLengthMismatch(t *testing.T) {
	s := spec3(t, 512)
	if _, err := PlanMoves(s, []int{0}, []int{0, 1, 2}); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestScheduleWavesAvoidServerConflicts(t *testing.T) {
	moves := []Move{
		{Container: 0, From: 0, To: 1, ImageMB: 100},
		{Container: 1, From: 0, To: 2, ImageMB: 200}, // shares source with move 0
		{Container: 2, From: 3, To: 4, ImageMB: 50},  // disjoint
		{Container: 3, From: 5, To: 1, ImageMB: 70},  // shares dest with move 0
	}
	plan := Schedule(moves)
	total := 0
	for _, wave := range plan.Waves {
		busy := map[int]bool{}
		for _, mi := range wave {
			m := plan.Moves[mi]
			if busy[m.From] || busy[m.To] {
				t.Fatalf("server conflict within a wave: %+v", m)
			}
			busy[m.From] = true
			busy[m.To] = true
			total++
		}
	}
	if total != len(moves) {
		t.Fatalf("scheduled %d of %d moves", total, len(moves))
	}
	if len(plan.Waves) < 2 {
		t.Fatal("conflicting moves require at least two waves")
	}
}

func TestScheduleEmpty(t *testing.T) {
	plan := Schedule(nil)
	if len(plan.Waves) != 0 {
		t.Fatal("no moves, no waves")
	}
}

func TestSimulateSingleTransfer(t *testing.T) {
	topo := topology.NewTestbed()                                  // 1G NICs
	moves := []Move{{Container: 0, From: 0, To: 1, ImageMB: 1250}} // 10 Gbit → 10 s at line rate
	rep, err := Simulate(topo, Schedule(moves), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumMoves != 1 || rep.Waves != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.Duration < 9*time.Second || rep.Duration > 12*time.Second {
		t.Fatalf("1250 MB over 1G should take ≈10s, got %v", rep.Duration)
	}
	if rep.MeanFreeze <= 0 || rep.MaxFreeze < rep.MeanFreeze {
		t.Fatalf("freeze accounting broken: %+v", rep)
	}
	// Freeze is a fraction of the full migration, not all of it.
	if rep.MaxFreeze >= rep.Duration {
		t.Fatalf("freeze %v must be below total duration %v", rep.MaxFreeze, rep.Duration)
	}
}

func TestSimulateParallelWave(t *testing.T) {
	topo := topology.NewTestbed()
	// Two disjoint transfers run in one wave concurrently: total duration
	// ≈ the slower one, not the sum.
	moves := []Move{
		{Container: 0, From: 0, To: 1, ImageMB: 1250},
		{Container: 1, From: 2, To: 3, ImageMB: 1250},
	}
	rep, err := Simulate(topo, Schedule(moves), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Waves != 1 {
		t.Fatalf("waves = %d, want 1 (disjoint servers)", rep.Waves)
	}
	if rep.Duration > 13*time.Second {
		t.Fatalf("parallel transfers took %v, want ≈10s", rep.Duration)
	}
}

func TestSimulateDeadLink(t *testing.T) {
	topo := topology.NewTestbed()
	rack := topo.SubtreesAtLevel(topology.LevelRack)[0]
	if err := topo.FailUplinkFraction(rack, 1.0); err != nil {
		t.Fatal(err)
	}
	src := rack.ServerIDs[0]
	moves := []Move{{Container: 0, From: src, To: 15, ImageMB: 10}}
	rep, err := Simulate(topo, Schedule(moves), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stuck != 1 || len(rep.StuckMoves) != 1 || rep.StuckMoves[0] != 0 {
		t.Fatalf("Stuck = %d, StuckMoves = %v, want the one move across the dead uplink", rep.Stuck, rep.StuckMoves)
	}
}

func TestSimulateTolerateStuckIsolatesFailedTransfers(t *testing.T) {
	// Two moves off server 0 force two waves; the second wave's destination
	// fails before its transfer starts. The simulation must finish the
	// healthy move and report exactly the stuck one.
	topo := topology.NewTestbed()
	moves := []Move{
		{Container: 0, From: 0, To: 1, ImageMB: 1250},
		{Container: 1, From: 0, To: 2, ImageMB: 500},
	}
	plan := Schedule(moves)
	if len(plan.Waves) != 2 {
		t.Fatalf("waves = %d, want 2 (shared source)", len(plan.Waves))
	}
	if err := topo.FailServer(2); err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(topo, plan, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stuck != 1 || len(rep.StuckMoves) != 1 {
		t.Fatalf("Stuck = %d, StuckMoves = %v, want exactly one", rep.Stuck, rep.StuckMoves)
	}
	if m := plan.Moves[rep.StuckMoves[0]]; m.Container != 1 {
		t.Fatalf("stuck move = %+v, want container 1", m)
	}
	if rep.Duration < 9*time.Second {
		t.Fatalf("healthy move must still complete, duration = %v", rep.Duration)
	}
}

func TestReplanDestinationFailureRetargets(t *testing.T) {
	topo := topology.NewTestbed()
	moves := []Move{{Container: 0, From: 0, To: 2, ImageMB: 512}}
	plan := Schedule(moves)
	if err := topo.FailServer(2); err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(topo, plan, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stuck != 1 {
		t.Fatalf("Stuck = %d, want 1", rep.Stuck)
	}
	// The policy re-placed container 0 on surviving server 3.
	replanned, restarts, dropped, err := Replan(topo, plan, rep.StuckMoves, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	if len(restarts) != 0 || len(dropped) != 0 {
		t.Fatalf("restarts = %v, dropped = %v, want a pure retarget", restarts, dropped)
	}
	if len(replanned.Moves) != 1 || replanned.Moves[0].To != 3 || replanned.Moves[0].From != 0 {
		t.Fatalf("replanned = %+v, want 0→3", replanned.Moves)
	}
	// The replanned transfer completes on the surviving topology.
	rep2, err := Simulate(topo, replanned, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep2.NumMoves != 1 || rep2.Duration <= 0 {
		t.Fatalf("replanned simulation = %+v", rep2)
	}
}

func TestReplanSourceFailureRestartsCold(t *testing.T) {
	// The source dies mid-transfer: the checkpoint image dies with it, so
	// the container restarts at its new server instead of migrating.
	topo := topology.NewTestbed()
	moves := []Move{{Container: 0, From: 2, To: 4, ImageMB: 512}}
	plan := Schedule(moves)
	if err := topo.FailServer(2); err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(topo, plan, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stuck != 1 {
		t.Fatalf("Stuck = %d, want 1", rep.Stuck)
	}
	replanned, restarts, dropped, err := Replan(topo, plan, rep.StuckMoves, []int{4})
	if err != nil {
		t.Fatal(err)
	}
	if len(replanned.Moves) != 0 || len(dropped) != 0 {
		t.Fatalf("moves = %v, dropped = %v, want a restart only", replanned.Moves, dropped)
	}
	if len(restarts) != 1 || restarts[0].Container != 0 || restarts[0].To != 4 {
		t.Fatalf("restarts = %+v, want container 0 restarting at 4", restarts)
	}
}

func TestReplanAccountsEveryStuckMove(t *testing.T) {
	// Mixed outcome: one retarget, one cold restart, one admission drop.
	// Every stuck move must land in exactly one bucket — never vanish.
	topo := topology.NewTestbed()
	moves := []Move{
		{Container: 0, From: 0, To: 2, ImageMB: 512}, // dest fails → retarget
		{Container: 1, From: 3, To: 4, ImageMB: 512}, // source fails → restart
		{Container: 2, From: 1, To: 2, ImageMB: 512}, // dest fails, rejected → drop
	}
	plan := Schedule(moves)
	for _, s := range []int{2, 3} {
		if err := topo.FailServer(s); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Simulate(topo, plan, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stuck != 3 {
		t.Fatalf("Stuck = %d, want all 3", rep.Stuck)
	}
	newPlace := []int{5, 6, -1}
	replanned, restarts, dropped, err := Replan(topo, plan, rep.StuckMoves, newPlace)
	if err != nil {
		t.Fatal(err)
	}
	accounted := len(replanned.Moves) + len(restarts) + len(dropped)
	if accounted != rep.Stuck {
		t.Fatalf("accounted for %d of %d stuck moves", accounted, rep.Stuck)
	}
	if len(replanned.Moves) != 1 || replanned.Moves[0].Container != 0 || replanned.Moves[0].To != 5 {
		t.Fatalf("replanned = %+v", replanned.Moves)
	}
	if len(restarts) != 1 || restarts[0].Container != 1 {
		t.Fatalf("restarts = %+v", restarts)
	}
	if len(dropped) != 1 || dropped[0] != 2 {
		t.Fatalf("dropped = %v, want explicit rejection of container 2", dropped)
	}
}

func TestReplanRejectsFailedDestination(t *testing.T) {
	topo := topology.NewTestbed()
	plan := Schedule([]Move{{Container: 0, From: 0, To: 2, ImageMB: 512}})
	if err := topo.FailServer(2); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := Replan(topo, plan, []int{0}, []int{2}); err == nil {
		t.Fatal("re-placing onto a failed server must be rejected")
	}
}

func TestPlanAndSimulateEndToEnd(t *testing.T) {
	topo := topology.NewTestbed()
	s := &workload.Spec{}
	for i := 0; i < 8; i++ {
		s.Containers = append(s.Containers, workload.Container{
			ID: i, Demand: resources.New(10, 512, 5),
		})
	}
	oldPlace := []int{0, 0, 1, 1, 2, 2, 3, 3}
	newPlace := []int{0, 4, 1, 5, 2, 6, 3, 7} // four containers move
	rep, err := PlanAndSimulate(topo, s, oldPlace, newPlace, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.NumMoves != 4 {
		t.Fatalf("moves = %d, want 4", rep.NumMoves)
	}
	if rep.TotalImageMB != 4*512 {
		t.Fatalf("image total = %v", rep.TotalImageMB)
	}
	if rep.Duration <= 0 {
		t.Fatal("zero duration")
	}
}
