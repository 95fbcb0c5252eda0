// Migration-aware scheduling (the §IV-C extension): the stock Goldilocks
// repartitions every epoch, which can reshuffle many containers; the
// incremental variant repairs the previous placement within a migration
// budget. This example drives both across a drifting load, counts the
// container moves each one causes, and prices those moves with the CRIU
// checkpoint/transfer simulator (§V) — freeze time is application
// downtime.
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"goldilocks"
)

func main() {
	topo := goldilocks.NewTestbed()
	base := goldilocks.NewTwitterWorkload(150, 7)
	factors := []float64{1.0, 1.08, 0.95, 1.12, 1.02, 0.9, 1.05, 0.97}

	type outcome struct {
		moves    int
		freezeMS float64
		powerW   float64
		tctMS    float64
	}
	runSeries := func(policy goldilocks.Policy) outcome {
		runner := goldilocks.NewRunner(topo, policy, goldilocks.DefaultRunnerOptions())
		var out outcome
		for _, f := range factors {
			spec := base.Scaled(f)
			before := runner.Carried(spec)
			rep, err := runner.RunEpoch(goldilocks.EpochInput{Spec: spec, RPS: 300000 * f})
			if err != nil {
				log.Fatalf("%s: %v", policy.Name(), err)
			}
			out.powerW += rep.TotalPowerW / float64(len(factors))
			out.tctMS += rep.MeanTCTMS / float64(len(factors))

			// Price the moves the runner just made.
			moves, err := goldilocks.PlanMigrations(spec, before, runner.Carried(spec))
			if err != nil {
				log.Fatal(err)
			}
			out.moves += len(moves)
			if len(moves) > 0 {
				repM, err := goldilocks.SimulateMigrations(topo,
					goldilocks.ScheduleMigrations(moves), goldilocks.DefaultMigrationOptions())
				if err != nil {
					log.Fatal(err)
				}
				out.freezeMS += float64(repM.MeanFreeze.Milliseconds()) * float64(repM.NumMoves)
			}
		}
		return out
	}

	fresh := runSeries(goldilocks.NewGoldilocks())
	incr := runSeries(goldilocks.NewIncrementalGoldilocks(0.10))

	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "scheduler\tmigrations\ttotal freeze (ms)\tavg power (W)\tavg TCT (ms)")
	fmt.Fprintf(tw, "Goldilocks (fresh each epoch)\t%d\t%.0f\t%.0f\t%.2f\n",
		fresh.moves, fresh.freezeMS, fresh.powerW, fresh.tctMS)
	fmt.Fprintf(tw, "Goldilocks-incremental (10%% budget)\t%d\t%.0f\t%.0f\t%.2f\n",
		incr.moves, incr.freezeMS, incr.powerW, incr.tctMS)
	tw.Flush()

	fmt.Println("\nThe incremental scheduler trades a little packing tightness for far")
	fmt.Println("fewer checkpoint/restore cycles — the §IV-C migration-cost tradeoff.")
}
