// Nodefailure demonstrates the paper's stated future work: "the use of
// spare nodes in the case of node failure, in which case all the processes
// on that node will fail and be restarted on the new node. This will have
// the same load balancing characteristics as our current approach."
//
// One entire host of the simulated cluster dies mid-solve (all of its
// processes fail together); the recovery protocol re-spawns every lost
// process onto a spare node, the communicator keeps its size and rank
// order, and the application completes with a bounded error.
package main

import (
	"fmt"
	"log"

	"ftsg/internal/core"
	"ftsg/internal/faultgen"
	"ftsg/internal/vtime"
)

func main() {
	cfg := core.Config{
		Technique: core.AlternateCombination,
		Machine:   vtime.OPL(),
		DiagProcs: 8, // 49 processes over 5 hosts of 12 slots
		Steps:     128,
		// Every process of one drawn host dies together halfway through.
		Faults:     []faultgen.Event{{Step: 64, Host: true}},
		SpareNodes: 1,
		Seed:       7,
	}

	res, err := core.Run(cfg)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("node failure with spare-node recovery (paper Section V, future work)")
	fmt.Printf("  processes:        %d over %d hosts + 1 spare\n",
		res.Procs, (res.Procs+11)/12)
	fmt.Printf("  node failure:     ranks %v died together\n", res.FailedRanks)
	fmt.Printf("  re-spawned:       %d replacements, all on the spare node\n", res.Spawned)
	fmt.Printf("  lost sub-grids:   %v (recovered by alternate combination)\n", res.LostGrids)
	fmt.Printf("  reconstruction:   %.2f s virtual (spawn %.2f, shrink %.2f, agree %.2f)\n",
		res.ReconstructTime, res.SpawnTime, res.ShrinkTime, res.AgreeTime)
	fmt.Printf("  combined l1 err:  %.4e\n", res.L1Error)
	fmt.Printf("  total time:       %.1f s virtual\n", res.TotalTime)
}
