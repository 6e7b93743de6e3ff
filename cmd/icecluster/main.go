// Command icecluster runs the iceberg-cube computation as a real
// multi-process cluster, mpirun-style: the launcher spawns one OS process
// per rank (re-executing itself with -rank), the ranks form a TCP mesh,
// compute the cube with BUC subtrees distributed across ranks, and rank 0
// gathers the cuboids.
//
// Usage:
//
//	icecluster -np 4 -tuples 50000 -dims 8 -minsup 2    # launcher
//	icecluster -rank 2 -world a:1,b:2,c:3,d:4 ...       # one rank (spawned)
//
// Across real machines: start one process per node with -rank and an
// identical -world list, exactly like a machine file.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"icebergcube/internal/agg"
	"icebergcube/internal/core"
	"icebergcube/internal/gen"
	"icebergcube/internal/mpi"
	"icebergcube/internal/online"
	"icebergcube/internal/results"
)

func main() {
	var (
		np     = flag.Int("np", 4, "number of ranks to launch (launcher mode)")
		rank   = flag.Int("rank", -1, "this process's rank (worker mode; spawned by the launcher)")
		world  = flag.String("world", "", "comma-separated host:port per rank (worker mode)")
		tuples = flag.Int("tuples", 50000, "synthetic data-set size (all ranks generate the same seed)")
		dims   = flag.Int("dims", 8, "number of cube dimensions")
		minsup = flag.Int64("minsup", 2, "iceberg threshold")
		seed   = flag.Int64("seed", 2001, "workload seed")
		pol    = flag.Bool("pol", false, "also run the distributed online aggregation (POL) after the cube")
	)
	flag.Parse()

	if *rank >= 0 {
		if err := runRank(*rank, strings.Split(*world, ","), *tuples, *dims, *minsup, *seed, *pol); err != nil {
			fmt.Fprintf(os.Stderr, "icecluster rank %d: %v\n", *rank, err)
			os.Exit(1)
		}
		return
	}
	if err := launch(*np, *tuples, *dims, *minsup, *seed, *pol); err != nil {
		fmt.Fprintln(os.Stderr, "icecluster:", err)
		os.Exit(1)
	}
}

// launch reserves loopback ports and spawns one child process per rank.
// The ranks live under one context: SIGINT or SIGTERM to the launcher, or
// the first rank to fail, kills every rank still running, and launch
// returns only once each child has been reaped.
func launch(np, tuples, dims int, minsup, seed int64, pol bool) error {
	addrs := make([]string, np)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		addrs[i] = ln.Addr().String()
		ln.Close()
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithCancel(sigCtx)
	defer cancel()
	fmt.Printf("launching %d ranks: %v\n", np, addrs)
	errs := make(chan error, np)
	for r := 0; r < np; r++ {
		cmd := exec.CommandContext(ctx, self,
			"-rank", fmt.Sprint(r),
			"-world", strings.Join(addrs, ","),
			"-tuples", fmt.Sprint(tuples),
			"-dims", fmt.Sprint(dims),
			"-minsup", fmt.Sprint(minsup),
			"-seed", fmt.Sprint(seed),
			fmt.Sprintf("-pol=%v", pol),
		)
		cmd.Stdout = os.Stdout
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			errs <- fmt.Errorf("starting rank %d: %w", r, err)
			continue
		}
		go func(r int) {
			err := cmd.Wait()
			if err != nil {
				err = fmt.Errorf("rank %d: %w", r, err)
			}
			errs <- err
		}(r)
	}
	var firstErr error
	for r := 0; r < np; r++ {
		if err := <-errs; err != nil && firstErr == nil {
			firstErr = err
			cancel()
		}
	}
	return firstErr
}

// runRank is one cluster node's life: join the mesh, compute, gather.
func runRank(rank int, addrs []string, tuples, dims int, minsup, seed int64, pol bool) error {
	comm, err := mpi.NewTCPWorld(rank, addrs, 30*time.Second)
	if err != nil {
		return err
	}
	defer comm.Close()

	// Replicated data set: every rank generates the same relation.
	rel := gen.Weather(tuples, seed)
	cube := gen.PickDimsByProduct(rel, dims, 13.0*float64(dims)/9.0)

	local := results.NewSet()
	start := time.Now()
	rep, err := core.DistributedCube(comm, rel, cube, agg.MinSupport(minsup), local)
	if err != nil {
		return err
	}
	fmt.Printf("rank %d: cube done, %d local cells of %d total (%.2fs)\n",
		rank, local.NumCells(), rep.Total, time.Since(start).Seconds())
	if rank == 0 && (rep.Reassigned > 0 || len(rep.Dead) > 0 || len(rep.Degraded) > 0) {
		fmt.Printf("rank 0: recovery: %d reassigned, dead ranks %v, degraded tasks %v\n",
			rep.Reassigned, rep.Dead, rep.Degraded)
	}

	merged, err := core.GatherCells(comm, local)
	if err != nil {
		return err
	}
	if rank == 0 {
		fmt.Printf("rank 0: gathered %d cells in %d cuboids\n", merged.NumCells(), merged.NumCuboids())
	}

	if pol {
		start = time.Now()
		res, err := online.DistributedRun(comm, online.Query{
			Rel:          rel,
			Dims:         cube[:min(4, len(cube))],
			Cond:         agg.MinSupport(minsup),
			BufferTuples: 8000,
			Seed:         seed,
		})
		if err != nil {
			return err
		}
		if rank == 0 {
			fmt.Printf("rank 0: POL done in %d steps, %d qualifying cells (%.2fs)\n",
				res.Steps, res.Cells.NumCells(), time.Since(start).Seconds())
		}
	}
	return nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
