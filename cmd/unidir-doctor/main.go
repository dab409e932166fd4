// Command unidir-doctor scrapes a cluster's introspection plane
// (/debug/status, or in-process replicas in harness mode), aggregates the
// group's health, and audits the safety invariants the trusted hardware
// is supposed to enforce: equal checkpoint digests at equal counts,
// monotone trusted counters, executed ≤ proposed, and at most one lease
// holder per term. See internal/watch and DESIGN.md §10.
//
// Modes:
//
//	unidir-doctor -targets http://h1:7001,http://h2:7001   scrape live processes
//	unidir-doctor -cluster minbft                          self-driven in-process cluster
//	... -watch 1s                                          continuous; default one-shot
//
// One-shot runs scrape twice (the cross-scrape monotonicity rules need a
// baseline) and exit 0 when healthy, 1 on any violation, 2 on usage or
// scrape-setup errors — CI can gate directly on the exit code. -watch runs
// until interrupted and exits 1 if any violation was ever seen.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"unidir/internal/byz"
	"unidir/internal/harness"
	"unidir/internal/obs"
	"unidir/internal/sig"
	"unidir/internal/watch"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("unidir-doctor", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		targets  = fs.String("targets", "", "comma-separated /debug/status endpoints (or base URLs) to scrape")
		clusterP = fs.String("cluster", "", "build and drive an in-process cluster instead: minbft or pbft")
		f        = fs.Int("f", 1, "faults tolerated in -cluster mode")
		ops      = fs.Int("ops", 64, "writes to drive in -cluster mode before auditing")
		watchInt = fs.Duration("watch", 0, "scrape continuously at this interval (0: one-shot)")
		gap      = fs.Duration("gap", 200*time.Millisecond, "pause between the two one-shot scrapes")
		forge    = fs.Int("forge-digest", -1, "fault injection (-cluster mode): replica whose status forges its checkpoint digest")
		verbose  = fs.Bool("v", false, "log scrapes and violations to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	logOut := io.Discard
	if *verbose {
		logOut = stderr
	}
	lg := slog.New(slog.NewTextHandler(logOut, nil))
	reg := obs.NewRegistry()
	obs.SetBuildInfo(reg, "binary", "unidir-doctor")

	var sources []watch.Source
	var drive func(ctx context.Context) error
	switch {
	case *targets != "" && *clusterP != "":
		fmt.Fprintln(stderr, "unidir-doctor: -targets and -cluster are mutually exclusive")
		return 2
	case *targets != "":
		for _, u := range strings.Split(*targets, ",") {
			if u = strings.TrimSpace(u); u != "" {
				sources = append(sources, watch.HTTP(u))
			}
		}
		if len(sources) == 0 {
			fmt.Fprintln(stderr, "unidir-doctor: -targets named no endpoints")
			return 2
		}
	case *clusterP != "":
		var build func(harness.SMRConfig) (*harness.SMRCluster, error)
		switch *clusterP {
		case "minbft":
			build = harness.BuildMinBFTCfg
		case "pbft":
			build = harness.BuildPBFTCfg
		default:
			fmt.Fprintf(stderr, "unidir-doctor: unknown -cluster protocol %q\n", *clusterP)
			return 2
		}
		sc, err := build(harness.SMRConfig{F: *f, Scheme: sig.HMAC, Ckpt: ckptInterval, Batch: 4, Metrics: reg})
		if err != nil {
			fmt.Fprintf(stderr, "unidir-doctor: build cluster: %v\n", err)
			return 2
		}
		defer sc.Stop()
		// An out-of-range replica would inject nothing and pass vacuously.
		if n := len(sc.Group.Replicas); *forge < -1 || *forge >= n {
			fmt.Fprintf(stderr, "unidir-doctor: -forge-digest %d names no replica of the %d-replica group (-1: none)\n", *forge, n)
			return 2
		}
		providers := make([]obs.StatusProvider, 0, len(sc.Group.Replicas))
		for i, rep := range sc.Group.Replicas {
			var sp obs.StatusProvider = rep
			if i == *forge {
				sp = byz.ForgeCheckpointDigest(sp)
			}
			providers = append(providers, sp)
		}
		src := watch.Local(*clusterP, providers...)
		sources = append(sources, src)
		drive = func(ctx context.Context) error {
			for i := 0; i < *ops; i++ {
				if err := sc.Pipe.Put(ctx, fmt.Sprintf("doctor-%d", i), []byte{byte(i)}); err != nil {
					return err
				}
			}
			settle(ctx, src)
			return nil
		}
	default:
		fmt.Fprintln(stderr, "unidir-doctor: need -targets or -cluster (see -h)")
		return 2
	}

	w := watch.New(watch.Config{Sources: sources, Logger: lg, Metrics: reg})
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()

	if *watchInt > 0 {
		if drive != nil {
			go func() {
				if err := drive(ctx); err != nil && ctx.Err() == nil {
					lg.Warn("drive traffic failed", "err", err)
				}
			}()
		}
		w.Run(ctx, *watchInt)
		rep := w.Scrape(context.Background()) // final cut after the interrupt
		rep.Write(stdout)
		if n := w.TotalViolations(); n > 0 {
			fmt.Fprintf(stdout, "%d total violations\n", n)
			return 1
		}
		return 0
	}

	// One-shot: baseline scrape, traffic (or a pause), then the audited
	// scrape — the monotone and executed≤proposed rules compare the two.
	first := w.Scrape(ctx)
	if len(first.ScrapeErrors) > 0 {
		first.Write(stdout)
		return 2
	}
	if drive != nil {
		if err := drive(ctx); err != nil {
			fmt.Fprintf(stderr, "unidir-doctor: drive traffic: %v\n", err)
			return 2
		}
	} else {
		select {
		case <-time.After(*gap):
		case <-ctx.Done():
		}
	}
	rep := w.Scrape(ctx)
	rep.Violations = w.Violations() // fold in anything the baseline scrape caught
	rep.Write(stdout)
	switch {
	case len(rep.Violations) > 0:
		return 1
	case len(rep.ScrapeErrors) > 0:
		return 2
	}
	return 0
}

// settle gives a self-driven cluster up to settleWait after its traffic to
// converge: every replica has executed the same batches and holds the last
// stable checkpoint they imply. Only then does the audit see a claim from
// each replica, and blame for a divergent digest needs f+1 claims agreeing
// on one (DESIGN.md §10). Equal checkpoint counts alone are not enough: a
// checkpoint still being voted on can become stable at one replica after
// the check, leaving its claim alone at its count.
func settle(ctx context.Context, src watch.Source) {
	for deadline := time.Now().Add(settleWait); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		sts, err := src.Fetch(ctx)
		if err != nil {
			return
		}
		converged := true
		for _, st := range sts {
			converged = converged && st.ExecCount == sts[0].ExecCount &&
				ckptCount(st) == st.ExecCount-st.ExecCount%ckptInterval
		}
		if converged {
			return
		}
	}
}

const (
	settleWait = 10 * time.Second
	// ckptInterval is the self-driven cluster's checkpoint interval: small,
	// so a short run takes several checkpoints.
	ckptInterval = 4
)

func ckptCount(st obs.Status) uint64 {
	if st.Checkpoint == nil {
		return 0
	}
	return st.Checkpoint.Count
}
