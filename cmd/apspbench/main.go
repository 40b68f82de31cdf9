// Command apspbench regenerates the paper's tables, figures and theorem
// bounds as measured experiments (see DESIGN.md for the index and
// EXPERIMENTS.md for recorded results).
//
// Usage:
//
//	apspbench              # run every experiment at full size
//	apspbench -small       # reduced sizes (what the benchmarks use)
//	apspbench -exp E-BIG   # a single experiment
//	apspbench -list        # list experiment IDs
//	apspbench -md          # Markdown tables (to refresh EXPERIMENTS.md)
//	apspbench -exp E-BIG -cpuprofile cpu.pprof -memprofile mem.pprof
//
// -cpuprofile/-memprofile write pprof profiles covering the experiment run
// (inspect with `go tool pprof`). The tables do not depend on the number
// of engine workers, which follows GOMAXPROCS: `GOMAXPROCS=1 apspbench
// -exp E-BIG` profiles a single-worker run.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "apspbench: %v\n", err)
		os.Exit(1)
	}
}

// run is the command body, factored so tests can drive it with arbitrary
// arguments and capture the output. Tables go to stdout; progress notes
// (profile paths) go to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("apspbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		small      = fs.Bool("small", false, "run reduced-size experiments")
		exp        = fs.String("exp", "", "run a single experiment by ID")
		list       = fs.Bool("list", false, "list experiment IDs and exit")
		seed       = fs.Int64("seed", 1, "deterministic seed")
		md         = fs.Bool("md", false, "emit Markdown tables (for EXPERIMENTS.md)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the experiment run here")
		memProfile = fs.String("memprofile", "", "write a heap profile taken after the run here")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}
	cfg := experiments.Config{Small: *small, Seed: *seed}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return err
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(stderr, "cpu profile: %s\n", *cpuProfile)
		}()
	}

	var tables []*experiments.Table
	if *exp != "" {
		t, err := experiments.Run(*exp, cfg)
		if err != nil {
			return err
		}
		tables = []*experiments.Table{t}
	} else {
		ts, err := experiments.Collect(cfg)
		if err != nil {
			return err
		}
		tables = ts
	}
	for _, t := range tables {
		if *md {
			t.Markdown(stdout)
		} else {
			t.Format(stdout)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "heap profile: %s\n", *memProfile)
	}
	return nil
}
