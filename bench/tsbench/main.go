// Command tsbench is the repository's one benchmark.
//
//	go run ./bench/tsbench all -seed 1            every workload, end-to-end metrics, tracing off
//	go run ./bench/tsbench all -seed 1 -trace     the separate traced run: per-layer metrics
//	go run ./bench/tsbench compare A/ B/          two result directories, one row per workload x metric
//	go run ./bench/tsbench manifest               BENCHMARK.json, from the declarations
//	go run ./bench/tsbench glossary               the tables of bench/README.md, from the same
//	go run ./bench/tsbench --workload rf_tall_mem --seed 1 --seconds 10 --trace 0
//
// The last form runs one workload in this process and ends its standard
// output with the one-line JSON result the benchmark contract asks for; "all"
// starts one such child process per workload so that peak RSS and GC state
// are the workload's own. See bench/README.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"

	"treeserver/bench"
)

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "all":
		err = runAll(args[1:])
	case len(args) > 0 && args[0] == "compare":
		err = runCompare(args[1:])
	case len(args) > 0 && args[0] == "manifest":
		var data []byte
		if data, err = bench.Manifest(); err == nil {
			_, err = os.Stdout.Write(data)
		}
	case len(args) > 0 && args[0] == "glossary":
		bench.Glossary(os.Stdout)
	default:
		err = runOne(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsbench:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("correctness gate failed")

// runOne is the form the benchmark driver calls: one workload, this process.
func runOne(args []string) error {
	fs := flag.NewFlagSet("tsbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name (see bench/README.md)")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", bench.RunSeconds, "how long to measure")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: the traced run, per-layer metrics")
	tiny := fs.Bool("tiny", false, "shrunken sizes, for smoke tests only")
	out := fs.String("out", "", "directory for the result file (and the Chrome trace of a traced run)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workload == "" || fs.NArg() > 0 {
		return fmt.Errorf("usage: tsbench all|compare|manifest|glossary, or tsbench --workload NAME --seed N --seconds S --trace 0|1")
	}
	res, err := bench.Run(*workload, bench.Options{
		Seed: *seed, Seconds: *seconds, Trace: *trace != 0, Tiny: *tiny, OutDir: *out,
	})
	if err != nil {
		return err
	}
	bench.PrintResult(os.Stdout, res)
	line, err := res.DriverLine()
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runAll runs every workload, each in a child process of this same binary.
func runAll(args []string) error {
	fs := flag.NewFlagSet("tsbench all", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "first seed")
	runs := fs.Int("runs", 1, "runs per workload, on consecutive seeds (compare wants several)")
	seconds := fs.Float64("seconds", bench.RunSeconds, "how long each run measures")
	trace := fs.Bool("trace", false, "the separate traced run: per-layer metrics and Chrome traces")
	tiny := fs.Bool("tiny", false, "shrunken sizes, for smoke tests only")
	out := fs.String("out", ".tsbench_out", "directory for result files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	traceArg := "0"
	if *trace {
		traceArg = "1"
	}
	incorrect := 0
	for _, w := range bench.Workloads {
		for i := 0; i < *runs; i++ {
			s := *seed + int64(i)
			childArgs := []string{"--workload", w.Name, "--seed", fmt.Sprint(s), "--seconds", fmt.Sprint(*seconds),
				"--trace", traceArg, "--out", *out}
			if *tiny {
				childArgs = append(childArgs, "--tiny")
			}
			cmd := exec.Command(self, childArgs...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			var exit *exec.ExitError
			if err := cmd.Run(); errors.As(err, &exit) {
				incorrect++ // the child has said why
			} else if err != nil {
				return err
			}
		}
	}
	fmt.Printf("results in %s; claim: null (this benchmark measures, it claims no gain)\n", filepath.Clean(*out))
	if incorrect > 0 {
		return fmt.Errorf("%d runs failed or gave wrong outputs", incorrect)
	}
	return nil
}

func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: tsbench compare A/ B/")
	}
	rows, hosts, err := bench.Compare(args[0], args[1])
	if err != nil {
		return err
	}
	if bench.PrintComparison(os.Stdout, rows, hosts) {
		return fmt.Errorf("at least one metric regressed beyond its bound")
	}
	return nil
}
