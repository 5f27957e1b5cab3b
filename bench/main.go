// Command bench is the repository's end-to-end benchmark: it boots the
// stock four-daemon SCALE deployment in-process over loopback TCP, drives
// it with its own event-driven S1 load generator (closed-loop capacity,
// then open-loop Poisson arrivals at two fixed rates), checks the
// cluster's state against what it did, and prints every metric by name
// and unit. With -trace 1 it adds the per-layer counters and the serial
// span-traced "ladder" replay. See README.md in this directory.
//
//	go run ./bench                       # the four gated workloads, seed 1
//	go run ./bench -workload tau_sweep   # one workload
//	go run ./bench -workload tau_sweep -trace 1
//	go run ./bench -compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run: all (the gated four) or one of "+workloadNames())
		seed     = flag.Int64("seed", 1, "seed of the arrival schedules and the population")
		runs     = flag.Int("runs", 1, "runs per workload, on seeds seed, seed+1, ...")
		seconds  = flag.Float64("seconds", defaultSeconds, "measured seconds per run: cap 20%, hi 65%, lo 10%")
		traced   = flag.Int("trace", 0, "1 adds the per-layer metrics and the traced ladder replay")
		ladderOn = flag.Bool("ladder", false, "same as -trace 1")
		out      = flag.String("out", filepath.Join("bench", "out", "result.json"), "result file; a traced run writes its span files beside it")
		compare  = flag.Bool("compare", false, "compare two result files (or comma-joined lists) given as arguments by BENCHMARK.json's bounds; exit 1 if any metric is worse")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare A.json B.json")
		}
		worse, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(2, "compare: %v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(2, "unexpected arguments %q", flag.Args())
	}

	selected := gated()
	if *name != "all" {
		w, err := workloadByName(*name)
		if err != nil {
			fatal(2, "%v", err)
		}
		selected = []workload{w}
	}
	file := resultFile{Meta: newMeta()}
	ok := true
	var last *runResult
	for _, w := range selected {
		for i := 0; i < *runs; i++ {
			res, err := runWorkload(w, *seed+int64(i), *seconds, *traced == 1 || *ladderOn, filepath.Dir(*out))
			if err != nil {
				fatal(1, "%s seed %d: %v", w.name, *seed+int64(i), err)
			}
			file.Runs = append(file.Runs, res)
			res.print(os.Stdout)
			for _, e := range res.Errors {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %s\n", w.name, res.Seed, e)
			}
			ok = ok && res.Correct
			last = res
		}
	}
	if err := file.write(*out); err != nil {
		fatal(1, "%v", err)
	}
	// The last line of standard output is the machine-readable result of
	// the last run.
	line, err := json.Marshal(last.contractLine())
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(1)
	}
}

func fatal(code int, format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}
