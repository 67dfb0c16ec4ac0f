// Command lapstat characterises a memory trace the way the paper
// characterises its workloads: footprint, read/write mix, exact LRU
// reuse-distance profile, predicted hit rates at the Table II cache
// capacities, loop-block potential (Section II-C1) and redundant-fill
// potential (Section II-C2). Use it to calibrate workload surrogates or
// to inspect externally captured traces.
//
// Examples:
//
//	lapstat -bench omnetpp -n 200000
//	lapstat -trace omnetpp.bin
//	lapstat -bench libquantum -n 100000 -l2 8192 -llc 131072
//
// It also speaks lapserved's observability surface: -bundle un-tars a
// /debug/bundle diagnostics archive and prints an operator summary
// (members, capture metadata, run health, the tail of its event log),
// validating every JSON member on the way; -events tails a live
// instance's /v1/events stream one line per event, with -kind / -run /
// -from mapping onto the endpoint's server-side filters. Both decode
// the trace JSONL record.
//
//	lapstat -bundle lapserved-bundle-20260808-120000.tar.gz
//	lapstat -events localhost:8080 -kind 'run.*,breaker.transition'
package main

import (
	"flag"
	"fmt"
	"os"

	lap "repro"
	"repro/internal/analysis"
	"repro/internal/trace"
)

func main() {
	bench := flag.String("bench", "", "benchmark surrogate to analyse")
	traceFile := flag.String("trace", "", "binary trace file to analyse")
	n := flag.Uint64("n", 200_000, "number of accesses to analyse")
	seed := flag.Uint64("seed", 1, "generator seed (with -bench)")
	l2 := flag.Uint64("l2", 8192, "L2 capacity in 64B blocks")
	llc := flag.Uint64("llc", 131072, "LLC capacity in 64B blocks")
	bundle := flag.String("bundle", "", "lapserved diagnostics bundle (tar.gz) to summarize")
	events := flag.String("events", "", "lapserved base URL whose /v1/events stream to tail")
	kinds := flag.String("kind", "", "with -events: comma-separated kind filters (trailing-* prefix match)")
	run := flag.String("run", "", "with -events: only events for this workload|policy cell")
	from := flag.Uint64("from", 0, "with -events: replay from this event sequence number")
	flag.Parse()

	switch {
	case *bundle != "":
		if err := printBundle(*bundle); err != nil {
			fatal("%v", err)
		}
		return
	case *events != "":
		if err := tailEvents(*events, *kinds, *run, *from); err != nil {
			fatal("%v", err)
		}
		return
	}

	an := analysis.NewAnalyzer()
	an.L2Blocks = *l2
	an.LLCBlocks = *llc
	an.MaxAccesses = *n

	var src trace.Source
	switch {
	case *traceFile != "":
		f, err := os.Open(*traceFile)
		if err != nil {
			fatal("%v", err)
		}
		defer f.Close()
		r, err := trace.NewAutoReader(f)
		if err != nil {
			fatal("%v", err)
		}
		defer func() {
			if r.Err() != nil {
				fatal("reading trace: %v", r.Err())
			}
		}()
		src = r
	case *bench != "":
		b, err := lap.BenchmarkByName(*bench)
		if err != nil {
			fatal("%v", err)
		}
		fmt.Printf("benchmark %s (%d regions, %.0f instr/access)\n", b.Name, len(b.Regions), b.InstrPerAccess)
		src = lap.NewWorkloadSource(b, *seed)
	default:
		fatal("one of -bench or -trace is required")
	}

	rep := an.Analyze(src)
	rep.Fprint(os.Stdout)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "lapstat: "+format+"\n", args...)
	os.Exit(1)
}
