// Command pskybench regenerates the experiments of the paper's evaluation
// section (Figures 4–12). Each figure prints the same series the paper
// plots; the default scale (n=200K, N=100K) finishes in minutes, and
// -paper-scale runs the paper's n=2M, N=1M.
//
// Usage:
//
//	pskybench -exp all
//	pskybench -exp fig4,fig8
//	pskybench -exp fig5 -n 400000 -w 200000
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"pskyline/internal/bench"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "comma-separated experiments: all, fig4, fig5, fig6, fig7, fig8, fig9, fig10, fig11, fig12a, fig12b")
		n          = flag.Int("n", bench.DefaultScale.N, "stream length")
		w          = flag.Int("w", bench.DefaultScale.Window, "sliding window size")
		paperScale = flag.Bool("paper-scale", false, "use the paper's n=2M, N=1M (slow)")

		ingest       = flag.Bool("ingest", false, "run the ingestion benchmark harness instead of the figure experiments")
		ingestOut    = flag.String("out", "BENCH_ingest.json", "trajectory file the -ingest run is appended to")
		ingestLabel  = flag.String("label", "local", "label naming the -ingest run in the trajectory file")
		ingestWindow = flag.Int("ingest-window", 0, "sliding window of the -ingest workloads (0 = default 10000)")
		ingestShort  = flag.Bool("ingest-short", false, "shrink the -ingest workloads for smoke runs")
		recoverOnly  = flag.Bool("ingest-recover-only", false, "run only the recovery-reopen workloads (the bench-recovery smoke)")
	)
	flag.Parse()

	if *ingest {
		fmt.Printf("pskybench: ingestion workloads (label %q)\n", *ingestLabel)
		run := bench.Ingest(bench.IngestConfig{
			Window:      *ingestWindow,
			Short:       *ingestShort,
			Label:       *ingestLabel,
			RecoverOnly: *recoverOnly,
		}, os.Stdout)
		if err := bench.WriteIngest(*ingestOut, run); err != nil {
			fmt.Fprintln(os.Stderr, "pskybench:", err)
			os.Exit(1)
		}
		fmt.Printf("pskybench: appended run %q to %s\n", run.Label, *ingestOut)
		return
	}

	scale := bench.Scale{N: *n, Window: *w}
	if *paperScale {
		scale = bench.PaperScale
	}
	if scale.Window > scale.N {
		fmt.Fprintln(os.Stderr, "pskybench: window larger than stream length")
		os.Exit(2)
	}

	run := map[string]func(){
		"fig4":     func() { bench.Fig4(scale, os.Stdout) },
		"fig5":     func() { bench.Fig5(scale, os.Stdout) },
		"fig6":     func() { bench.Fig6(scale, os.Stdout) },
		"fig7":     func() { bench.Fig7(scale, os.Stdout) },
		"fig8":     func() { bench.Fig8(scale, os.Stdout) },
		"fig9":     func() { bench.Fig9(scale, os.Stdout) },
		"fig10":    func() { bench.Fig10(scale, os.Stdout) },
		"fig11":    func() { bench.Fig11(scale, os.Stdout) },
		"fig12a":   func() { bench.Fig12a(scale, os.Stdout) },
		"fig12b":   func() { bench.Fig12b(scale, os.Stdout) },
		"counters": func() { bench.Counters(scale, os.Stdout) },
	}

	fmt.Printf("pskybench: n=%d window=%d\n", scale.N, scale.Window)
	if *exp == "all" {
		bench.All(scale, os.Stdout)
		return
	}
	for _, name := range strings.Split(*exp, ",") {
		name = strings.TrimSpace(strings.ToLower(name))
		f, ok := run[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "pskybench: unknown experiment %q\n", name)
			os.Exit(2)
		}
		f()
	}
}
