// Command experiments regenerates the evaluation figures of Rahm & Marek
// (VLDB '95) with this library's simulator, printing one aligned table per
// figure (and optionally CSV or JSON for plotting). Each figure runs as one
// dynlb.Experiment: independent sweep points run on a worker pool
// (-parallel); results are bit-identical at any parallelism level because
// every point simulates on its own kernel and RNG. With -reps N (N >= 2)
// every point is replicated across N deterministic seeds and each row
// reports across-replicate means with Student-t confidence half-widths at
// the -ci level. Interrupting the command (Ctrl-C) cancels the sweep
// promptly via context cancellation.
//
// With -compare A,B the figure's workload configurations are swept under
// the two named strategies head to head: every replicate runs both
// strategies on the identical seed (common random numbers), and rows carry
// the paired delta and relative improvement of B over A with paired-t
// confidence half-widths — tighter than independent seeds would give.
//
// Examples:
//
//	experiments -fig 5                      # reproduce Fig. 5 at normal scale
//	experiments -fig all -scale quick
//	experiments -fig 9b -scale full -out fig9b.csv
//	experiments -fig 6 -out fig6.json -format json
//	experiments -fig 6 -reps 5 -ci 0.99     # 5 seeds per point, 99% intervals
//	experiments -fig all -parallel 1        # sequential (for timing baselines)
//	experiments -fig 6 -progress            # stream rows as they complete
//	experiments -fig 6 -cpuprofile cpu.out  # profile the simulator hot path
//	experiments -fig 8 -reps 5 -compare psu-opt+RANDOM,OPT-IO-CPU
//
// With -dist the sweep executes on a worker fleet instead of in-process:
// a coordinator dispatches the plan's jobs to the named dynlbworker
// instances, re-dispatches on worker death or timeout, degrades to local
// execution when the fleet is unreachable, and merges completions in the
// library's deterministic order — the rows (and any -out file) are
// byte-identical to a local run. -placement records where every job ran:
//
//	dynlbworker -addr :9090 & dynlbworker -addr :9091 &
//	experiments -fig 1c -scale quick -dist http://localhost:9090,http://localhost:9091 \
//	    -out fig1c.csv -placement placement.csv
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"time"

	"dynlb"
	"dynlb/internal/dist"
	"dynlb/internal/prof"
)

func main() {
	// All failure paths return through run so deferred cleanup — most
	// importantly flushing the CPU profile trailer — still happens.
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// errWriter latches the first write failure so a broken pipe or full disk
// on the table output cannot end in exit code 0.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil // drop quietly; the latched error decides the exit code
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, err
}

func run(args []string, stdoutW, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig      = fs.String("fig", "all", "figure to regenerate (1a 1b 1c 5 6 7 8 9a 9b, or all)")
		scale    = fs.String("scale", "normal", "simulation scale: quick, normal, full")
		seed     = fs.Int64("seed", 1, "random seed")
		reps     = fs.Int("reps", 1, "replicates per sweep point (>= 2 adds confidence intervals)")
		ci       = fs.Float64("ci", 0.95, "confidence level of replicate intervals, in (0,1)")
		compare  = fs.String("compare", "", "compare two strategies A,B head to head on the figure's workload sweep (paired replicate seeds)")
		profile  = fs.String("profile", "", "load profile making the workload non-stationary, e.g. square:factor=4,period=2s,duty=0.5 (see dynlb.ParseProfile)")
		faults   = fs.String("faults", "", "fault plan injecting failures, e.g. crash(pe=3,at=20s,down=10s) (see dynlb.ParseFaults)")
		window   = fs.String("window", "", "metrics window width (e.g. 1s): adds per-window transient metrics to every row")
		outF     = fs.String("out", "", "also write rows to this file (see -format)")
		format   = fs.String("format", "csv", "row file format for -out: csv or json")
		progress = fs.Bool("progress", false, "stream every completed row to stderr as the sweep runs")
		parallel = fs.Int("parallel", runtime.NumCPU(), "max concurrent simulation points (1 = sequential, <=0 = NumCPU)")
		cpuProf  = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = fs.String("memprofile", "", "write an allocation (heap) profile to this file on exit")
		distW    = fs.String("dist", "", "comma-separated dynlbworker URLs: run the sweep on a coordinator + worker fleet (rows stay bit-identical)")
		placeF   = fs.String("placement", "", "with -dist, write per-job placement metadata to this file (.json = JSON, otherwise CSV)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	stdout := &errWriter{w: stdoutW}

	sc, err := dynlb.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *reps < 1 {
		fmt.Fprintf(stderr, "-reps %d < 1\n", *reps)
		return 2
	}
	if !(*ci > 0 && *ci < 1) {
		fmt.Fprintf(stderr, "-ci %v outside (0,1)\n", *ci)
		return 2
	}
	var loadProf dynlb.LoadProfile
	if *profile != "" {
		p, err := dynlb.ParseProfile(*profile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		loadProf = p
	}
	var faultPlan dynlb.FaultPlan
	if *faults != "" {
		fp, err := dynlb.ParseFaults(*faults)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		faultPlan = fp
	}
	var winWidth dynlb.Duration
	if *window != "" {
		d, err := time.ParseDuration(*window)
		if err != nil || d <= 0 {
			fmt.Fprintf(stderr, "-window %q: want a positive duration like 1s or 500ms\n", *window)
			return 2
		}
		winWidth = dynlb.Duration(d)
	}
	if *format != "csv" && *format != "json" {
		fmt.Fprintf(stderr, "unknown -format %q (want csv or json)\n", *format)
		return 2
	}

	if *cpuProf != "" {
		stop, err := prof.Start(*cpuProf)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(stderr, "cpuprofile:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			if err := prof.WriteHeap(*memProf); err != nil {
				fmt.Fprintln(stderr, "memprofile:", err)
				if code == 0 {
					code = 1
				}
			}
		}()
	}

	// Ctrl-C cancels the sweep: in-flight points are abandoned promptly and
	// the command exits without writing a partial row file.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	opts := []dynlb.Option{
		dynlb.WithScale(sc),
		dynlb.WithSeed(*seed),
		dynlb.WithReps(*reps),
		dynlb.WithConfidence(*ci),
		dynlb.WithWorkers(*parallel),
	}
	if *profile != "" {
		opts = append(opts, dynlb.WithProfile(loadProf))
	}
	if !faultPlan.IsEmpty() {
		opts = append(opts, dynlb.WithFaults(faultPlan))
	}
	if winWidth > 0 {
		opts = append(opts, dynlb.WithMetricsWindow(winWidth))
	}
	if *compare != "" {
		nameA, nameB, err := dynlb.SplitCompare(*compare)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		sa, err := dynlb.StrategyByName(nameA)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		sb, err := dynlb.StrategyByName(nameB)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		opts = append(opts, dynlb.WithCompare(sa, sb))
	}
	var coord *dist.Coordinator
	if *distW != "" {
		coord = dist.New(dist.Options{
			Workers: strings.Split(*distW, ","),
			Logf: func(f string, a ...any) {
				fmt.Fprintf(stderr, f+"\n", a...)
			},
		})
		defer coord.Close()
		opts = append(opts, dynlb.WithDistributed(coord))
	} else if *placeF != "" {
		fmt.Fprintln(stderr, "-placement needs -dist")
		return 2
	}
	if *progress {
		opts = append(opts, dynlb.WithProgress(func(r dynlb.Row) {
			fmt.Fprintf(stderr, "fig %s  %-38s %s=%-8g rt=%9.1fms\n",
				r.Figure, r.Series, r.XLabel, r.X, r.JoinRTMS)
		}))
	}

	figs := []string{*fig}
	if *fig == "all" {
		figs = dynlb.Figures()
		if *compare != "" {
			// Figures 1a/1b/1c sweep the degree through their strategies and
			// have no config axis to compare two strategies on.
			figs = dynlb.CompareFigures()
		}
	}

	var all []dynlb.Row
	var placements []figurePlacement
	for _, f := range figs {
		start := time.Now()
		rows, err := dynlb.NewExperiment(dynlb.Figure(f), opts...).Run(ctx)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprint(stdout, dynlb.FormatRows(rows))
		fmt.Fprintf(stdout, "(figure %s: %d rows in %.1fs wall time)\n\n", f, len(rows), time.Since(start).Seconds())
		all = append(all, rows...)
		if coord != nil {
			if rep := coord.Report(); rep != nil {
				placements = append(placements, figurePlacement{Figure: f, Report: rep})
			}
		}
	}

	if *outF != "" {
		write := dynlb.WriteRowsCSV
		if *format == "json" {
			write = dynlb.WriteRowsJSON
		}
		if err := writeRows(*outF, all, write); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d rows to %s (%s)\n", len(all), *outF, *format)
	}
	if *placeF != "" {
		if err := writePlacement(*placeF, placements); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote placement metadata to %s\n", *placeF)
	}
	if stdout.err != nil {
		fmt.Fprintln(stderr, "stdout:", stdout.err)
		return 1
	}
	return 0
}

// figurePlacement pairs one figure's id with its coordinator report for
// the -placement file.
type figurePlacement struct {
	Figure string `json:"figure"`
	*dist.Report
}

// writePlacement serializes the per-figure placement reports: JSON for a
// .json path, otherwise a flat CSV with one row per (figure, job).
func writePlacement(path string, placements []figurePlacement) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	if strings.HasSuffix(path, ".json") {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(placements)
	}
	cw := csv.NewWriter(f)
	if err := cw.Write([]string{"figure", "job", "slot", "worker", "attempts", "ms"}); err != nil {
		return err
	}
	for _, p := range placements {
		for _, j := range p.Jobs {
			rec := []string{
				p.Figure,
				strconv.Itoa(j.Job),
				strconv.Itoa(j.Slot),
				j.Worker,
				strconv.Itoa(j.Attempts),
				fmt.Sprintf("%.1f", j.MS),
			}
			if err := cw.Write(rec); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

func writeRows(path string, rows []dynlb.Row, write func(io.Writer, []dynlb.Row) error) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// A flush or close failure (ENOSPC, quota, NFS) must not yield a
	// silently truncated file and exit code 0.
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return write(f, rows)
}
