// Distributed demonstrates the coordinator + worker-fleet execution path
// end to end, self-hosted in one process: it starts two dynlb workers on
// loopback listeners, runs a quick sweep through a coordinator dispatching
// its jobs to them, and verifies the merged rows are byte-identical to
// running the same experiment locally — the distributed path's core
// guarantee. It then prints where every job ran.
//
// Against a real fleet the same wiring is two flags away:
//
//	dynlbworker -addr :9090 &
//	dynlbworker -addr :9091 &
//	experiments -fig 1c -scale quick \
//	    -dist http://localhost:9090,http://localhost:9091 -placement placement.csv
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"

	"dynlb"
	"dynlb/internal/dist"
)

func main() {
	cfg := dynlb.DefaultConfig()
	cfg.NPE = 8
	cfg.JoinQPSPerPE = 0.1
	cfg.Warmup = dynlb.Seconds(1)
	cfg.MeasureTime = dynlb.Seconds(3)
	sweep := dynlb.Sweep{
		Name: "distributed-demo",
		Base: cfg,
		Strategies: []dynlb.Strategy{
			dynlb.MustStrategy("psu-opt+RANDOM"),
			dynlb.MustStrategy("OPT-IO-CPU"),
		},
		Axes: []dynlb.Axis{
			dynlb.IntAxis("#PE", func(c *dynlb.Config, n int) { c.NPE = n }, 4, 6, 8),
		},
	}

	// Local baseline: the bytes every distributed run must reproduce.
	local, err := dynlb.NewExperiment(sweep, dynlb.WithReps(2)).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	// Two in-process workers on loopback — stand-ins for dynlbworker
	// instances on other machines.
	w1 := httptest.NewServer(dist.NewWorker(2))
	defer w1.Close()
	w2 := httptest.NewServer(dist.NewWorker(2))
	defer w2.Close()

	coord := dist.New(dist.Options{
		Workers:      []string{w1.URL, w2.URL},
		DisableLocal: true, // prove every job really crossed the wire
	})
	defer coord.Close()

	rows, err := dynlb.NewExperiment(sweep,
		dynlb.WithReps(2),
		dynlb.WithDistributed(coord),
	).Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}

	var a, b bytes.Buffer
	if err := dynlb.WriteRowsCSV(&a, local); err != nil {
		log.Fatal(err)
	}
	if err := dynlb.WriteRowsCSV(&b, rows); err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		log.Fatal("distributed rows differ from local rows")
	}
	fmt.Printf("distributed == local: %d rows byte-identical across 2 workers\n\n", len(rows))

	rep := coord.Report()
	fmt.Printf("placement (%d workers live at start, %d redispatches, %d duplicates):\n",
		rep.LiveAtStart, rep.Redispatches, rep.Duplicates)
	if err := rep.WriteCSV(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
