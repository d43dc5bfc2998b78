// Command benchall runs the complete reproduction suite (experiments E1–E12
// and ablations A1–A4 of package internal/experiments, whose doc lists
// them) at full size and prints every table.
//
// Usage:
//
//	benchall [-seed N] [-quick] [-only E5,E9]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"parmbf/internal/experiments"
)

func main() {
	seed := flag.Uint64("seed", 1, "random seed driving all experiments")
	quick := flag.Bool("quick", false, "run reduced-size workloads")
	only := flag.String("only", "", "comma-separated experiment IDs to run (default: all)")
	flag.Parse()

	cfg := experiments.Config{Seed: *seed, Quick: *quick}
	suite := map[string]func(experiments.Config) *experiments.Table{
		"E1": experiments.E1Stretch, "E2": experiments.E2SPDH,
		"E3": experiments.E3HStretch, "E4": experiments.E4LELists,
		"E5": experiments.E5Work, "E6": experiments.E6HopSet,
		"E7": experiments.E7Metric, "E8": experiments.E8Spanner,
		"E9": experiments.E9Congest, "E10": experiments.E10Zoo,
		"E11": experiments.E11KMedian, "E12": experiments.E12BuyAtBulk,
		"E13": experiments.E13Ensemble,
		"A1":  experiments.A1Filtering, "A2": experiments.A2LevelPenalty,
		"A3": experiments.A3HopSetChoice, "A4": experiments.A4SpannerPre,
		"X1": experiments.X1Steiner,
	}
	order := []string{
		"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13",
		"A1", "A2", "A3", "A4", "X1",
	}

	selected := order
	if *only != "" {
		selected = nil
		for _, id := range strings.Split(*only, ",") {
			id = strings.TrimSpace(id)
			if _, ok := suite[id]; !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q (valid: %s)\n", id, strings.Join(order, ", "))
				os.Exit(2)
			}
			selected = append(selected, id)
		}
	}

	fmt.Printf("parmbf reproduction suite — seed=%d quick=%v\n\n", *seed, *quick)
	for _, id := range selected {
		start := time.Now()
		table := suite[id](cfg)
		fmt.Print(table.Format())
		fmt.Printf("(%.1fs)\n\n", time.Since(start).Seconds())
	}
}
