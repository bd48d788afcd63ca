// Command benchtab regenerates the paper's evaluation artifacts: every
// table, every figure, and the design ablations (the experiment index is
// DESIGN.md §3; measured outputs are recorded in EXPERIMENTS.md).
//
// Usage:
//
//	benchtab -all
//	benchtab -table 3
//	benchtab -fig 1
//	benchtab -ablations
//	benchtab -trajectory BENCH_trajectory.json
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"deviant/internal/experiments"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchtab: ")

	all := flag.Bool("all", false, "regenerate everything")
	table := flag.Int("table", 0, "regenerate one table (1-6)")
	fig := flag.Int("fig", 0, "regenerate one figure (1-4)")
	ablations := flag.Bool("ablations", false, "run the design ablations")
	trajectory := flag.String("trajectory", "", "render the benchmark history that make bench-archive appends to this file")
	flag.Parse()

	tables := map[int]func() (string, error){
		1: experiments.Table1, 2: experiments.Table2, 3: experiments.Table3,
		4: experiments.Table4, 5: experiments.Table5, 6: experiments.Table6,
		7: experiments.Table7,
	}
	figures := map[int]func() (string, error){
		1: experiments.Figure1, 2: experiments.Figure2,
		3: experiments.Figure3, 4: experiments.Figure4,
	}

	show := func(f func() (string, error)) {
		out, err := f()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(out)
	}

	switch {
	case *all:
		for i := 1; i <= 7; i++ {
			show(tables[i])
		}
		for i := 1; i <= 4; i++ {
			show(figures[i])
		}
		show(experiments.AblationPruning)
		show(experiments.AblationMacros)
	case *table != 0:
		f, ok := tables[*table]
		if !ok {
			log.Fatalf("no table %d (have 1-7)", *table)
		}
		show(f)
	case *fig != 0:
		f, ok := figures[*fig]
		if !ok {
			log.Fatalf("no figure %d (have 1-4)", *fig)
		}
		show(f)
	case *ablations:
		show(experiments.AblationPruning)
		show(experiments.AblationMacros)
	case *trajectory != "":
		show(func() (string, error) { return experiments.Trajectory(*trajectory) })
	default:
		fmt.Fprintln(os.Stderr, "usage: benchtab -all | -table N | -fig N | -ablations | -trajectory FILE")
		flag.PrintDefaults()
		os.Exit(2)
	}
}
