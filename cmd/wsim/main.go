// Command wsim is the experiment driver: it regenerates the thesis's
// tables and figures (DESIGN.md's E1–E16 index) on the deterministic
// network simulator, and runs the seeded end-to-end scenarios of
// experiments.Scenarios.
//
// Usage:
//
//	wsim -list             list experiments and scenarios
//	wsim -exp E7           run one experiment
//	wsim -all              run every experiment in order
//	wsim -run mmwave       run one scenario at its own seed; its output
//	                       is byte-identical per seed
//	wsim -run chaos -seed 42
//	                       run one scenario at another seed
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
)

func main() {
	list := flag.Bool("list", false, "list experiments and scenarios")
	exp := flag.String("exp", "", "run one experiment by id (e.g. E7)")
	all := flag.Bool("all", false, "run every experiment")
	run := flag.String("run", "", "run one scenario by name (see -list)")
	seed := flag.Int64("seed", 0, "simulation seed for -run (default: the scenario's own seed)")
	flag.Parse()

	var err error
	switch {
	case *list:
		for _, e := range experiments.All() {
			fmt.Printf("%-4s %-55s %s\n", e.ID, e.Paper, e.Description)
		}
		for _, s := range experiments.Scenarios {
			fmt.Printf("-run %-8s seed %-3d %s\n", s.Name, s.Seed, s.Doc)
		}
	case *exp != "":
		err = experiments.Run(*exp, os.Stdout)
	case *all:
		experiments.RunAll(os.Stdout)
	case *run != "":
		err = runScenario(*run, *seed)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runScenario runs the named scenario to stdout at seed, or at the
// scenario's own seed when -seed was not given.
func runScenario(name string, seed int64) error {
	for _, s := range experiments.Scenarios {
		if s.Name == name {
			flag.Visit(func(f *flag.Flag) {
				if f.Name == "seed" {
					s.Seed = seed
				}
			})
			return s.Run(s.Seed, os.Stdout)
		}
	}
	return fmt.Errorf("wsim: unknown scenario %q (see -list)", name)
}
