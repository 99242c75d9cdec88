// Command dpbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dpbench [-quick] [-seed N] [-trials N] [-max N] [-list] [exhibit ...]
//
// With no exhibit arguments every exhibit runs. Exhibit names follow
// the paper: fig4 fig6 fig7 fig8 fig11 fig12 fig13 fig14 fig15
// table1..table6 sec3d sec5.
package main

import (
	"flag"
	"fmt"
	"os"

	"ulpdp"
)

func main() {
	quick := flag.Bool("quick", false, "reduced sizes (seconds instead of minutes)")
	seed := flag.Uint64("seed", 0, "override the experiment seed")
	trials := flag.Int("trials", 0, "override the per-cell trial count")
	maxEntries := flag.Int("max", 0, "override the per-dataset entry cap")
	list := flag.Bool("list", false, "list exhibit names and exit")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of text tables")
	dataDir := flag.String("data", "", "directory of real dataset CSVs (see cmd/datagen for the format)")
	flag.Parse()

	if *list {
		for _, n := range ulpdp.ExperimentNames() {
			fmt.Println(n)
		}
		return
	}

	cfg := ulpdp.DefaultExperiments()
	if *quick {
		cfg = ulpdp.QuickExperiments()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *trials != 0 {
		cfg.Trials = *trials
	}
	if *maxEntries != 0 {
		cfg.MaxEntries = *maxEntries
	}
	cfg.DataDir = *dataDir

	args := flag.Args()
	if len(args) == 0 {
		if *jsonOut {
			args = ulpdp.ExperimentNames()
		} else {
			if err := ulpdp.RunAllExperiments(cfg, os.Stdout); err != nil {
				fatal(err)
			}
			return
		}
	}
	for _, name := range args {
		if *jsonOut {
			if err := ulpdp.RunExperimentJSON(name, cfg, os.Stdout); err != nil {
				fatal(err)
			}
			continue
		}
		fmt.Printf("==== %s ====\n", name)
		if err := ulpdp.RunExperiment(name, cfg, os.Stdout); err != nil {
			fatal(err)
		}
		fmt.Println()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dpbench:", err)
	os.Exit(1)
}
