// Command driveraudit audits a kernel-style source tree it has never
// seen before — the paper's headline scenario. Point it at a directory of
// .c files (searched recursively, with an include/ subdirectory for
// headers), or run it bare to audit a generated Linux-2.4.7-like tree.
//
//	driveraudit [-top 25] [dir]
package main

import (
	"flag"
	"fmt"
	"io/fs"
	"log"
	"path/filepath"
	"sort"
	"strings"

	"deviant"
	"deviant/internal/corpus"
	"deviant/internal/cpp"
)

func main() {
	top := flag.Int("top", 25, "ranked reports to print")
	flag.Parse()

	var (
		res *deviant.Result
		err error
	)
	if flag.NArg() == 0 {
		fmt.Println("no directory given; auditing a generated linux-2.4.7-like tree")
		c := corpus.Generate(corpus.Linux247())
		res, err = deviant.Analyze(c.Files, deviant.DefaultOptions())
	} else {
		dir := flag.Arg(0)
		var units []string
		walkErr := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() && strings.HasSuffix(path, ".c") {
				rel, relErr := filepath.Rel(dir, path)
				if relErr != nil {
					return relErr
				}
				units = append(units, rel)
			}
			return nil
		})
		if walkErr != nil {
			log.Fatal(walkErr)
		}
		sort.Strings(units)
		res, err = deviant.AnalyzeFS(cpp.DirFS(dir), units, deviant.DefaultOptions())
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("functions: %d   lines: %d   interface classes: %d\n",
		res.FuncCount, res.LineCount, len(res.Prog.InterfaceClasses()))
	if len(res.ParseErrors) > 0 {
		fmt.Printf("frontend diagnostics: %d (first: %v)\n", len(res.ParseErrors), res.ParseErrors[0])
	}

	fmt.Println("\nderived rules (no a priori knowledge):")
	if len(res.Pairs) > 0 {
		p := res.Pairs[0]
		fmt.Printf("  pairing:   %s must be paired with %s (%d/%d, z=%.2f)\n",
			p.Key.A, p.Key.B, p.Examples(), p.Checks, p.Z)
	}
	if len(res.CanFail) > 0 {
		d := res.CanFail[0]
		fmt.Printf("  can fail:  %s (%d/%d callers check it, z=%.2f)\n",
			d.Key, d.Examples(), d.Checks, d.Z)
	}
	if len(res.LockBindings) > 0 {
		lb := res.LockBindings[0]
		fmt.Printf("  locking:   %s protects %s (%d/%d, z=%.2f)\n",
			lb.Key.Lock, lb.Key.Var, lb.Examples(), lb.Checks, lb.Z)
	}

	ranked := res.Reports.Ranked()
	fmt.Printf("\n%d error reports; top %d by rank:\n", len(ranked), *top)
	for i, r := range ranked {
		if i >= *top {
			break
		}
		fmt.Printf("%3d. %s\n", i+1, r.String())
	}
}
