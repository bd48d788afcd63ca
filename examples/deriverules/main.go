// Command deriverules demonstrates automatic rule derivation — the
// paper's core claim that checking information can be extracted from the
// source itself. It analyzes a generated kernel tree and prints, for each
// of the six Table 2 templates, the derived slot instances with their
// evidence and z ranking, including the junk at the bottom that the
// ranking correctly buries.
package main

import (
	"fmt"
	"log"

	"deviant"
	"deviant/internal/corpus"
)

func main() {
	c := corpus.Generate(corpus.Linux247())
	res, err := deviant.Analyze(c.Files, deviant.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("derived rules from %d functions (%d lines), no specifications given\n\n",
		res.FuncCount, res.LineCount)

	fmt.Println("template: <a> must be paired with <b>")
	for i, p := range res.Pairs {
		if i >= 6 {
			fmt.Printf("  ... %d more candidates, ranked down to z=%.2f\n",
				len(res.Pairs)-6, res.Pairs[len(res.Pairs)-1].Z)
			break
		}
		fmt.Printf("  %-18s %-18s %4d/%-4d z=%6.2f boost=%.1f\n",
			p.Key.A, p.Key.B, p.Examples(), p.Checks, p.Z, p.Boost)
	}

	fmt.Println("\ntemplate: can routine <f> fail?")
	for i, d := range res.CanFail {
		if i >= 5 {
			break
		}
		fmt.Printf("  %-24s %4d/%-4d z=%6.2f\n", d.Key, d.Examples(), d.Checks, d.Z)
	}
	fmt.Println("inverse (routines that never fail):")
	for i, d := range res.CanFailNever {
		if i >= 3 {
			break
		}
		fmt.Printf("  %-24s checked %d of %d uses  z=%6.2f\n",
			d.Key, d.Examples(), d.Checks, d.Z)
	}

	fmt.Println("\ntemplate: does lock <l> protect <v>?")
	for i, b := range res.LockBindings {
		if i >= 5 {
			break
		}
		must := ""
		if b.Must {
			must = "  [MUST: sole variable of a critical section]"
		}
		fmt.Printf("  %-28s by %-28s %4d/%-4d z=%6.2f%s\n",
			b.Key.Var, b.Key.Lock, b.Examples(), b.Checks, b.Z, must)
	}

	fmt.Println("\ntemplate: does security check <y> protect <x>?")
	for i, d := range res.SecChecks {
		if i >= 3 {
			break
		}
		fmt.Printf("  %s guards %-24s %4d/%-4d z=%6.2f\n",
			d.Key.Check, d.Key.Action, d.Examples(), d.Checks, d.Z)
	}

	fmt.Println("\ntemplate: does <a> reverse <b> on error paths?")
	for i, r := range res.Reversals {
		if i >= 3 {
			break
		}
		fmt.Printf("  %-18s undone by %-18s %4d/%-4d z=%6.2f\n",
			r.Key.A, r.Key.B, r.Examples(), r.Checks, r.Z)
	}

	fmt.Println("\ntemplate: must <f> be called with interrupts disabled?")
	for i, d := range res.IntrFuncs {
		if i >= 3 {
			break
		}
		fmt.Printf("  %-24s %4d/%-4d z=%6.2f\n", d.Key, d.Examples(), d.Checks, d.Z)
	}
}
