// Command lockdiscipline walks through the paper's Figure 1 example in
// detail: how the statistical lock checker turns raw accesses into
// (variable, lock) beliefs, counts evidence, promotes single-variable
// critical sections to MUST beliefs, and ranks the violations.
package main

import (
	"fmt"
	"log"

	"deviant"
)

// The paper's Figure 1, structurally verbatim.
const figure1 = `
typedef int lock_t;
lock_t l;
int a, b;

void foo(void) {
	lock(l);
	a = a + b;	/* MAY: a,b protected by l */
	unlock(l);
	b = b + 1;	/* MUST: b not protected by l */
}

void bar(void) {
	lock(l);
	a = a + 1;	/* MAY: a protected by l */
	unlock(l);
}

void baz(void) {
	a = a + 1;	/* MAY: a protected by l (backward belief from unlock) */
	unlock(l);
	b = b - 1;	/* MUST: b not protected by l */
	a = a / 5;	/* MUST: a not protected by l */
}
`

func main() {
	opts := deviant.DefaultOptions()
	opts.Checks = deviant.Checks{LockVar: true}
	res, err := deviant.Analyze(map[string]string{"figure1.c": figure1}, opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Figure 1 walk-through: is variable v protected by lock l?")
	fmt.Println()
	fmt.Println("derived beliefs (checks = accesses, errors = unprotected):")
	for _, b := range res.LockBindings {
		must := "MAY"
		if b.Must {
			must = "MUST (sole variable of bar's critical section)"
		}
		fmt.Printf("  (%s, %s): %d checks, %d errors, z=%.2f  [%s]\n",
			b.Key.Var, b.Key.Lock, b.Checks, b.Errors, b.Z, must)
	}
	fmt.Println()
	fmt.Println("paper's expectation: (a,l)=4 checks/1 error, (b,l)=3 checks/2 errors")
	fmt.Println()
	fmt.Println("ranked violations (most credible belief first):")
	for i, r := range res.Reports.Ranked() {
		fmt.Printf("  %d. %s\n", i+1, r.String())
	}
	fmt.Println()
	fmt.Println("note how b's violations rank below a's: b is indifferently")
	fmt.Println("protected, so its unprotected uses are probably coincidence,")
	fmt.Println("while a's single deviation is a probable bug.")
}
