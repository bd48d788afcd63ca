// Package reverse derives the rule template "does <a> reverse <b>?"
// (Table 2): on error paths, actions performed earlier (allocation,
// registration, locking) must be undone before the error return. It is
// the pairing path template restricted to error paths: the population is
// error paths containing b, the examples are those where a later a
// reverses it, and every unreversed b is reported. Error paths are
// recognized by their return value — a negative constant or a null
// pointer, the error idioms §5.2 lists as latent specifications.
package reverse

import (
	"strings"

	"deviant/internal/cast"
	"deviant/internal/checkers/pairing"
	"deviant/internal/ctoken"
	"deviant/internal/latent"
)

// Limits bound path enumeration per function.
type Limits = pairing.Limits

// Checker accumulates error-path call sequences across a program.
type Checker = pairing.Checker

// Reversal is one derived (b, a) instance: Key.B reverses Key.A on
// error paths. Checks = error paths with Key.A; Errors = unreversed.
type Reversal = pairing.Pair

// DefaultLimits mirror the pairing checker's bounds.
func DefaultLimits() Limits { return pairing.DefaultLimits() }

// errorPaths is the reversal template: return statements classify the
// path instead of contributing calls, and only printk is ignored.
var errorPaths = pairing.Template{
	Name:        "reverse",
	ErrorReturn: isErrorReturn,
	Ignore:      map[string]bool{"printk": true},
	Rule:        "%s must be reversed by %s on error paths",
	Message:     "error path does not undo %s with %s (reversed %d/%d elsewhere)",
}

// New returns an empty reversal deriver.
func New(conv *latent.Conventions, limits Limits) *Checker {
	return pairing.NewTemplate(conv, limits, &errorPaths)
}

// isErrorReturn recognizes the error idioms: return of a negative
// constant, NULL, or an -Exxx identifier.
func isErrorReturn(e cast.Expr) bool {
	e = cast.StripParensAndCasts(e)
	switch x := e.(type) {
	case *cast.UnaryExpr:
		if x.Op != ctoken.Minus {
			return false
		}
		switch y := cast.StripParensAndCasts(x.X).(type) {
		case *cast.IntLit:
			return y.Value > 0
		case *cast.Ident:
			return strings.HasPrefix(y.Name, "E")
		}
		return false
	case *cast.IntLit:
		return false // "return 0" is success
	case *cast.Ident:
		return x.Name == "NULL"
	}
	return false
}
