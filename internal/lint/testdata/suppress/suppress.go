// Package suppress exercises the directive machinery itself: line and
// declaration coverage, the mandatory written reason, and malformed
// directives being findings in their own right.
package suppress

import "errors"

func mayFail() error { return errors.New("boom") }

// Preceding-line directive covers the next line.
func Covered() {
	//senss-lint:ignore droppederr fixture: waiver on the preceding line
	mayFail()
}

// Inline directive covers its own line.
func Inline() {
	mayFail() //senss-lint:ignore droppederr fixture: inline waiver
}

// A reason-less directive suppresses nothing and is itself a finding.
func NoReason() {
	//senss-lint:ignore droppederr // want "needs an analyzer list and a written reason"
	mayFail() // want "error result of mayFail is dropped"
}

// A bare directive with no analyzer list at all (everything after the
// nested "//" is commentary, so the scanner sees only the verb) must be
// reported as malformed, not crash the directive scanner.
func Bare() {
	//senss-lint:ignore // want "needs an analyzer list and a written reason"
	mayFail() // want "error result of mayFail is dropped"
}

// A directive in the doc comment covers the whole declaration.
//
// senss-lint:ignore droppederr fixture: declaration-wide waiver
func DeclWide() {
	mayFail()
	mayFail()
}

// An unknown verb is malformed.
//
// senss-lint:suppress droppederr oops // want "malformed senss-lint directive"
func Malformed() {
	mayFail() // want "error result of mayFail is dropped"
}

// A waiver naming an analyzer that does not exist protects nothing and is
// itself a finding.
func UnknownAnalyzer() {
	//senss-lint:ignore nosuchanalyzer fixture: typo in the analyzer name // want `references unknown analyzer "nosuchanalyzer"`
	mayFail() // want "error result of mayFail is dropped"
}

// A taintflow waiver without a reason gets the stricter message: it
// locally disables the secret-flow guarantee.
func TaintflowNoReason() {
	//senss-lint:ignore taintflow // want "must carry a written reason"
	mayFail() // want "error result of mayFail is dropped"
}
