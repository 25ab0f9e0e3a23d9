// Package widget is a fixture for the test-only export guard; it is parsed,
// never built.
package widget

// Unused is named by no program code: only by this comment, a comment in
// the bench program and widget_test.go.
func Unused() {}

// Used is named by sibling.
func Used() int { return 1 }

func sibling() int { return Used() }

// Benched is named only by the bench program.
func Benched() {}

// Gadget is named by the bench program.
type Gadget struct{}

// String is named nowhere; an allowlist entry excuses it.
func (Gadget) String() string { return "gadget" }

// Spin is named only by widget_test.go.
func (Gadget) Spin() {}
