// Package widget is a fixture for the test-only export guard; it is
// type-checked, never built.
package widget

// Unused is named by no program code: only by this comment, a comment in
// the bench program and widget_test.go.
func Unused() {}

// Used is called by sibling.
func Used() int { return 1 }

func sibling() int { return Used() }

// Benched is called only by the bench program.
func Benched() {}

// Gadget is named by the bench program.
type Gadget struct{}

// String is named by no program code; fmt calls it through fmt.Stringer.
func (Gadget) String() string { return "gadget" }

// Spin is called only by widget_test.go, though the bench program calls
// Rotor.Spin.
func (Gadget) Spin() {}

// Tilt is called only by tilt_arm64.go.
func (Gadget) Tilt() {}

// Turner is called through by the bench program: Turn, never Halt.
type Turner interface {
	Turn()
	Halt()
}

// Rotor is a Turner.
type Rotor struct {
	Gear int
}

// Gear is named by no program code; the bench program reads the Gear field
// of a Rotor.
func Gear() {}

// Spin is called by the bench program.
func (Rotor) Spin() {}

// Turn is reached only through Turner.Turn.
func (Rotor) Turn() {}

// Halt is called by the bench program on a Rotor, never through Turner.
func (Rotor) Halt() {}
