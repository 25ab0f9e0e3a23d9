// Command bench stands for program code outside internal/. It does not call
// widget.Unused.
package main

import (
	"fmt"

	"repro/internal/widget"
)

func main() {
	widget.Benched()
	fmt.Println(widget.Gadget{})
	var r widget.Rotor
	r.Spin()
	r.Halt()
	_ = r.Gear
	var t widget.Turner = r
	t.Turn()
}
