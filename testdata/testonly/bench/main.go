// Command bench stands for program code outside internal/. It does not call
// widget.Unused.
package main

import "repro/internal/widget"

func main() {
	widget.Benched()
	_ = widget.Gadget{}
}
