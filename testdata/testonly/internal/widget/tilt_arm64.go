package widget

// tilt is built only for arm64, and only it calls Gadget.Tilt.
func tilt() { Gadget{}.Tilt() }
