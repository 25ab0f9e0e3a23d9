package widget

import "testing"

func TestWidget(t *testing.T) {
	Unused()
	Gadget{}.Spin()
}
