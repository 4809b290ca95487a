package occam

import (
	"testing"
	"unsafe"
)

// TestObjectsFitTheirSizeClass pins the size of each object the
// runtime makes per simulated part, so that a new field cannot quietly
// carry it into the next allocation size class. A box holds a dozen
// processes and about as many channels, links and signals, so every
// class crossed is paid thousands of times over on a large system.
func TestObjectsFitTheirSizeClass(t *testing.T) {
	type msg struct {
		stream uint32
		w      struct {
			p      *byte
			n, off int
		}
	}
	for _, c := range []struct {
		what string
		size uintptr
		max  uintptr
	}{
		{"Proc", unsafe.Sizeof(Proc{}), 128},
		{"Chan[int]", unsafe.Sizeof(Chan[int]{}), 64},
		{"Chan[msg]", unsafe.Sizeof(Chan[msg]{}), 64},
		{"Signal", unsafe.Sizeof(Signal{}), 48},
		{"Link[msg]", unsafe.Sizeof(Link[msg]{}), 112},
		{"Node", unsafe.Sizeof(Node{}), 64},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, want at most %d", c.what, c.size, c.max)
		}
	}
}
