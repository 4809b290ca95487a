//go:build linux && (amd64 || arm64)

package udptrans

import (
	"fmt"
	"syscall"
	"unsafe"
)

// mmsghdr mirrors the kernel's struct mmsghdr on 64-bit Linux: the
// per-datagram msghdr plus the byte count the kernel fills in (which
// nothing reads), padded to 8-byte alignment.
type mmsghdr struct {
	Hdr syscall.Msghdr
	_   uint32
	_   [4]byte
}

// batchSender submits a whole batch with one sendmmsg(2) call: one
// iovec per datagram pointing into the shared arena, one mmsghdr per
// iovec. The header and iovec slices are reused across flushes, so a
// steady stream allocates nothing.
type batchSender struct {
	iovs []syscall.Iovec
	hdrs []mmsghdr
}

func (s *batchSender) send(t *Transport, arena []byte, ends []int) error {
	n := len(ends)
	if cap(s.iovs) < n {
		s.iovs = make([]syscall.Iovec, n)
		s.hdrs = make([]mmsghdr, n)
	}
	s.iovs = s.iovs[:n]
	s.hdrs = s.hdrs[:n]
	start := 0
	for i, end := range ends {
		s.iovs[i] = syscall.Iovec{Base: &arena[start], Len: uint64(end - start)}
		s.hdrs[i] = mmsghdr{}
		s.hdrs[i].Hdr.Iov = &s.iovs[i]
		s.hdrs[i].Hdr.Iovlen = 1
		start = end
	}
	rc, rcErr := t.conn.SyscallConn()
	if rcErr != nil {
		return sendLoop(t, arena, ends)
	}
	sent := 0
	var sysErr error
	werr := rc.Write(func(fd uintptr) bool {
		for sent < n {
			r, _, errno := syscall.Syscall6(sysSendmmsg,
				fd, uintptr(unsafe.Pointer(&s.hdrs[sent])), uintptr(n-sent), 0, 0, 0)
			if errno == syscall.EAGAIN {
				return false // socket buffer full: wait for writability
			}
			if errno != 0 {
				sysErr = errno
				return true
			}
			sent += int(r)
		}
		return true
	})
	if werr != nil {
		return fmt.Errorf("udptrans: %s: %w", t.peer, werr)
	}
	if sysErr != nil {
		return fmt.Errorf("udptrans: %s: sendmmsg: %w", t.peer, sysErr)
	}
	return nil
}
