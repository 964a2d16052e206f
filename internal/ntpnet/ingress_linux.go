//go:build linux

package ntpnet

import (
	"net"
	"syscall"
	"time"
	"unsafe"
)

// oobSpace sizes the per-worker ancillary buffer: one cmsg header
// plus a Timespec, rounded up generously.
const oobSpace = 64

// rxTimestampsAvailable reports at build time whether the kernel can
// attach receive timestamps to datagrams.
const rxTimestampsAvailable = true

// enableRxTimestamps asks the kernel to attach a nanosecond receive
// timestamp (SCM_TIMESTAMPNS) to every datagram on conn. The stamp is
// taken when the packet enters the socket queue, so a sojourn
// measured against it includes the kernel queueing delay — exactly
// the signal CoDel-style shedding needs. A userspace read-time stamp
// cannot see the queue at all: under collapse the reads still take
// microseconds each while the datagrams they drain are seconds old.
func enableRxTimestamps(conn *net.UDPConn) error {
	rc, err := conn.SyscallConn()
	if err != nil {
		return err
	}
	var serr error
	if cerr := rc.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_TIMESTAMPNS, 1)
	}); cerr != nil {
		return cerr
	}
	return serr
}

// rxTimestamp extracts the kernel receive timestamp from the
// ancillary data of one ReadMsgUDPAddrPort. It walks the control
// messages in place and answers as a loop over
// syscall.ParseSocketControlMessage would — the first stamp, and none
// at all from a buffer holding a malformed message — without building
// that function's slice.
func rxTimestamp(oob []byte) (at time.Time, ok bool) {
	hdr := syscall.CmsgLen(0)
	for len(oob) >= hdr {
		h := (*syscall.Cmsghdr)(unsafe.Pointer(&oob[0]))
		if h.Len < syscall.SizeofCmsghdr || uint64(h.Len) > uint64(len(oob)) {
			return time.Time{}, false
		}
		if !ok && h.Level == syscall.SOL_SOCKET && h.Type == syscall.SCM_TIMESTAMPNS &&
			int(h.Len) >= syscall.CmsgLen(int(unsafe.Sizeof(syscall.Timespec{}))) {
			ts := (*syscall.Timespec)(unsafe.Pointer(&oob[hdr]))
			at, ok = time.Unix(ts.Unix()), true
		}
		// CmsgSpace(n) - CmsgLen(0) is n rounded up to the cmsg alignment.
		oob = oob[min(syscall.CmsgSpace(int(h.Len))-hdr, len(oob)):]
	}
	return at, ok
}
