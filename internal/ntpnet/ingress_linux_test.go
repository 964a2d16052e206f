//go:build linux

package ntpnet

import (
	"net"
	"syscall"
	"testing"
	"time"
	"unsafe"
)

// rxTimestampStdlib is the parser rxTimestamp replaced, kept as its
// reference: a loop over syscall.ParseSocketControlMessage's slice.
func rxTimestampStdlib(oob []byte) (time.Time, bool) {
	msgs, err := syscall.ParseSocketControlMessage(oob)
	if err != nil {
		return time.Time{}, false
	}
	for _, m := range msgs {
		if m.Header.Level == syscall.SOL_SOCKET && m.Header.Type == syscall.SCM_TIMESTAMPNS &&
			len(m.Data) >= int(unsafe.Sizeof(syscall.Timespec{})) {
			ts := (*syscall.Timespec)(unsafe.Pointer(&m.Data[0]))
			return time.Unix(ts.Sec, ts.Nsec), true
		}
	}
	return time.Time{}, false
}

// cmsg builds one control message: a header claiming length claim
// (CmsgLen(len(data)) when negative) over data, padded to alignment.
func cmsg(level, typ int32, data []byte, claim int) []byte {
	b := make([]byte, syscall.CmsgSpace(len(data)))
	h := (*syscall.Cmsghdr)(unsafe.Pointer(&b[0]))
	h.Level, h.Type = level, typ
	if claim < 0 {
		claim = syscall.CmsgLen(len(data))
	}
	h.SetLen(claim)
	copy(b[syscall.CmsgLen(0):], data)
	return b
}

func stampMsg(sec, nsec int64) []byte {
	ts := syscall.Timespec{Sec: sec, Nsec: nsec}
	return cmsg(syscall.SOL_SOCKET, syscall.SCM_TIMESTAMPNS, unsafe.Slice((*byte)(unsafe.Pointer(&ts)), unsafe.Sizeof(ts)), -1)
}

// kernelStamp reads one datagram's real SCM_TIMESTAMPNS buffer off a
// loopback socket.
func kernelStamp(t testing.TB) []byte {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := enableRxTimestamps(conn); err != nil {
		t.Skipf("kernel receive timestamps unavailable: %v", err)
	}
	if _, err := conn.WriteToUDPAddrPort([]byte("x"), conn.LocalAddr().(*net.UDPAddr).AddrPort()); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	oob := make([]byte, oobSpace)
	_, oobn, _, _, err := conn.ReadMsgUDPAddrPort(make([]byte, 8), oob)
	if err != nil {
		t.Fatal(err)
	}
	return oob[:oobn]
}

// rxTimestampCases are the buffers TestRxTimestampMatchesStdlib walks
// and FuzzRxTimestamp starts from.
func rxTimestampCases(t testing.TB) map[string][]byte {
	stamp, other := stampMsg(1479081600, 123456789), cmsg(syscall.SOL_IP, syscall.IP_TTL, []byte{64, 0, 0, 0}, -1)
	join := func(msgs ...[]byte) (b []byte) {
		for _, m := range msgs {
			b = append(b, m...)
		}
		return b
	}
	return map[string][]byte{
		"kernel":                      kernelStamp(t),
		"empty":                       nil,
		"shorter than a header":       stamp[:syscall.SizeofCmsghdr-1],
		"len below the header size":   cmsg(syscall.SOL_SOCKET, syscall.SCM_TIMESTAMPNS, make([]byte, 16), syscall.SizeofCmsghdr-1),
		"len past the buffer":         cmsg(syscall.SOL_SOCKET, syscall.SCM_TIMESTAMPNS, make([]byte, 16), 4096),
		"stamp cut short":             cmsg(syscall.SOL_SOCKET, syscall.SCM_TIMESTAMPNS, make([]byte, 8), -1),
		"unrelated before the stamp":  join(other, stamp),
		"the stamp twice":             join(stamp, stampMsg(1, 2)),
		"stamp then a malformed one":  join(stamp, cmsg(syscall.SOL_IP, syscall.IP_TTL, make([]byte, 4), 4096)),
		"stamp then trailing garbage": join(stamp, []byte{1, 2, 3}),
	}
}

// TestRxTimestampMatchesStdlib holds the in-place walk to the parser
// it replaced, on a buffer the kernel wrote and on hand-built ones.
func TestRxTimestampMatchesStdlib(t *testing.T) {
	for name, oob := range rxTimestampCases(t) {
		got, ok := rxTimestamp(oob)
		want, wantOK := rxTimestampStdlib(oob)
		if ok != wantOK || !got.Equal(want) {
			t.Errorf("%s: rxTimestamp = %v, %v; the standard library's parse gives %v, %v", name, got, ok, want, wantOK)
		}
		switch name {
		case "kernel":
			if age := time.Since(got); !ok || age < 0 || age > time.Minute {
				t.Errorf("kernel stamp %v (ok=%v) is %v old: not a receive time", got, ok, age)
			}
		case "unrelated before the stamp", "the stamp twice", "stamp then trailing garbage":
			if !ok || got.Unix() != 1479081600 || got.Nanosecond() != 123456789 {
				t.Errorf("%s: got %v, %v, want the first stamp", name, got, ok)
			}
		default:
			if ok {
				t.Errorf("%s: got a stamp (%v) from a buffer that holds none it may trust", name, got)
			}
		}
	}
}

// FuzzRxTimestamp: whatever the control buffer holds, the in-place
// walk does not panic and answers as the standard library's parse.
func FuzzRxTimestamp(f *testing.F) {
	for _, oob := range rxTimestampCases(f) {
		f.Add(oob)
	}
	f.Fuzz(func(t *testing.T, oob []byte) {
		got, ok := rxTimestamp(oob)
		want, wantOK := rxTimestampStdlib(oob)
		if ok != wantOK || !got.Equal(want) {
			t.Fatalf("rxTimestamp(%x) = %v, %v; the standard library's parse gives %v, %v", oob, got, ok, want, wantOK)
		}
	})
}
