//go:build linux

package ntpnet

import "syscall"

// soReusePort is SO_REUSEPORT on Linux. The stdlib syscall package
// does not export the constant (it predates the option), so it is
// pinned here; the value is part of the kernel ABI.
const soReusePort = 0xf

// reusePortControl is the net.ListenConfig.Control hook that sets
// SO_REUSEPORT before bind. It must be set on every socket of the
// group, the first included. Linux ≥3.9 load-balances UDP datagrams
// across SO_REUSEPORT sockets by flow hash, which is exactly the
// per-shard spread the server wants.
func reusePortControl(network, address string, c syscall.RawConn) error {
	var serr error
	err := c.Control(func(fd uintptr) {
		serr = syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, soReusePort, 1)
	})
	if err != nil {
		return err
	}
	return serr
}
