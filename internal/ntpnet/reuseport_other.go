//go:build !linux

package ntpnet

import (
	"errors"
	"syscall"
)

// Without a port-sharing setsockopt several sockets cannot bind one
// address, so a multi-shard Listen fails here.
var errReusePortUnsupported = errors.New("ntpnet: SO_REUSEPORT not supported on this platform")

func reusePortControl(network, address string, c syscall.RawConn) error {
	return errReusePortUnsupported
}
