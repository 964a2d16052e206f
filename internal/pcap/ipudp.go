package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
)

// Header sizes and protocol numbers.
const (
	ipv4HeaderLen = 20
	ipv6HeaderLen = 40
	udpHeaderLen  = 8
	protoUDP      = 17
)

// UDPDatagram is a decoded IP/UDP packet.
type UDPDatagram struct {
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
	Payload          []byte
}

// EncodeUDP builds a raw IP/UDP packet (IPv4 or IPv6 chosen by the
// address family). The result starts at the IP header, matching
// linkTypeRaw captures. The IPv4 header checksum is computed; the UDP
// checksum is zero for IPv4 (permitted) and left zero for IPv6 (our
// reader does not verify it, like tcpdump with -K).
func EncodeUDP(d UDPDatagram) ([]byte, error) {
	if d.Src.Is4() != d.Dst.Is4() {
		return nil, errors.New("pcap: mixed address families")
	}
	udpLen := udpHeaderLen + len(d.Payload)
	if d.Src.Is4() {
		total := ipv4HeaderLen + udpLen
		buf := make([]byte, total)
		buf[0] = 0x45 // version 4, IHL 5
		binary.BigEndian.PutUint16(buf[2:], uint16(total))
		buf[8] = 64 // TTL
		buf[9] = protoUDP
		src4, dst4 := d.Src.As4(), d.Dst.As4()
		copy(buf[12:16], src4[:])
		copy(buf[16:20], dst4[:])
		binary.BigEndian.PutUint16(buf[10:], ipv4Checksum(buf[:ipv4HeaderLen]))
		encodeUDPHeader(buf[ipv4HeaderLen:], d, udpLen)
		copy(buf[ipv4HeaderLen+udpHeaderLen:], d.Payload)
		return buf, nil
	}
	total := ipv6HeaderLen + udpLen
	buf := make([]byte, total)
	buf[0] = 0x60 // version 6
	binary.BigEndian.PutUint16(buf[4:], uint16(udpLen))
	buf[6] = protoUDP // next header
	buf[7] = 64       // hop limit
	src16, dst16 := d.Src.As16(), d.Dst.As16()
	copy(buf[8:24], src16[:])
	copy(buf[24:40], dst16[:])
	encodeUDPHeader(buf[ipv6HeaderLen:], d, udpLen)
	copy(buf[ipv6HeaderLen+udpHeaderLen:], d.Payload)
	return buf, nil
}

func encodeUDPHeader(b []byte, d UDPDatagram, udpLen int) {
	binary.BigEndian.PutUint16(b[0:], d.SrcPort)
	binary.BigEndian.PutUint16(b[2:], d.DstPort)
	binary.BigEndian.PutUint16(b[4:], uint16(udpLen))
}

// DecodeUDP parses a raw IP packet and extracts the UDP datagram. It
// returns an error for non-UDP packets, truncation, or unsupported IP
// versions.
func DecodeUDP(raw []byte) (UDPDatagram, error) {
	if len(raw) < 1 {
		return UDPDatagram{}, errors.New("pcap: empty packet")
	}
	switch raw[0] >> 4 {
	case 4:
		if len(raw) < ipv4HeaderLen {
			return UDPDatagram{}, errors.New("pcap: truncated IPv4 header")
		}
		ihl := int(raw[0]&0x0f) * 4
		if ihl < ipv4HeaderLen || len(raw) < ihl {
			return UDPDatagram{}, errors.New("pcap: bad IPv4 IHL")
		}
		if raw[9] != protoUDP {
			return UDPDatagram{}, fmt.Errorf("pcap: not UDP (proto %d)", raw[9])
		}
		src := netip.AddrFrom4([4]byte(raw[12:16]))
		dst := netip.AddrFrom4([4]byte(raw[16:20]))
		return decodeUDPHeader(raw[ihl:], src, dst)
	case 6:
		if len(raw) < ipv6HeaderLen {
			return UDPDatagram{}, errors.New("pcap: truncated IPv6 header")
		}
		if raw[6] != protoUDP {
			return UDPDatagram{}, fmt.Errorf("pcap: not UDP (next header %d)", raw[6])
		}
		src := netip.AddrFrom16([16]byte(raw[8:24]))
		dst := netip.AddrFrom16([16]byte(raw[24:40]))
		return decodeUDPHeader(raw[ipv6HeaderLen:], src, dst)
	default:
		return UDPDatagram{}, fmt.Errorf("pcap: unsupported IP version %d", raw[0]>>4)
	}
}

func decodeUDPHeader(b []byte, src, dst netip.Addr) (UDPDatagram, error) {
	if len(b) < udpHeaderLen {
		return UDPDatagram{}, errors.New("pcap: truncated UDP header")
	}
	udpLen := int(binary.BigEndian.Uint16(b[4:]))
	if udpLen < udpHeaderLen || udpLen > len(b) {
		return UDPDatagram{}, errors.New("pcap: bad UDP length")
	}
	return UDPDatagram{
		Src: src, Dst: dst,
		SrcPort: binary.BigEndian.Uint16(b[0:]),
		DstPort: binary.BigEndian.Uint16(b[2:]),
		Payload: b[udpHeaderLen:udpLen],
	}, nil
}

// ipv4Checksum computes the standard Internet checksum over the IPv4
// header (checksum field treated as zero).
func ipv4Checksum(hdr []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(hdr); i += 2 {
		if i == 10 {
			continue // checksum field itself
		}
		sum += uint32(binary.BigEndian.Uint16(hdr[i:]))
	}
	for sum>>16 != 0 {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}
