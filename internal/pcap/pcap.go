// Package pcap implements the classic libpcap capture file format
// (the format of the tcpdump traces the §3.1 NTP server operators
// donated to the paper) plus the minimal IPv4/IPv6/UDP codecs needed
// to carry NTP packets. The synthetic trace generator writes real
// pcap files and the analyzer reads them back, so the §3.1 pipeline
// operates on byte-identical input formats to the original study.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Magic numbers of the classic format (microsecond resolution).
const (
	magicLE = 0xa1b2c3d4
	// linkTypeRaw means packets begin directly with the IP header
	// (DLT_RAW, linktype 101).
	linkTypeRaw = 101
)

// fileHeaderLen and recordHeaderLen are the fixed header sizes.
const (
	fileHeaderLen   = 24
	recordHeaderLen = 16
)

// Packet is one captured record.
type Packet struct {
	// Timestamp is the capture time (microsecond resolution survives
	// the round trip).
	Timestamp time.Time
	// Data is the captured bytes, starting at the IP header.
	Data []byte
	// OrigLen is the original wire length (== len(Data) for our
	// generator, which never truncates).
	OrigLen int
}

// Writer writes a classic pcap file.
type Writer struct {
	w   io.Writer
	buf [recordHeaderLen]byte
}

// NewWriter writes the file header (linktype raw, snaplen 65535) and
// returns a packet writer.
func NewWriter(w io.Writer) (*Writer, error) {
	var hdr [fileHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], magicLE)
	binary.LittleEndian.PutUint16(hdr[4:], 2) // version major
	binary.LittleEndian.PutUint16(hdr[6:], 4) // version minor
	// thiszone (8:12) and sigfigs (12:16) are zero.
	binary.LittleEndian.PutUint32(hdr[16:], 65535) // snaplen
	binary.LittleEndian.PutUint32(hdr[20:], linkTypeRaw)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: write header: %w", err)
	}
	return &Writer{w: w}, nil
}

// WritePacket appends one record.
func (w *Writer) WritePacket(ts time.Time, data []byte) error {
	usec := ts.UnixMicro()
	binary.LittleEndian.PutUint32(w.buf[0:], uint32(usec/1e6))
	binary.LittleEndian.PutUint32(w.buf[4:], uint32(usec%1e6))
	binary.LittleEndian.PutUint32(w.buf[8:], uint32(len(data)))
	binary.LittleEndian.PutUint32(w.buf[12:], uint32(len(data)))
	if _, err := w.w.Write(w.buf[:]); err != nil {
		return fmt.Errorf("pcap: write record header: %w", err)
	}
	if _, err := w.w.Write(data); err != nil {
		return fmt.Errorf("pcap: write record data: %w", err)
	}
	return nil
}

// Errors returned by the reader.
var (
	errBadMagic = errors.New("pcap: unrecognized magic number")
	errBadLink  = errors.New("pcap: unsupported link type")
)

// Reader reads a classic pcap file.
type Reader struct {
	r        io.Reader
	LinkType uint32
}

// NewReader validates the file header and returns a reader.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [fileHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: read header: %w", err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magicLE {
		return nil, errBadMagic
	}
	lt := binary.LittleEndian.Uint32(hdr[20:])
	if lt != linkTypeRaw {
		return nil, fmt.Errorf("%w: %d", errBadLink, lt)
	}
	return &Reader{r: r, LinkType: lt}, nil
}

// ReadPacket reads the next record; io.EOF marks a clean end.
func (r *Reader) ReadPacket() (Packet, error) {
	var hdr [recordHeaderLen]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		if err == io.EOF {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("pcap: read record header: %w", err)
	}
	sec := binary.LittleEndian.Uint32(hdr[0:])
	usec := binary.LittleEndian.Uint32(hdr[4:])
	incl := binary.LittleEndian.Uint32(hdr[8:])
	orig := binary.LittleEndian.Uint32(hdr[12:])
	if incl > 1<<20 {
		return Packet{}, fmt.Errorf("pcap: implausible record length %d", incl)
	}
	data := make([]byte, incl)
	if _, err := io.ReadFull(r.r, data); err != nil {
		return Packet{}, fmt.Errorf("pcap: read record data: %w", err)
	}
	return Packet{
		Timestamp: time.Unix(int64(sec), int64(usec)*1000).UTC(),
		Data:      data,
		OrigLen:   int(orig),
	}, nil
}
