package nts

import (
	"cmp"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Keyring state file layout (all integers big-endian):
//
//	magic   (8)  "MNTPNTSR"
//	version (2)  stateVersion
//	sealed       AES-SIV(stateKey, payload, AD magic||version):
//	    siv tag (16)
//	    ct of payload:
//	        next  (4)  — the ring's next epoch counter
//	        depth (2)
//	        count (2)
//	        count × (epoch (4) || master key (SIVKeyLen))
//
// The payload — every cookie-sealing master key the server holds — is
// sealed under a separate long-lived state key with the plaintext
// header as associated data, so the file on disk is useless without
// the state key and any header tampering fails authentication. A
// server that persists its ring across a restart keeps decrypting the
// fleet's outstanding cookies, which is the whole point: no restart
// may convert itself into a fleet-wide NTS NAK storm and TLS re-KE
// flash crowd.
const (
	stateMagic   = "MNTPNTSR"
	stateVersion = 1
)

var (
	// errStateFormat is returned for state files that are truncated,
	// corrupted, or fail authentication under the given state key.
	errStateFormat = errors.New("nts: malformed or corrupted keyring state")
	// errStateVersion is returned for state files written by an
	// incompatible format version.
	errStateVersion = errors.New("nts: unsupported keyring state version")
)

// Save atomically persists the ring's full epoch→key map, sealed
// under stateKey, using the driftfile idiom: unique temp file in the
// target directory, fsync before rename, rename over the target. The
// file is created 0600 — it holds key material (sealed, but defense
// in depth). Safe to call concurrently with Rotate and cookie
// traffic; it snapshots the ring under its read lock.
func (r *KeyRing) Save(path string, stateKey []byte) error {
	state, err := newSIVKey(stateKey)
	if err != nil {
		return fmt.Errorf("nts: state key must be %d bytes", SIVKeyLen)
	}
	r.mu.RLock()
	next, depth := r.next, r.depth
	type entry struct {
		epoch uint32
		key   []byte
	}
	entries := make([]entry, 0, len(r.keys))
	for e, k := range r.keys {
		entries = append(entries, entry{e, k.raw}) // raw is never written after Rotate
	}
	r.mu.RUnlock()
	// Epoch order, not map order: one ring always saves to one file.
	slices.SortFunc(entries, func(a, b entry) int { return cmp.Compare(a.epoch, b.epoch) })

	payload := make([]byte, 0, 8+len(entries)*(4+SIVKeyLen))
	payload = binary.BigEndian.AppendUint32(payload, next)
	payload = binary.BigEndian.AppendUint16(payload, uint16(depth))
	payload = binary.BigEndian.AppendUint16(payload, uint16(len(entries)))
	for _, e := range entries {
		payload = binary.BigEndian.AppendUint32(payload, e.epoch)
		payload = append(payload, e.key...)
	}

	header := make([]byte, 0, len(stateMagic)+2)
	header = append(header, stateMagic...)
	header = binary.BigEndian.AppendUint16(header, stateVersion)
	sc := scratchPool.Get().(*scratch)
	file := state.seal(sc, header, payload, header)
	scratchPool.Put(sc)

	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("nts: create temp in %s: %w", dir, err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(file); err != nil {
		return cleanup(fmt.Errorf("nts: write %s: %w", tmp, err))
	}
	if err := f.Chmod(0o600); err != nil {
		return cleanup(fmt.Errorf("nts: chmod %s: %w", tmp, err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("nts: fsync %s: %w", tmp, err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("nts: close %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("nts: rename: %w", err)
	}
	return nil
}

// loadKeyRing reads a keyring state file written by Save. A missing
// file returns (nil, os.ErrNotExist); a truncated, corrupted,
// tampered or wrong-version file returns errStateFormat or
// errStateVersion — callers that want restart resilience should fall
// back to a fresh ring (see LoadOrNewKeyRing), never serve without
// one.
func loadKeyRing(path string, stateKey []byte) (*KeyRing, error) {
	state, err := newSIVKey(stateKey)
	if err != nil {
		return nil, fmt.Errorf("nts: state key must be %d bytes", SIVKeyLen)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	headerLen := len(stateMagic) + 2
	if len(data) < headerLen {
		return nil, errStateFormat
	}
	if string(data[:len(stateMagic)]) != stateMagic {
		return nil, errStateFormat
	}
	if v := binary.BigEndian.Uint16(data[len(stateMagic):headerLen]); v != stateVersion {
		return nil, fmt.Errorf("%w: %d", errStateVersion, v)
	}
	sc := scratchPool.Get().(*scratch)
	payload, err := state.open(sc, nil, data[headerLen:], data[:headerLen])
	scratchPool.Put(sc)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errStateFormat, err)
	}
	if len(payload) < 8 {
		return nil, errStateFormat
	}
	next := binary.BigEndian.Uint32(payload[0:4])
	depth := int(binary.BigEndian.Uint16(payload[4:6]))
	count := int(binary.BigEndian.Uint16(payload[6:8]))
	if depth < 1 || count < 1 || len(payload) != 8+count*(4+SIVKeyLen) {
		return nil, errStateFormat
	}
	r := &KeyRing{depth: depth, next: next, keys: make(map[uint32]masterKey, count)}
	off := 8
	for i := 0; i < count; i++ {
		epoch := binary.BigEndian.Uint32(payload[off : off+4])
		if epoch >= next {
			return nil, errStateFormat
		}
		// payload is this call's own buffer, so the ring may keep it.
		if r.keys[epoch], err = newMasterKey(payload[off+4 : off+4+SIVKeyLen]); err != nil {
			return nil, err
		}
		off += 4 + SIVKeyLen
	}
	if _, ok := r.keys[next-1]; !ok {
		// The current epoch's key must be present or SealCookie would
		// seal under a nil master.
		return nil, errStateFormat
	}
	return r, nil
}

// LoadOrNewKeyRing restores a persisted ring, falling back to a fresh
// one when the file is missing, unreadable, corrupted or of the wrong
// version — a bad state file must degrade to cold-start behavior (the
// fleet re-KEs), never stop the server. loaded reports whether the
// persisted state was actually used; err carries the fallback's
// reason when loaded is false and a state file existed.
func LoadOrNewKeyRing(path string, stateKey []byte, depth int) (r *KeyRing, loaded bool, err error) {
	r, lerr := loadKeyRing(path, stateKey)
	if lerr == nil {
		return r, true, nil
	}
	r, nerr := NewKeyRing(depth)
	if nerr != nil {
		return nil, false, nerr
	}
	if errors.Is(lerr, os.ErrNotExist) {
		lerr = nil // first run: silent fresh start
	}
	return r, false, lerr
}

// LoadOrCreateMasterKey reads the state-sealing key from path (a
// single hex line), generating and persisting a fresh one on first
// run. The key file is 0600: unlike the sealed ring state, this key
// is the actual secret.
func LoadOrCreateMasterKey(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err == nil {
		key, derr := hex.DecodeString(strings.TrimSpace(string(data)))
		if derr != nil || len(key) != SIVKeyLen {
			return nil, fmt.Errorf("nts: state key file %s: want %d hex bytes", path, SIVKeyLen)
		}
		return key, nil
	}
	if !os.IsNotExist(err) {
		return nil, fmt.Errorf("nts: read state key %s: %w", path, err)
	}
	key := make([]byte, SIVKeyLen)
	if _, err := rand.Read(key); err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, []byte(hex.EncodeToString(key)+"\n"), 0o600); err != nil {
		return nil, fmt.Errorf("nts: write state key %s: %w", path, err)
	}
	return key, nil
}
