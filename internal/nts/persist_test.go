package nts

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func testStateKey(t *testing.T) []byte {
	t.Helper()
	key := make([]byte, SIVKeyLen)
	if _, err := rand.Read(key); err != nil {
		t.Fatal(err)
	}
	return key
}

// TestKeyRingSaveLoadRoundTrip is the persistence property: a cookie
// minted by the original ring opens identically under the restored
// one — epoch counter, depth and every retained master key survive.
func TestKeyRingSaveLoadRoundTrip(t *testing.T) {
	ring, err := NewKeyRing(3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := ring.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	c2s := bytes.Repeat([]byte{0xc2}, SIVKeyLen)
	s2c := bytes.Repeat([]byte{0x5c}, SIVKeyLen)
	cookie, err := ring.SealCookie(AEADAESSIVCMAC256, c2s, s2c)
	if err != nil {
		t.Fatal(err)
	}

	key := testStateKey(t)
	path := filepath.Join(t.TempDir(), "ring.state")
	if err := ring.Save(path, key); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o600 {
		t.Fatalf("state file mode = %v, err %v; want 0600", fi.Mode(), err)
	}

	restored, err := LoadKeyRing(path, key)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Epoch() != ring.Epoch() {
		t.Fatalf("epoch = %d, want %d", restored.Epoch(), ring.Epoch())
	}
	aead, rc2s, rs2c, err := restored.OpenCookie(cookie)
	if err != nil {
		t.Fatalf("restored ring cannot open pre-restart cookie: %v", err)
	}
	if aead != AEADAESSIVCMAC256 || !bytes.Equal(rc2s, c2s) || !bytes.Equal(rs2c, s2c) {
		t.Error("cookie contents differ after restore")
	}
	// LoadKeyRing expands every master key it restores: the restored
	// ring mints as well as opens, and the two rings are one key set.
	minted, err := restored.SealCookie(AEADAESSIVCMAC256, c2s, s2c)
	if err != nil {
		t.Fatalf("restored ring cannot mint: %v", err)
	}
	if _, _, _, err := ring.OpenCookie(minted); err != nil {
		t.Fatalf("original ring cannot open the restored ring's cookie: %v", err)
	}
	for epoch, key := range restored.keys {
		if key.siv == nil || !bytes.Equal(key.raw, ring.keys[epoch].raw) {
			t.Errorf("epoch %d restored without its key or its expansion", epoch)
		}
	}
	// Rotation continues monotonically from the restored counter: a
	// cookie minted before the save stays decryptable through depth
	// more rotations.
	for i := 0; i < 3; i++ {
		if err := restored.Rotate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, _, err := restored.OpenCookie(cookie); err != nil {
		t.Fatalf("cookie within retention window rejected: %v", err)
	}
	if err := restored.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := restored.OpenCookie(cookie); !errors.Is(err, ErrCookieEpoch) {
		t.Fatalf("cookie past retention = %v, want ErrCookieEpoch", err)
	}
}

// TestLoadKeyRingRejectsBadFiles: truncation, corruption, tampering,
// wrong version, wrong key — all must fail loudly, never yield a ring
// with garbage keys.
func TestLoadKeyRingRejectsBadFiles(t *testing.T) {
	ring, err := NewKeyRing(2)
	if err != nil {
		t.Fatal(err)
	}
	key := testStateKey(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "ring.state")
	if err := ring.Save(path, key); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, data []byte, wantErr error) {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o600); err != nil {
			t.Fatal(err)
		}
		_, err := LoadKeyRing(p, key)
		if !errors.Is(err, wantErr) {
			t.Errorf("%s: err = %v, want %v", name, err, wantErr)
		}
	}

	check("empty", nil, ErrStateFormat)
	check("truncated-header", good[:5], ErrStateFormat)
	check("truncated-body", good[:len(good)-10], ErrStateFormat)
	check("bad-magic", append([]byte("XXXXXXXX"), good[8:]...), ErrStateFormat)

	badVer := append([]byte(nil), good...)
	binary.BigEndian.PutUint16(badVer[8:10], 99)
	check("wrong-version", badVer, ErrStateVersion)

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01
	check("bitflip", flipped, ErrStateFormat)

	if _, err := LoadKeyRing(path, testStateKey(t)); !errors.Is(err, ErrStateFormat) {
		t.Errorf("wrong state key: err = %v, want ErrStateFormat", err)
	}
	if _, err := LoadKeyRing(filepath.Join(dir, "missing"), key); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing file: err = %v, want ErrNotExist", err)
	}
}

// TestLoadOrNewKeyRingFallback: every failure mode degrades to a
// fresh working ring (cold start) instead of stopping the server.
func TestLoadOrNewKeyRingFallback(t *testing.T) {
	key := testStateKey(t)
	dir := t.TempDir()

	// Missing file: fresh ring, no error (first run).
	r, loaded, err := LoadOrNewKeyRing(filepath.Join(dir, "none"), key, 3)
	if err != nil || loaded || r == nil {
		t.Fatalf("missing file: ring %v loaded %v err %v", r, loaded, err)
	}
	if _, err := r.SealCookie(AEADAESSIVCMAC256, make([]byte, SIVKeyLen), make([]byte, SIVKeyLen)); err != nil {
		t.Fatalf("fresh ring unusable: %v", err)
	}

	// Corrupt file: fresh ring, the corruption reported.
	bad := filepath.Join(dir, "corrupt")
	if err := os.WriteFile(bad, []byte("garbage"), 0o600); err != nil {
		t.Fatal(err)
	}
	r, loaded, err = LoadOrNewKeyRing(bad, key, 3)
	if r == nil || loaded {
		t.Fatalf("corrupt file: ring %v loaded %v", r, loaded)
	}
	if !errors.Is(err, ErrStateFormat) {
		t.Errorf("corrupt file err = %v, want ErrStateFormat", err)
	}

	// Intact file: the persisted ring.
	orig, _ := NewKeyRing(3)
	goodPath := filepath.Join(dir, "good")
	if err := orig.Save(goodPath, key); err != nil {
		t.Fatal(err)
	}
	r, loaded, err = LoadOrNewKeyRing(goodPath, key, 3)
	if err != nil || !loaded {
		t.Fatalf("good file: loaded %v err %v", loaded, err)
	}
	if r.Epoch() != orig.Epoch() {
		t.Errorf("epoch = %d, want %d", r.Epoch(), orig.Epoch())
	}
}

// TestSaveDuringRotation: Save snapshots the ring under its read lock
// while rotations and cookie traffic run concurrently — the -race leg
// pins this. Every saved state must itself restore to a usable ring.
func TestSaveDuringRotation(t *testing.T) {
	ring, err := NewKeyRing(3)
	if err != nil {
		t.Fatal(err)
	}
	key := testStateKey(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "ring.state")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := ring.Rotate(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		c2s := make([]byte, SIVKeyLen)
		s2c := make([]byte, SIVKeyLen)
		for {
			select {
			case <-stop:
				return
			default:
			}
			cookie, err := ring.SealCookie(AEADAESSIVCMAC256, c2s, s2c)
			if err != nil {
				t.Error(err)
				return
			}
			// Concurrent rotation may retire the epoch before the
			// open; only format/auth errors are bugs.
			if _, _, _, err := ring.OpenCookie(cookie); err != nil && !errors.Is(err, ErrCookieEpoch) {
				t.Errorf("open during rotation: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		if err := ring.Save(path, key); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	restored, err := LoadKeyRing(path, key)
	if err != nil {
		t.Fatalf("checkpoint written during rotation does not restore: %v", err)
	}
	if _, err := restored.SealCookie(AEADAESSIVCMAC256, make([]byte, SIVKeyLen), make([]byte, SIVKeyLen)); err != nil {
		t.Fatalf("restored ring unusable: %v", err)
	}
}
