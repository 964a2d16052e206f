package nts

import (
	"bytes"
	"crypto/aes"
	"testing"
)

// forEachAESPath runs f as a subtest under each AES path this machine
// has: the AES-NI kernel, when CPUID reported it, and the crypto/aes
// fallback, which every machine has. Keys must be expanded inside f.
func forEachAESPath(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	kernel := useAESNI
	defer func() { useAESNI = kernel }()
	for _, path := range aesPaths(kernel) {
		useAESNI = path.aesni
		t.Run(path.name, f)
	}
}

type aesPath struct {
	name  string
	aesni bool
}

// aesPaths lists the paths available when init set useAESNI to kernel.
func aesPaths(kernel bool) []aesPath {
	paths := []aesPath{{"crypto_aes", false}}
	if kernel {
		paths = append([]aesPath{{"aesni", true}}, paths...)
	}
	return paths
}

// FIPS-197 Appendix A.1's cipher key and C.1's AES-128 example.
const (
	fips197KeyA1 = "2b7e151628aed2a6abf7158809cf4f3c"
	fips197KeyC1 = "000102030405060708090a0b0c0d0e0f"
	fips197PtC1  = "00112233445566778899aabbccddeeff"
	fips197CtC1  = "69c4e0d86a7b0430d8cdb78070b4c55a"
)

// TestExpandKey128FIPS197 holds the kernel's key expansion to FIPS-197
// Appendix A.1, all 44 words.
func TestExpandKey128FIPS197(t *testing.T) {
	if !useAESNI {
		t.Skip("no AES-NI kernel on this machine")
	}
	want := unhex(t, fips197KeyA1+
		"a0fafe1788542cb123a339392a6c7605"+
		"f2c295f27a96b9435935807a7359f67f"+
		"3d80477d4716fe3e1e237e446d7a883b"+
		"ef44a541a8525b7fb671253bdb0bad00"+
		"d4d1c6f87c839d87caf2b8bc11f915bc"+
		"6d88a37a110b3efddbf98641ca0093fd"+
		"4e54f70e5f5fc9f384a64fb24ea6dc4f"+
		"ead27321b58dbad2312bf5607f8d292f"+
		"ac7766f319fadc2128d12941575c006e"+
		"d014f9a8c9ee2589e13f0cc8b6630ca6")
	var rk [176]byte
	expandKey128((*[16]byte)(unhex(t, fips197KeyA1)), &rk)
	if !bytes.Equal(rk[:], want) {
		t.Fatalf("schedule:\n got  %x\n want %x", rk, want)
	}
}

// TestAESKeyFIPS197 runs FIPS-197 C.1 through both block primitives:
// encrypt4 in each lane, the others holding blocks crypto/aes checks,
// and cmacBlocks as single encryptions and as a two-block chain.
func TestAESKeyFIPS197(t *testing.T) {
	key, pt, ct := unhex(t, fips197KeyC1), unhex(t, fips197PtC1), unhex(t, fips197CtC1)
	ref, err := aes.NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	forEachAESPath(t, func(t *testing.T) {
		var a aesKey
		if err := a.expand(key); err != nil {
			t.Fatal(err)
		}
		for lane := 0; lane < 4; lane++ {
			var src, dst, want [64]byte
			for i := range src {
				src[i] = byte(i * 29)
			}
			copy(src[16*lane:], pt)
			for i := 0; i < 64; i += 16 {
				ref.Encrypt(want[i:], src[i:])
			}
			a.encrypt4(&dst, &src)
			if !bytes.Equal(dst[16*lane:16*lane+16], ct) || dst != want {
				t.Fatalf("encrypt4, C.1 in lane %d:\n got  %x\n want %x", lane, dst, want)
			}
		}

		var x [16]byte
		a.cmacBlocks(&x, pt)
		if !bytes.Equal(x[:], ct) {
			t.Fatalf("cmacBlocks from zero over C.1's block: %x, want %x", x, ct)
		}
		// E(0 ⊕ pt) = ct, then E(ct ⊕ (ct ⊕ pt)) = ct again.
		chain := append(bytes.Clone(pt), pt...)
		xor16((*[16]byte)(chain[16:]), ct)
		x = [16]byte{}
		a.cmacBlocks(&x, chain)
		if !bytes.Equal(x[:], ct) {
			t.Fatalf("cmacBlocks over a two-block chain: %x, want %x", x, ct)
		}
		a.cmacBlocks(&x, nil)
		if !bytes.Equal(x[:], ct) {
			t.Fatalf("cmacBlocks over no blocks changed the chaining value to %x", x)
		}
	})
}

// TestCMACRFC4493 is RFC 4493 §4's four AES-CMAC examples, through the
// S2V half of a sivKey: subkeys and tags.
func TestCMACRFC4493(t *testing.T) {
	msg := unhex(t, "6bc1bee22e409f96e93d7e117393172a"+
		"ae2d8a571e03ac9c9eb76fac45af8e51"+
		"30c81c46a35ce411e5fbc1191a0a52ef"+
		"f69f2445df4f9b17ad2b417be66c3710")
	examples := []struct {
		n   int
		tag string
	}{
		{0, "bb1d6929e95937287fa37d129b756746"},
		{16, "070a16b46b4d4144f79bdd9dd04a287c"},
		{40, "dfa66747de9ae63030ca32611497c827"},
		{64, "51f0bebf7e3b9d92fc49741779363cfe"},
	}
	key := append(unhex(t, fips197KeyA1), make([]byte, 16)...)
	forEachAESPath(t, func(t *testing.T) {
		k, err := newSIVKey(key)
		if err != nil {
			t.Fatal(err)
		}
		if k1, k2 := unhex(t, "fbeed618357133667c85e08f7236a8de"), unhex(t, "f7ddac306ae266ccf90bc11ee46d513b"); !bytes.Equal(k.k1[:], k1) || !bytes.Equal(k.k2[:], k2) {
			t.Fatalf("subkeys %x %x, want %x %x", k.k1, k.k2, k1, k2)
		}
		var sc scratch
		for _, ex := range examples {
			k.cmac(&sc, msg[:ex.n], nil)
			if want := unhex(t, ex.tag); !bytes.Equal(sc.x[:], want) {
				t.Errorf("CMAC of %d bytes: %x, want %x", ex.n, sc.x, want)
			}
		}
	})
}
