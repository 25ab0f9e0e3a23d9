package aes

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func TestCTRKnownAnswer(t *testing.T) {
	// NIST SP 800-38A F.5.1 (CTR-AES128.Encrypt), restricted to the blocks
	// whose counter value our nonce||counter layout can represent: with nonce
	// f0f1f2f3f4f5f6f7 and counter starting at f8f9fafbfcfdfeff the first
	// block of the standard vector is reproduced by XORing the keystream for
	// that exact counter block. Here we instead check the construction
	// directly: encrypting the counter block with the reference cipher and
	// XORing must equal Process's output.
	key := mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	nonce := mustHex(t, "f0f1f2f3f4f5f6f7")
	plaintext := mustHex(t, "6bc1bee22e409f96e93d7e117393172a")

	ctr, err := NewCTR(key, nonce)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ctr.Process(plaintext)
	if err != nil {
		t.Fatal(err)
	}

	cipher, err := NewCipher(key)
	if err != nil {
		t.Fatal(err)
	}
	var counterBlock [16]byte
	copy(counterBlock[:8], nonce)
	keystream := make([]byte, BlockSize)
	if err := cipher.Encrypt(keystream, counterBlock[:]); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, 16)
	for i := range want {
		want[i] = plaintext[i] ^ keystream[i]
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("CTR output %x, want %x", got, want)
	}
}

func TestCTRRoundTripArbitraryLengths(t *testing.T) {
	prop := func(key [16]byte, nonce [8]byte, msg []byte) bool {
		ct, err := EncryptCTR(key[:], nonce[:], msg)
		if err != nil {
			return false
		}
		if len(ct) != len(msg) {
			return false
		}
		pt, err := EncryptCTR(key[:], nonce[:], ct)
		if err != nil {
			return false
		}
		return bytes.Equal(pt, msg)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCTRStreamContinuationAndReset(t *testing.T) {
	key := make([]byte, 16)
	nonce := make([]byte, 8)
	msg := []byte("the quick brown fox jumps over the lazy dog, twice around the garment")

	whole, err := EncryptCTR(key, nonce, msg)
	if err != nil {
		t.Fatal(err)
	}

	ctr, err := NewCTR(key, nonce)
	if err != nil {
		t.Fatal(err)
	}
	first, err := ctr.Process(msg[:32])
	if err != nil {
		t.Fatal(err)
	}
	second, err := ctr.Process(msg[32:])
	if err != nil {
		t.Fatal(err)
	}
	pieced := append(append([]byte(nil), first...), second...)
	if !bytes.Equal(pieced, whole) {
		t.Fatalf("piecewise CTR %x differs from one-shot %x", pieced, whole)
	}

	ctr.Reset()
	pt, err := ctr.Process(whole)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pt, msg) {
		t.Fatalf("Reset + Process did not decrypt: %q", pt)
	}
}

func TestCTRDistinctCountersProduceDistinctKeystream(t *testing.T) {
	key := make([]byte, 16)
	nonce := make([]byte, 8)
	zeros := make([]byte, 48)
	ks, err := EncryptCTR(key, nonce, zeros)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(ks[:16], ks[16:32]) || bytes.Equal(ks[16:32], ks[32:48]) {
		t.Fatal("consecutive keystream blocks are identical; the counter is not advancing")
	}
}

func TestCTRValidation(t *testing.T) {
	if _, err := NewCTR(make([]byte, 15), make([]byte, 8)); err == nil {
		t.Error("invalid key length accepted")
	}
	if _, err := NewCTR(make([]byte, 16), make([]byte, 7)); err == nil {
		t.Error("short nonce accepted")
	}
	if _, err := NewCTR(make([]byte, 16), make([]byte, 16)); err == nil {
		t.Error("long nonce accepted")
	}
	ctr, err := NewCTR(make([]byte, 32), make([]byte, 8))
	if err != nil {
		t.Fatalf("AES-256 CTR rejected: %v", err)
	}
	if out, err := ctr.Process(nil); err != nil || len(out) != 0 {
		t.Errorf("Process(nil) = %x, %v", out, err)
	}
}

func TestCTRCounterBlockLayout(t *testing.T) {
	ctr, err := NewCTR(make([]byte, 16), mustHex(t, "0102030405060708"))
	if err != nil {
		t.Fatal(err)
	}
	block := ctr.counterBlock(0x0a0b)
	if hex.EncodeToString(block[:]) != "01020304050607080000000000000a0b" {
		t.Fatalf("counter block layout = %x", block)
	}
}
