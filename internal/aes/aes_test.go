package aes

import (
	"bytes"
	"encoding/hex"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

func TestSBoxKnownValues(t *testing.T) {
	// Spot values from FIPS-197 Figure 7.
	cases := map[byte]byte{
		0x00: 0x63, 0x01: 0x7c, 0x10: 0xca, 0x53: 0xed,
		0x9a: 0xb8, 0xc9: 0xdd, 0xff: 0x16, 0xf0: 0x8c,
	}
	for in, want := range cases {
		if got := sbox[in]; got != want {
			t.Errorf("sbox[%#02x] = %#02x, want %#02x", in, got, want)
		}
	}
}

// TestSBoxIsABijectionAndInverts: no S-box value repeats, so the S-box has
// an inverse.
func TestSBoxIsABijectionAndInverts(t *testing.T) {
	seen := make(map[byte]bool)
	for i := 0; i < 256; i++ {
		s := sbox[i]
		if seen[s] {
			t.Fatalf("S-box value %#02x repeated", s)
		}
		seen[s] = true
	}
}

func TestGFMultiplication(t *testing.T) {
	cases := []struct{ a, b, want byte }{
		{0x57, 0x83, 0xc1}, // FIPS-197 Sec 4.2 example
		{0x57, 0x13, 0xfe}, // FIPS-197 Sec 4.2.1 example
		{0x01, 0xab, 0xab},
		{0x00, 0xff, 0x00},
	}
	for _, tc := range cases {
		if got := gmul(tc.a, tc.b); got != tc.want {
			t.Errorf("gmul(%#02x, %#02x) = %#02x, want %#02x", tc.a, tc.b, got, tc.want)
		}
		if got := gmul(tc.b, tc.a); got != tc.want {
			t.Errorf("gmul not commutative for (%#02x, %#02x)", tc.a, tc.b)
		}
	}
}

func TestGFInverseProperty(t *testing.T) {
	for i := 1; i < 256; i++ {
		if got := gmul(byte(i), ginv(byte(i))); got != 1 {
			t.Fatalf("x * ginv(x) = %#02x for x = %#02x, want 1", got, i)
		}
	}
	if ginv(0) != 0 {
		t.Fatal("ginv(0) must be 0 by convention")
	}
}

func TestStateRoundTrip(t *testing.T) {
	block := mustHex(t, "00112233445566778899aabbccddeeff")
	s, err := LoadState(block)
	if err != nil {
		t.Fatal(err)
	}
	got := s.Bytes()
	if !bytes.Equal(got[:], block) {
		t.Fatalf("state round trip: got %x, want %x", got, block)
	}
	// Column-major layout check: byte 1 of the block is row 1, column 0.
	if s[Nb*0+1] != 0x11 || s[Nb*1+0] != 0x44 {
		t.Fatalf("state layout wrong: row 1 column 0 = %#02x, row 0 column 1 = %#02x", s[Nb*0+1], s[Nb*1+0])
	}
	if _, err := LoadState(block[:5]); err == nil {
		t.Fatal("short block accepted")
	}
	if s.String() != "00112233445566778899aabbccddeeff" {
		t.Fatalf("State.String() = %q", s.String())
	}
}

func TestShiftRowsExample(t *testing.T) {
	var s State
	for r := 0; r < 4; r++ {
		for c := 0; c < Nb; c++ {
			s[Nb*c+r] = byte(4*r + c)
		}
	}
	out := s
	shiftRows(&out)
	// Row 0 unchanged, row 1 rotated left by 1, etc.
	wantRows := [4][4]byte{
		{0, 1, 2, 3},
		{5, 6, 7, 4},
		{10, 11, 8, 9},
		{15, 12, 13, 14},
	}
	var want State
	for r := 0; r < 4; r++ {
		for c := 0; c < Nb; c++ {
			want[Nb*c+r] = wantRows[r][c]
		}
	}
	if out != want {
		t.Fatalf("ShiftRows = %v, want %v", out, want)
	}
}

func TestAddRoundKeyIsItsOwnInverse(t *testing.T) {
	prop := func(block, key [16]byte) bool {
		s, _ := LoadState(block[:])
		ks, err := ExpandKey(key[:])
		if err != nil {
			return false
		}
		rk := ks.mustRoundKey(3)
		out := s
		addRoundKey(&out, rk)
		addRoundKey(&out, rk)
		return out == s
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestKeySizeProperties(t *testing.T) {
	cases := []struct {
		size  KeySize
		nk    int
		nr    int
		bytes int
		str   string
	}{
		{Key128, 4, 10, 16, "AES-128"},
		{Key192, 6, 12, 24, "AES-192"},
		{Key256, 8, 14, 32, "AES-256"},
	}
	for _, tc := range cases {
		if tc.size.Nk() != tc.nk || tc.size.Nr() != tc.nr {
			t.Errorf("%v: Nk/Nr = %d/%d, want %d/%d", tc.size, tc.size.Nk(), tc.size.Nr(), tc.nk, tc.nr)
		}
		if got, err := KeySizeForBytes(tc.bytes); err != nil || got != tc.size {
			t.Errorf("KeySizeForBytes(%d) = %v, %v; want %v", tc.bytes, got, err, tc.size)
		}
		if !tc.size.Valid() {
			t.Errorf("%v reported invalid", tc.size)
		}
		if tc.size.String() != tc.str {
			t.Errorf("String() = %q, want %q", tc.size.String(), tc.str)
		}
	}
	if KeySize(512).Valid() {
		t.Error("KeySize(512) reported valid")
	}
	if _, err := KeySizeForBytes(20); err == nil {
		t.Error("KeySizeForBytes(20) should fail")
	}
}

func TestKeyExpansionFIPSAppendixA1(t *testing.T) {
	// FIPS-197 Appendix A.1: AES-128 key expansion.
	key := mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	ks, err := ExpandKey(key)
	if err != nil {
		t.Fatal(err)
	}
	if len(ks.words) != 44 {
		t.Fatalf("expanded words = %d, want 44", len(ks.words))
	}
	wantWords := map[int]string{
		4:  "a0fafe17",
		10: "5935807a",
		23: "11f915bc",
		43: "b6630ca6",
	}
	for i, want := range wantWords {
		got := ks.words[i]
		if hex.EncodeToString(got[:]) != want {
			t.Errorf("w[%d] = %x, want %s", i, got, want)
		}
	}
}

func TestKeyExpansionRejectsBadKeyLengths(t *testing.T) {
	for _, n := range []int{0, 1, 15, 17, 23, 31, 33} {
		if _, err := ExpandKey(make([]byte, n)); err == nil {
			t.Errorf("ExpandKey accepted %d-byte key", n)
		}
	}
}

// FIPS-197 Appendix C known-answer vectors.
func TestCipherFIPSVectors(t *testing.T) {
	cases := []struct {
		name       string
		key        string
		plaintext  string
		ciphertext string
	}{
		{
			name:       "AES-128 Appendix C.1",
			key:        "000102030405060708090a0b0c0d0e0f",
			plaintext:  "00112233445566778899aabbccddeeff",
			ciphertext: "69c4e0d86a7b0430d8cdb78070b4c55a",
		},
		{
			name:       "AES-192 Appendix C.2",
			key:        "000102030405060708090a0b0c0d0e0f1011121314151617",
			plaintext:  "00112233445566778899aabbccddeeff",
			ciphertext: "dda97ca4864cdfe06eaf70a0ec0d7191",
		},
		{
			name:       "AES-256 Appendix C.3",
			key:        "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f",
			plaintext:  "00112233445566778899aabbccddeeff",
			ciphertext: "8ea2b7ca516745bfeafc49904b496089",
		},
		{
			name:       "AES-128 Appendix B example",
			key:        "2b7e151628aed2a6abf7158809cf4f3c",
			plaintext:  "3243f6a8885a308d313198a2e0370734",
			ciphertext: "3925841d02dc09fbdc118597196a0b32",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCipher(mustHex(t, tc.key))
			if err != nil {
				t.Fatal(err)
			}
			ct := make([]byte, BlockSize)
			if err := c.Encrypt(ct, mustHex(t, tc.plaintext)); err != nil {
				t.Fatal(err)
			}
			if hex.EncodeToString(ct) != tc.ciphertext {
				t.Fatalf("ciphertext = %x, want %s", ct, tc.ciphertext)
			}
		})
	}
}

func TestCipherRejectsBadBlockSizes(t *testing.T) {
	c, err := NewCipher(make([]byte, 16))
	if err != nil {
		t.Fatal(err)
	}
	block := make([]byte, BlockSize)
	if err := c.Encrypt(block, make([]byte, 15)); err == nil {
		t.Error("short plaintext accepted")
	}
	if err := c.Encrypt(block, make([]byte, 17)); err == nil {
		t.Error("long plaintext accepted")
	}
	if err := c.Encrypt(make([]byte, 15), block); err == nil {
		t.Error("short destination accepted")
	}
}

func TestECBHelpers(t *testing.T) {
	c, err := NewCipher(mustHex(t, "000102030405060708090a0b0c0d0e0f"))
	if err != nil {
		t.Fatal(err)
	}
	plaintext := bytes.Repeat(mustHex(t, "00112233445566778899aabbccddeeff"), 3)
	ct, err := c.EncryptECB(plaintext)
	if err != nil {
		t.Fatal(err)
	}
	if len(ct) != len(plaintext) {
		t.Fatalf("ciphertext length %d, want %d", len(ct), len(plaintext))
	}
	// ECB encrypts each block on its own: every block is FIPS-197 C.1.
	want := bytes.Repeat(mustHex(t, "69c4e0d86a7b0430d8cdb78070b4c55a"), 3)
	if !bytes.Equal(ct, want) {
		t.Fatalf("ECB ciphertext = %x, want %x", ct, want)
	}
	if _, err := c.EncryptECB(make([]byte, 10)); err == nil {
		t.Error("non-multiple-of-block-size input accepted")
	}
}

func TestEncryptionStepsMatchPaperOperationCounts(t *testing.T) {
	steps, err := EncryptionSteps(Key128)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 30 {
		t.Fatalf("AES-128 job has %d operations, want 30", len(steps))
	}
	m1, m2, m3, err := OperationCounts(Key128)
	if err != nil {
		t.Fatal(err)
	}
	if m1 != 10 || m2 != 9 || m3 != 11 {
		t.Fatalf("operation counts = (%d,%d,%d), want (10,9,11) as in Table 1", m1, m2, m3)
	}
	// First and last operations must be AddRoundKey per the Fig 1 pseudo code.
	if steps[0].Kind != OpAddRoundKey || steps[0].Round != 0 {
		t.Errorf("first step = %+v, want AddRoundKey round 0", steps[0])
	}
	if steps[len(steps)-1].Kind != OpAddRoundKey || steps[len(steps)-1].Round != 10 {
		t.Errorf("last step = %+v, want AddRoundKey round 10", steps[len(steps)-1])
	}
	if _, err := EncryptionSteps(KeySize(100)); err == nil {
		t.Error("invalid key size accepted")
	}
	if _, _, _, err := OperationCounts(KeySize(100)); err == nil {
		t.Error("invalid key size accepted by OperationCounts")
	}
}

func TestOperationCountsOtherKeySizes(t *testing.T) {
	for _, tc := range []struct {
		size       KeySize
		m1, m2, m3 int
	}{
		{Key192, 12, 11, 13},
		{Key256, 14, 13, 15},
	} {
		m1, m2, m3, err := OperationCounts(tc.size)
		if err != nil {
			t.Fatal(err)
		}
		if m1 != tc.m1 || m2 != tc.m2 || m3 != tc.m3 {
			t.Errorf("%v counts = (%d,%d,%d), want (%d,%d,%d)",
				tc.size, m1, m2, m3, tc.m1, tc.m2, tc.m3)
		}
	}
}

// run applies every step of p to the block, as the engine does one step per
// completed operation, and returns the ciphertext.
func run(p *Pipeline, block []byte) ([]byte, error) {
	s, err := LoadState(block)
	if err != nil {
		return nil, err
	}
	for i := 0; i < p.NumSteps(); i++ {
		if err := p.ApplyInPlace(&s, i); err != nil {
			return nil, err
		}
	}
	return s[:], nil
}

func TestPipelineMatchesReferenceCipher(t *testing.T) {
	prop := func(key [16]byte, block [16]byte) bool {
		p, err := NewPipeline(key[:])
		if err != nil {
			return false
		}
		c, err := NewCipher(key[:])
		if err != nil {
			return false
		}
		got, err := run(p, block[:])
		if err != nil {
			return false
		}
		want := make([]byte, BlockSize)
		if c.Encrypt(want, block[:]) != nil {
			return false
		}
		return bytes.Equal(got, want)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineStepwiseExecution(t *testing.T) {
	key := mustHex(t, "2b7e151628aed2a6abf7158809cf4f3c")
	p, err := NewPipeline(key)
	if err != nil {
		t.Fatal(err)
	}
	if p.NumSteps() != 30 {
		t.Fatalf("NumSteps = %d, want 30", p.NumSteps())
	}
	s, err := LoadState(mustHex(t, "3243f6a8885a308d313198a2e0370734"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < p.NumSteps(); i++ {
		if err := p.ApplyInPlace(&s, i); err != nil {
			t.Fatalf("ApplyInPlace(%d): %v", i, err)
		}
	}
	if s.String() != "3925841d02dc09fbdc118597196a0b32" {
		t.Fatalf("stepwise ciphertext = %s, want FIPS example value", s)
	}
	if err := p.ApplyInPlace(&s, -1); err == nil {
		t.Error("ApplyInPlace(-1) should fail")
	}
	if err := p.ApplyInPlace(&s, p.NumSteps()); err == nil {
		t.Error("ApplyInPlace past end should fail")
	}
}

func TestOpKindString(t *testing.T) {
	if OpAddRoundKey.String() != "AddRoundKey" ||
		OpSubBytesShiftRows.String() != "SubBytes/ShiftRows" ||
		OpMixColumns.String() != "MixColumns" {
		t.Error("OpKind String() values wrong")
	}
	if OpKind(42).String() != "OpKind(42)" {
		t.Errorf("unknown OpKind string = %q", OpKind(42).String())
	}
}

func BenchmarkEncryptBlock128(b *testing.B) {
	c, _ := NewCipher(make([]byte, 16))
	block := make([]byte, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Encrypt(block, block); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPipelineRun128(b *testing.B) {
	p, _ := NewPipeline(make([]byte, 16))
	block := make([]byte, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(p, block); err != nil {
			b.Fatal(err)
		}
	}
}
