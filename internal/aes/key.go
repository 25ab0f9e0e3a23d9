package aes

import "fmt"

// KeySize identifies one of the three FIPS-197 key lengths.
type KeySize int

// Supported key sizes in bits.
const (
	Key128 KeySize = 128
	Key192 KeySize = 192
	Key256 KeySize = 256
)

// Nk returns the key length in 32-bit words.
func (k KeySize) Nk() int { return int(k) / 32 }

// Nr returns the number of cipher rounds for this key size (10, 12 or 14).
func (k KeySize) Nr() int { return k.Nk() + 6 }

// Valid reports whether k is one of the three supported key sizes.
func (k KeySize) Valid() bool { return k == Key128 || k == Key192 || k == Key256 }

// String implements fmt.Stringer, e.g. "AES-128".
func (k KeySize) String() string { return fmt.Sprintf("AES-%d", int(k)) }

// KeySizeForBytes maps a raw key length in bytes to its KeySize.
func KeySizeForBytes(n int) (KeySize, error) {
	switch n {
	case 16:
		return Key128, nil
	case 24:
		return Key192, nil
	case 32:
		return Key256, nil
	default:
		return 0, fmt.Errorf("aes: invalid key length %d bytes (want 16, 24 or 32)", n)
	}
}

// rcon holds the round constants Rcon[i] = x^(i-1) in GF(2^8); index 0 is
// unused as in FIPS-197.
var rcon = func() [15]byte {
	var r [15]byte
	v := byte(1)
	for i := 1; i < len(r); i++ {
		r[i] = v
		v = gmul(v, 2)
	}
	return r
}()

// KeySchedule is the expanded key: Nb*(Nr+1) words, consumed Nb words per
// round by AddRoundKey. It is produced by Module 3 (KeyExpansion).
type KeySchedule struct {
	size  KeySize
	words []Word
}

// ExpandKey runs the FIPS-197 KeyExpansion routine on a raw key of 16, 24 or
// 32 bytes.
func ExpandKey(key []byte) (*KeySchedule, error) {
	size, err := KeySizeForBytes(len(key))
	if err != nil {
		return nil, err
	}
	nk := size.Nk()
	nr := size.Nr()
	words := make([]Word, Nb*(nr+1))
	for i := 0; i < nk; i++ {
		copy(words[i][:], key[4*i:4*i+4])
	}
	for i := nk; i < len(words); i++ {
		temp := words[i-1]
		switch {
		case i%nk == 0:
			temp = subWord(rotWord(temp))
			temp[0] ^= rcon[i/nk]
		case nk > 6 && i%nk == 4:
			temp = subWord(temp)
		}
		words[i] = xorWords(words[i-nk], temp)
	}
	return &KeySchedule{size: size, words: words}, nil
}

// Size returns the key size the schedule was expanded from.
func (ks *KeySchedule) Size() KeySize { return ks.size }

// Rounds returns the number of cipher rounds Nr.
func (ks *KeySchedule) Rounds() int { return ks.size.Nr() }

// mustRoundKey returns the Nb words AddRoundKey uses in the given round,
// 0 <= round <= Nr; an index out of that range is a bug in the caller. The
// slice aliases the schedule without copying, so the per-round hot path does
// not allocate; callers must treat it as read-only.
func (ks *KeySchedule) mustRoundKey(round int) []Word {
	if round < 0 || round > ks.Rounds() {
		panic(fmt.Sprintf("aes: round %d out of range 0..%d", round, ks.Rounds()))
	}
	return ks.words[round*Nb : (round+1)*Nb]
}
