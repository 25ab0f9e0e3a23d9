package aes

import "fmt"

// BlockSize is the AES block size in bytes (Nb = 4 words).
const BlockSize = 16

// Nb is the number of 32-bit columns in the state, fixed at 4 by FIPS-197.
const Nb = 4

// State is the 4x4 byte state array of FIPS-197, stored flat in block order:
// input bytes fill the state column by column (Sec 3.4), so the byte in row
// r, column c lives at index 4*c+r and a State converts to and from a
// 16-byte block with no reordering or allocation. The round operations in
// ops.go mutate a State in place.
type State [BlockSize]byte

// LoadState fills a state from a 16-byte block.
func LoadState(block []byte) (State, error) {
	var s State
	if len(block) != BlockSize {
		return s, fmt.Errorf("aes: block must be %d bytes, got %d", BlockSize, len(block))
	}
	copy(s[:], block)
	return s, nil
}

// Bytes serialises the state back into a 16-byte block. The state is already
// stored in block order, so this is a plain array copy with no allocation.
func (s State) Bytes() [BlockSize]byte { return [BlockSize]byte(s) }

// String renders the state as 16 hexadecimal bytes in block order, which is
// convenient when comparing against the FIPS-197 worked example.
func (s State) String() string { return fmt.Sprintf("%x", s[:]) }

// Word is a 32-bit word of the key schedule, stored as 4 bytes.
type Word [4]byte

// xorWords returns the byte-wise XOR of two words.
func xorWords(a, b Word) Word {
	return Word{a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]}
}

// subWord applies the S-box to each byte of a word (used by KeyExpansion).
func subWord(w Word) Word {
	return Word{sbox[w[0]], sbox[w[1]], sbox[w[2]], sbox[w[3]]}
}

// rotWord rotates a word left by one byte (used by KeyExpansion).
func rotWord(w Word) Word { return Word{w[1], w[2], w[3], w[0]} }
