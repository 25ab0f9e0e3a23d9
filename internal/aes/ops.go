package aes

// This file implements the primitive transformations of FIPS-197 Sec 5.1/5.3.
// They map one-to-one onto the hardware modules of the paper's partitioning:
// SubBytes and ShiftRows belong to Module 1, MixColumns to Module 2, and
// AddRoundKey (together with KeyExpansion in key.go) to Module 3.
//
// Each transformation operates in place on the flat 16-byte state — the
// engine applies millions of them while jobs flow through the mesh, so the
// hot path must not allocate.

// subBytes applies the S-box to every byte of the state in place.
func subBytes(s *State) {
	for i := range s {
		s[i] = sbox[s[i]]
	}
}

// shiftRows cyclically shifts row r of the state left by r positions in
// place. Row r element c lives at flat index 4*c+r.
func shiftRows(s *State) {
	for r := 1; r < 4; r++ {
		var row [Nb]byte
		for c := 0; c < Nb; c++ {
			row[c] = s[Nb*((c+r)%Nb)+r]
		}
		for c := 0; c < Nb; c++ {
			s[Nb*c+r] = row[c]
		}
	}
}

// mixColumns multiplies each column of the state by the fixed FIPS-197
// polynomial {03}x^3 + {01}x^2 + {01}x + {02} in place. Columns are
// contiguous in the flat layout.
func mixColumns(s *State) {
	for c := 0; c < Nb; c++ {
		col := s[Nb*c : Nb*c+4]
		a0, a1, a2, a3 := col[0], col[1], col[2], col[3]
		col[0] = gmul(a0, 2) ^ gmul(a1, 3) ^ a2 ^ a3
		col[1] = a0 ^ gmul(a1, 2) ^ gmul(a2, 3) ^ a3
		col[2] = a0 ^ a1 ^ gmul(a2, 2) ^ gmul(a3, 3)
		col[3] = gmul(a0, 3) ^ a1 ^ a2 ^ gmul(a3, 2)
	}
}

// addRoundKey XORs one round key (Nb words of the expanded key schedule)
// into the state in place.
func addRoundKey(s *State, roundKey []Word) {
	for c := 0; c < Nb; c++ {
		for r := 0; r < 4; r++ {
			s[Nb*c+r] ^= roundKey[c][r]
		}
	}
}

// subBytesShiftRows performs the combined operation of the paper's Module 1
// in place: one "act of computation" of that module applies SubBytes
// followed by ShiftRows to the state it receives.
func subBytesShiftRows(s *State) {
	subBytes(s)
	shiftRows(s)
}
