package aes

import "fmt"

// Cipher is a reference AES block cipher for one expanded key. cmd/aescli
// encrypts with it, and etsim -verify checks the ciphertexts of the
// distributed Pipeline execution against it.
type Cipher struct {
	schedule *KeySchedule
}

// NewCipher expands the given raw key (16, 24 or 32 bytes) and returns a
// ready-to-use cipher.
func NewCipher(key []byte) (*Cipher, error) {
	ks, err := ExpandKey(key)
	if err != nil {
		return nil, err
	}
	return &Cipher{schedule: ks}, nil
}

// Encrypt encrypts the 16-byte block src into dst without allocating. dst
// and src must each be exactly BlockSize bytes and may overlap.
func (c *Cipher) Encrypt(dst, src []byte) error {
	s, err := LoadState(src)
	if err != nil {
		return err
	}
	if len(dst) != BlockSize {
		return fmt.Errorf("aes: destination must be %d bytes, got %d", BlockSize, len(dst))
	}
	c.encrypt(&s)
	copy(dst, s[:])
	return nil
}

// encrypt runs the cipher rounds in place.
func (c *Cipher) encrypt(s *State) {
	nr := c.schedule.Rounds()
	addRoundKey(s, c.schedule.mustRoundKey(0))
	for round := 1; round < nr; round++ {
		subBytesShiftRows(s)
		mixColumns(s)
		addRoundKey(s, c.schedule.mustRoundKey(round))
	}
	subBytesShiftRows(s)
	addRoundKey(s, c.schedule.mustRoundKey(nr))
}

// EncryptECB encrypts a multiple-of-16-bytes buffer block by block. It exists
// for the aescli tool and for generating deterministic multi-block workloads;
// ECB offers no semantic security and must not be used to protect real data.
func (c *Cipher) EncryptECB(plaintext []byte) ([]byte, error) {
	if len(plaintext)%BlockSize != 0 {
		return nil, fmt.Errorf("aes: input length %d is not a multiple of the block size", len(plaintext))
	}
	out := make([]byte, len(plaintext))
	for off := 0; off < len(plaintext); off += BlockSize {
		if err := c.Encrypt(out[off:off+BlockSize], plaintext[off:off+BlockSize]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// OpKind identifies one kind of cipher operation, matching the paper's
// module partitioning: each OpKind is an "act of computation" performed by
// exactly one module.
type OpKind int

// Operation kinds and the module that executes them.
const (
	// OpAddRoundKey is executed by Module 3 (KeyExpansion/AddRoundKey).
	OpAddRoundKey OpKind = iota
	// OpSubBytesShiftRows is executed by Module 1 (SubBytes/ShiftRows).
	OpSubBytesShiftRows
	// OpMixColumns is executed by Module 2 (MixColumns).
	OpMixColumns
)

// String implements fmt.Stringer.
func (k OpKind) String() string {
	switch k {
	case OpAddRoundKey:
		return "AddRoundKey"
	case OpSubBytesShiftRows:
		return "SubBytes/ShiftRows"
	case OpMixColumns:
		return "MixColumns"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Step is one operation of the encryption data flow: an OpKind plus the round
// whose key material it needs (meaningful only for OpAddRoundKey).
type Step struct {
	Kind  OpKind
	Round int
}

// EncryptionSteps returns the complete operation sequence of one encryption
// job for the given key size, in data-flow order. For AES-128 this yields 30
// steps: 10 of Module 1, 9 of Module 2 and 11 of Module 3, matching the
// f_i = (10, 9, 11) operation counts of Table 1.
func EncryptionSteps(size KeySize) ([]Step, error) {
	if !size.Valid() {
		return nil, fmt.Errorf("aes: invalid key size %d", int(size))
	}
	nr := size.Nr()
	steps := make([]Step, 0, 3*nr+1)
	steps = append(steps, Step{Kind: OpAddRoundKey, Round: 0})
	for round := 1; round < nr; round++ {
		steps = append(steps,
			Step{Kind: OpSubBytesShiftRows, Round: round},
			Step{Kind: OpMixColumns, Round: round},
			Step{Kind: OpAddRoundKey, Round: round},
		)
	}
	steps = append(steps,
		Step{Kind: OpSubBytesShiftRows, Round: nr},
		Step{Kind: OpAddRoundKey, Round: nr},
	)
	return steps, nil
}

// OperationCounts returns, for the given key size, how many operations each
// module performs per encryption job: the paper's (f1, f2, f3).
func OperationCounts(size KeySize) (module1, module2, module3 int, err error) {
	steps, err := EncryptionSteps(size)
	if err != nil {
		return 0, 0, 0, err
	}
	for _, s := range steps {
		switch s.Kind {
		case OpSubBytesShiftRows:
			module1++
		case OpMixColumns:
			module2++
		case OpAddRoundKey:
			module3++
		}
	}
	return module1, module2, module3, nil
}

// Pipeline executes an encryption step by step. It is the computational
// payload carried through the mesh by et_sim: each node applies exactly the
// steps belonging to its module, so a completed simulated job produces a real
// AES ciphertext that can be checked against the Cipher reference.
type Pipeline struct {
	schedule *KeySchedule
	steps    []Step
}

// NewPipeline builds a pipeline for the given raw key.
func NewPipeline(key []byte) (*Pipeline, error) {
	ks, err := ExpandKey(key)
	if err != nil {
		return nil, err
	}
	steps, err := EncryptionSteps(ks.Size())
	if err != nil {
		return nil, err
	}
	return &Pipeline{schedule: ks, steps: steps}, nil
}

// NumSteps returns the number of operations in one job.
func (p *Pipeline) NumSteps() int { return len(p.steps) }

// ApplyInPlace executes step index i on the state in place without
// allocating — it is the form the simulation engine calls once per completed
// operation. On error the state is left untouched.
func (p *Pipeline) ApplyInPlace(s *State, i int) error {
	if i < 0 || i >= len(p.steps) {
		return fmt.Errorf("aes: step index %d out of range 0..%d", i, len(p.steps)-1)
	}
	step := p.steps[i]
	switch step.Kind {
	case OpAddRoundKey:
		addRoundKey(s, p.schedule.mustRoundKey(step.Round))
	case OpSubBytesShiftRows:
		subBytesShiftRows(s)
	case OpMixColumns:
		mixColumns(s)
	default:
		return fmt.Errorf("aes: unknown operation kind %d", step.Kind)
	}
	return nil
}
