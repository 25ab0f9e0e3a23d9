// Command aescli encrypts data with the library's from-scratch AES
// implementation — the same module operations that et_sim distributes
// across the e-textile mesh. It exists to demonstrate and sanity-check the
// cipher substrate; it encrypts each block on its own (ECB) and therefore
// must not be used to protect real data. Like the paper's application, it
// only encrypts.
//
// Examples:
//
//	echo -n "00112233445566778899aabbccddeeff" | aescli -key 000102030405060708090a0b0c0d0e0f -mode encrypt   # FIPS-197 C.1: 69c4e0d8...
//	aescli -key 000102030405060708090a0b0c0d0e0f -mode steps   # show the per-module job flow
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/aes"
	"repro/internal/app"
	"repro/internal/stats"
)

func main() {
	var (
		keyHex = flag.String("key", "", "key as hex (16, 24 or 32 bytes)")
		mode   = flag.String("mode", "encrypt", "encrypt or steps")
		inHex  = flag.String("in", "", "plaintext as hex, a multiple of 16 bytes (defaults to reading hex from stdin)")
	)
	flag.Parse()

	key, err := hex.DecodeString(*keyHex)
	if err != nil {
		fatal(fmt.Errorf("invalid key hex: %w", err))
	}

	if *mode == "steps" {
		printSteps(key)
		return
	}
	if *mode != "encrypt" {
		fatal(fmt.Errorf("unknown mode %q (want encrypt or steps)", *mode))
	}

	input := strings.TrimSpace(*inHex)
	if input == "" {
		// Read stdin whole, so a hex line of any length arrives intact, and
		// drop the whitespace between its lines or fields.
		raw, err := io.ReadAll(os.Stdin)
		if err != nil {
			fatal(fmt.Errorf("reading stdin: %w", err))
		}
		input = strings.Join(strings.Fields(string(raw)), "")
	}
	data, err := hex.DecodeString(input)
	if err != nil {
		fatal(fmt.Errorf("invalid input hex: %w", err))
	}

	cipher, err := aes.NewCipher(key)
	if err != nil {
		fatal(err)
	}
	out, err := cipher.EncryptECB(data)
	if err != nil {
		fatal(err)
	}
	fmt.Println(hex.EncodeToString(out))
}

// printSteps shows how one encryption job decomposes into module operations,
// i.e. the data flow et_sim routes across the mesh.
func printSteps(key []byte) {
	size, err := aes.KeySizeForBytes(len(key))
	if err != nil {
		fatal(err)
	}
	steps, err := aes.EncryptionSteps(size)
	if err != nil {
		fatal(err)
	}
	t := stats.NewTable(fmt.Sprintf("%s job flow (%d operations)", size, len(steps)),
		"#", "operation", "module", "round")
	for i, s := range steps {
		module, err := app.ModuleForOp(s.Kind)
		if err != nil {
			fatal(err)
		}
		t.AddRow(i+1, s.Kind.String(), int(module), s.Round)
	}
	fmt.Print(t.Render())
	m1, m2, m3, err := aes.OperationCounts(size)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("operations per module: f1=%d f2=%d f3=%d\n", m1, m2, m3)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "aescli:", err)
	os.Exit(1)
}
