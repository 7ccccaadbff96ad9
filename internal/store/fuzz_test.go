package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// checkDecoded is the property both envelope fuzzers assert of a successful
// decode: the current schema, and a stats_sha256 that is the SHA-256 of the
// stats bytes.
func checkDecoded(t *testing.T, schema int, statsSHA string, stats json.RawMessage) {
	t.Helper()
	if schema != Schema {
		t.Fatalf("decoded an envelope of schema %d, want %d", schema, Schema)
	}
	if sum := sha256.Sum256(stats); hex.EncodeToString(sum[:]) != statsSHA {
		t.Fatalf("decoded an envelope whose stats_sha256 %q does not match its stats", statsSHA)
	}
}

// FuzzDecodeEntry decodes arbitrary bytes as a result envelope. Property:
// decodeEntry never panics, and succeeds only on a schema-1 envelope whose
// checksum matches its stats bytes.
func FuzzDecodeEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		env, st, err := decodeEntry(raw)
		if err != nil {
			return
		}
		if st == nil {
			t.Fatal("decodeEntry succeeded without stats")
		}
		checkDecoded(t, env.Schema, env.StatsSHA, env.Stats)
	})
}

// FuzzDecodeSliceEntry is FuzzDecodeEntry for slice envelopes.
func FuzzDecodeSliceEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, raw []byte) {
		env, st, err := decodeSliceEntry(raw)
		if err != nil {
			return
		}
		if st == nil {
			t.Fatal("decodeSliceEntry succeeded without stats")
		}
		checkDecoded(t, env.Schema, env.StatsSHA, env.Stats)
	})
}

// TestFuzzSeedsDecodeAsNamed pins the seed corpus to what its file names
// claim: only the valid seed of each target decodes.
func TestFuzzSeedsDecodeAsNamed(t *testing.T) {
	decoders := map[string]func([]byte) error{
		"FuzzDecodeEntry": func(raw []byte) error {
			_, _, err := decodeEntry(raw)
			return err
		},
		"FuzzDecodeSliceEntry": func(raw []byte) error {
			_, _, err := decodeSliceEntry(raw)
			return err
		},
	}
	for target, decode := range decoders {
		for _, seed := range []string{"valid", "truncated", "flipped-bit", "schema9", "out-of-range"} {
			file, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, seed))
			if err != nil {
				t.Fatal(err)
			}
			_, arg, _ := strings.Cut(strings.TrimSpace(string(file)), "\n")
			raw, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(arg, "[]byte("), ")"))
			if err != nil {
				t.Fatalf("%s/%s: %v", target, seed, err)
			}
			if err := decode([]byte(raw)); (err == nil) != (seed == "valid") {
				t.Errorf("%s/%s: decode error %v", target, seed, err)
			}
		}
	}
}
