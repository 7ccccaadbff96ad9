package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"rsepsim/internal/metrics"
)

// jobHash is the SHA-256 of one job's Stats JSON: the encoding the store and
// the wire carry, so operational counters such as SkippedCycles stay out.
type jobHash [sha256.Size]byte

func hashStats(st *metrics.Stats) jobHash {
	raw, err := json.Marshal(st)
	if err != nil {
		// Stats holds only integers and one float that is never NaN;
		// Marshal cannot fail on it.
		panic(err)
	}
	return sha256.Sum256(raw)
}

// digest folds per-job hashes, in submission order, into one hex string.
func digest(hs []jobHash) string {
	h := sha256.New()
	for _, x := range hs {
		h.Write(x[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mismatches counts the jobs whose hash differs from the reference, plus
// any job missing on either side.
func mismatches(ref, got []jobHash) int {
	n := 0
	for i := range got {
		if i >= len(ref) || got[i] != ref[i] {
			n++
		}
	}
	if len(ref) > len(got) {
		n += len(ref) - len(got)
	}
	return n
}

// subset returns the hashes at the given indices.
func subset(hs []jobHash, idx []int) []jobHash {
	out := make([]jobHash, 0, len(idx))
	for _, i := range idx {
		if i < len(hs) {
			out = append(out, hs[i])
		}
	}
	return out
}

// recordedDigests pins, for the default seed, the stats digest of one pass
// of each workload. "shared" is the digest of the figs-cold jobs on the
// shared benchmark (sharedBench), which figs-warm also answers from its
// store: the two workloads must agree on it.
var recordedDigests = map[string]string{
	"figs-cold":     "57026354cc05134795344b28179c801186a62c18e7ef3ee2bc5ed94e1bd45f47",
	"figs-warm":     "89c733e67820a148fbe175f950b91549f4e6cb86e1626c465562adae8bc3a154",
	"daemon-sliced": "9d3cdf86d2bee8d022e076220cb8c3677f16fcdd1af9e509251d3906b222404a",
	"shared":        "d24dbd27c05f00fe663aafbabc981136986e2552456dd43c5363a57c5b87e219",
}
