package runner

import (
	"bytes"

	"rsepsim/internal/metrics"
)

// SliceKey identifies one slice of a sliced run: the per-slice Stats delta
// accumulated over the measured-instruction span [Start, End), after Warmup
// instructions of warmup. Start and End are the nominal slice boundaries
// (k*chunk), not the actual commit counts — actuals may overshoot a boundary
// by up to a commit group, but the chain is deterministic, so nominal
// boundaries name the deltas uniquely. Two sliced submissions whose grids
// align (the 50M prefix of a 100M run, say) share slice keys and checkpoint
// keys, which is what makes extension and resumption pure store lookups.
type SliceKey struct {
	Bench      string
	ConfigHash string
	Seed       int64
	Warmup     uint64
	Start      uint64
	End        uint64
}

// CheckpointKey identifies the serialized core state at a nominal
// measured-instruction boundary (the state from which the slice starting at
// At resumes).
type CheckpointKey struct {
	Bench      string
	ConfigHash string
	Seed       int64
	Warmup     uint64
	At         uint64
}

// SliceStore is the optional store extension behind sliced execution: slice
// Stats deltas and checkpoint blobs live beside whole-job result envelopes.
// The scheduler type-asserts its Store to this interface — a store without it
// still runs sliced jobs correctly, it just cannot resume or extend them.
//
// Like Store, implementations must be concurrency-safe, must hand out
// snapshots/copies of slice stats, treat damaged entries as misses (counted
// stale), and keep Put best-effort. Checkpoint blobs are opaque to the store;
// integrity is the store's job (a corrupt blob must become a miss, not a bad
// restore). PutCheckpoint borrows its argument: the caller reuses the buffer
// once the call returns, so a store copies or writes out whatever it keeps
// before returning. GetCheckpoint may return stored bytes, which the caller
// must not modify.
//
// A restore reads a checkpoint through the optional CheckpointReader when the
// store has it, the way io.Copy uses a WriterTo, and through GetCheckpoint
// otherwise: a store or wrapper with only this method set restores correctly,
// through whatever copy its GetCheckpoint makes.
type SliceStore interface {
	GetSlice(k SliceKey) (*metrics.Stats, bool)
	PutSlice(k SliceKey, st *metrics.Stats)
	GetCheckpoint(k CheckpointKey) ([]byte, bool)
	PutCheckpoint(k CheckpointKey, blob []byte)
}

// CheckpointReader is the SliceStore capability a restore uses to read a
// checkpoint without copying it. ReadCheckpoint returns the blob stored at k
// in bytes that alias either buf or memory the store already holds, never a
// fresh copy; the caller must not modify them. Reading into buf resets it
// and grows it only when the blob does not fit, so a buffer reused across
// restores stops growing. Damage is a stale miss, as for GetCheckpoint.
type CheckpointReader interface {
	ReadCheckpoint(k CheckpointKey, buf *bytes.Buffer) ([]byte, bool)
}
