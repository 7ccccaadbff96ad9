// Package workload synthesises the 29 SPEC CPU2006-like benchmark models the
// reproduction runs in place of the paper's SPEC checkpoints. Each benchmark
// is a weighted mixture of loop kernels whose slots carry explicit value
// behaviours (constants, strides, periodic sets, zero bursts, duplicated
// computations) and memory behaviours (streams, random access, pointer
// rings, store/reload). The kernels are executed functionally — register
// values and memory contents are real — so result equality, zero-ness and
// predictability emerge from program semantics and the predictors are
// trained on genuine value streams. Profiles are calibrated to the
// per-benchmark characteristics the paper reports (Figures 1, 4, 5).
package workload

import "math/rand"

// ValueKind enumerates result-stream behaviours.
type ValueKind uint8

// Value stream kinds. Their interaction with the two predictors under study:
// constants are captured by both distance and value prediction; strides only
// by value prediction (a strided value never equals an earlier one);
// periodic sets only by distance prediction (last-value+stride fails on
// period >= 2, while the pair distance is stable); random small sets create
// the chance matches that §VI-A2 calls noise; zero bursts create the
// zero-rich results of Figure 1.
const (
	KConst ValueKind = iota
	KStride
	KPeriodic
	KSmallSet
	KRandom
	KZeroBurst
	KDup
	KBern
)

// ValueSpec declares a value stream. Build them with the constructor
// functions; compile() instantiates the runtime state.
type ValueSpec struct {
	Kind   ValueKind
	Vals   []uint64
	Start  uint64
	Step   uint64
	Width  uint    // bit width of random values
	ZeroP  float64 // zero probability (KZeroBurst)
	Burst  float64 // burst continuation probability (KZeroBurst)
	SrcIdx int     // producer slot (KDup)
}

// Const yields v forever.
func Const(v uint64) *ValueSpec { return &ValueSpec{Kind: KConst, Start: v} }

// Stride yields start, start+step, start+2*step, ...
func Stride(start, step uint64) *ValueSpec {
	return &ValueSpec{Kind: KStride, Start: start, Step: step}
}

// Periodic cycles deterministically through vals.
func Periodic(vals ...uint64) *ValueSpec { return &ValueSpec{Kind: KPeriodic, Vals: vals} }

// SmallSet yields a uniformly random member of a set of n distinct
// width-bit values.
func SmallSet(n int, width uint) *ValueSpec {
	return &ValueSpec{Kind: KSmallSet, Vals: make([]uint64, n), Width: width}
}

// Rand yields fresh random width-bit values.
func Rand(width uint) *ValueSpec { return &ValueSpec{Kind: KRandom, Width: width} }

// ZeroBurst yields 0 with probability p, in bursts that continue with
// probability burst, and random width-bit values otherwise. Bursty zeros
// reproduce the "many zeros but not in a regular fashion" behaviour of
// zeusmp/cactusADM (§III: high Figure 1 ratio, no zero-prediction speedup).
func ZeroBurst(p, burst float64, width uint) *ValueSpec {
	return &ValueSpec{Kind: KZeroBurst, ZeroP: p, Burst: burst, Width: width}
}

// Dup mirrors the last value produced by another slot of the same kernel —
// the duplicated-computation pattern (two unrelated dependency chains
// computing the same result) that only equality prediction captures.
func Dup(slot int) *ValueSpec { return &ValueSpec{Kind: KDup, SrcIdx: slot} }

// Bern yields 1 with probability p and 0 otherwise — the data-dependent
// branch-direction stream. A TAGE direction predictor converges on the bias,
// so the misprediction rate of a Bern(p) branch is roughly min(p, 1-p).
func Bern(p float64) *ValueSpec { return &ValueSpec{Kind: KBern, ZeroP: p} }

// valueSeq is the runtime state of a ValueSpec.
type valueSeq struct {
	spec    ValueSpec
	cur     uint64
	idx     int
	inBurst bool

	// drawn backs a KSmallSet's set, drawn at compile time; it is kept
	// across recompiles so a reset generator draws into the same storage.
	drawn []uint64
}

// compile rewinds s to the start of spec's stream. A KSmallSet draws its
// members from rng into s's own storage, never into the shared profile.
func (s *valueSeq) compile(spec *ValueSpec, rng *rand.Rand) {
	*s = valueSeq{spec: *spec, cur: spec.Start, drawn: s.drawn}
	if spec.Kind == KSmallSet {
		s.drawn = resize(s.drawn, len(spec.Vals))
		for i := range s.drawn {
			s.drawn[i] = randBits(rng, spec.Width)
		}
		s.spec.Vals = s.drawn
	}
}

// resize returns s with length n, keeping its backing array and the
// elements in it when the capacity allows.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]T, n-cap(s))...)
	}
	return s[:n]
}

func randBits(rng *rand.Rand, width uint) uint64 {
	if width == 0 || width >= 64 {
		return rng.Uint64()
	}
	return rng.Uint64() & (1<<width - 1)
}

// next advances the stream. lastVals supplies other slots' most recent
// results for KDup.
func (s *valueSeq) next(rng *rand.Rand, lastVals []uint64) uint64 {
	switch s.spec.Kind {
	case KConst:
		return s.spec.Start
	case KStride:
		v := s.cur
		s.cur += s.spec.Step
		return v
	case KPeriodic:
		v := s.spec.Vals[s.idx]
		s.idx++
		if s.idx == len(s.spec.Vals) {
			s.idx = 0
		}
		return v
	case KSmallSet:
		return s.spec.Vals[rng.Intn(len(s.spec.Vals))]
	case KRandom:
		return randBits(rng, s.spec.Width)
	case KZeroBurst:
		if s.inBurst {
			if rng.Float64() < s.spec.Burst {
				return 0
			}
			s.inBurst = false
			return randBits(rng, s.spec.Width) | 1
		}
		if rng.Float64() < s.spec.ZeroP {
			s.inBurst = true
			return 0
		}
		return randBits(rng, s.spec.Width) | 1
	case KDup:
		return lastVals[s.spec.SrcIdx]
	case KBern:
		if rng.Float64() < s.spec.ZeroP {
			return 1
		}
		return 0
	}
	return 0
}
