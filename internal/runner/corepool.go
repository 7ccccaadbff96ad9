package runner

import (
	"bytes"
	"slices"
	"sync"
	"time"

	"rsepsim/internal/config"
	"rsepsim/internal/pipeline"
	"rsepsim/internal/trace"
	"rsepsim/internal/workload"
)

// The core pool: workers reuse idle pipeline.Cores instead of constructing
// the several-MB table set for every job. Any idle core can serve any config:
// Core.ResetFor resets in place every component whose shape the new config
// keeps and rebuilds only the others, and is bit-identical to fresh
// construction (see TestCoreReuseDeterminism), so pooling is invisible to
// results. A core last used for the same machine (config.SeedlessHash) is
// handed out first, since it rebuilds nothing; otherwise the most recently
// returned core is, which for the figure sweeps — one Table I machine with
// the mechanisms varied — rebuilds only mechanism tables. Cores are returned
// to the pool explicitly — never deferred — so a core that panicked
// mid-simulation (deadlock check) is dropped rather than recycled with
// inconsistent state.

// corePoolMax bounds the idle cores kept. Cores are only built when none is
// idle, so the pool holds about as many cores as jobs ever ran at once.
const corePoolMax = 8

// coreIdleTTL is how long an idle core is kept: long enough that a sweep
// in progress keeps a core between two jobs on its machine, short enough
// that a process that stops simulating — a daemon between bursts, a sweep
// the store answers — soon gives its cores back. A core is several MB, and
// hundreds at the largest sizes config.Validate admits.
const coreIdleTTL = 10 * time.Second

// pooledCore is a core on loan from the pool, or idle in it, together with
// what travels with it.
type pooledCore struct {
	*pipeline.Core
	key string // config.SeedlessHash of the config the core last ran
	// ckpt is the buffer runSliced encodes this core's checkpoints into. It
	// grows to the largest checkpoint the core has written and is reused at
	// every slice boundary after that: the store only borrows the bytes.
	ckpt  bytes.Buffer
	since time.Time // when the core was last returned
}

// gens recycles workload generators between jobs. Gen.Reset rewinds one to
// exactly the stream workload.New would produce, keeping its functional
// memory pages and pointer-ring storage, so a warm worker's job builds no
// generator. It is a sync.Pool, not a field of pooledCore: the garbage
// collector empties it, whereas a generator carried by each idle core would
// keep its pages and rings live for coreIdleTTL (DESIGN.md §3.3 gives the
// measured peak-RSS cost).
var gens sync.Pool

// getGen returns a generator for prof and seed, recycled when one is idle.
// Callers hand it back with gens.Put once no core will pull from it again.
// Reset rewinds a generator from any state, so one a failed job held is as
// good as any other.
func getGen(prof *workload.Profile, seed int64) *workload.Gen {
	if g, ok := gens.Get().(*workload.Gen); ok {
		g.Reset(prof, seed)
		return g
	}
	return workload.New(prof, seed)
}

var corePool struct {
	mu   sync.Mutex
	idle []*pooledCore // oldest returned first
	trim *time.Timer   // armed while any core is idle
}

// coreFor returns a core ready to simulate cfg over src — an idle core reset
// in place when one is available, a freshly built one otherwise.
func coreFor(cfg *config.Config, src trace.Source) *pooledCore {
	key := cfg.SeedlessHash()
	corePool.mu.Lock()
	var p *pooledCore
	if n := len(corePool.idle); n > 0 {
		i := n - 1
		if j := slices.IndexFunc(corePool.idle, func(e *pooledCore) bool { return e.key == key }); j >= 0 {
			i = j
		}
		p = corePool.idle[i]
		corePool.idle = slices.Delete(corePool.idle, i, i+1)
	}
	corePool.mu.Unlock()
	if p == nil {
		return &pooledCore{Core: pipeline.New(cfg, src), key: key}
	}
	p.ResetFor(cfg, src)
	p.key = key
	return p
}

// putCore returns a healthy core to the pool, which keeps at most
// corePoolMax idle cores, each for at most coreIdleTTL.
func putCore(p *pooledCore) {
	corePool.mu.Lock()
	defer corePool.mu.Unlock()
	if len(corePool.idle) < corePoolMax {
		p.since = time.Now()
		corePool.idle = append(corePool.idle, p)
	}
	if corePool.trim == nil {
		corePool.trim = time.AfterFunc(coreIdleTTL, trimCores)
	}
}

// trimCores drops the cores idle for coreIdleTTL or longer and re-arms the
// timer for the oldest one left.
func trimCores() {
	corePool.mu.Lock()
	defer corePool.mu.Unlock()
	now := time.Now()
	corePool.idle = slices.DeleteFunc(corePool.idle, func(e *pooledCore) bool {
		return now.Sub(e.since) >= coreIdleTTL
	})
	corePool.trim = nil
	if len(corePool.idle) > 0 {
		corePool.trim = time.AfterFunc(coreIdleTTL-now.Sub(corePool.idle[0].since), trimCores)
	}
}
