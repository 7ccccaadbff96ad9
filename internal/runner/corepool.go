package runner

import (
	"slices"
	"sync"

	"rsepsim/internal/config"
	"rsepsim/internal/pipeline"
	"rsepsim/internal/trace"
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

type idleCore struct {
	key  string // config.SeedlessHash of the config the core last ran
	core *pipeline.Core
}

var corePool struct {
	mu   sync.Mutex
	idle []idleCore // oldest returned first
}

// coreFor returns a core ready to simulate cfg over src — an idle core reset
// in place when one is available, a freshly built one otherwise — together
// with the pool key to return it under.
func coreFor(cfg *config.Config, src trace.Source) (*pipeline.Core, string) {
	key := cfg.SeedlessHash()
	corePool.mu.Lock()
	var core *pipeline.Core
	if n := len(corePool.idle); n > 0 {
		i := n - 1
		if j := slices.IndexFunc(corePool.idle, func(e idleCore) bool { return e.key == key }); j >= 0 {
			i = j
		}
		core = corePool.idle[i].core
		corePool.idle = slices.Delete(corePool.idle, i, i+1)
	}
	corePool.mu.Unlock()
	if core == nil {
		return pipeline.New(cfg, src), key
	}
	core.ResetFor(cfg, src)
	return core, key
}

// putCore returns a healthy core to the pool, which keeps at most
// corePoolMax idle cores.
func putCore(key string, core *pipeline.Core) {
	corePool.mu.Lock()
	if len(corePool.idle) < corePoolMax {
		corePool.idle = append(corePool.idle, idleCore{key, core})
	}
	corePool.mu.Unlock()
}
