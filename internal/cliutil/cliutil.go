// Package cliutil centralizes the flag surface the simulation-facing
// commands share. rsepsim and experiments register the same flag names with
// the same help text through one helper instead of hand-kept copies, and
// resolve them into an execution backend the same way — so "-cache off" or
// "-server URL" means exactly the same thing whichever binary it is passed
// to. rsepd, which is the server, takes only the store flags.
package cliutil

import (
	"flag"

	"rsepsim/internal/runner"
	"rsepsim/internal/serve"
	"rsepsim/internal/store"
)

// Flags is the shared command-line surface, resolved with Backend after
// flag.Parse.
type Flags struct {
	CacheDir  string
	CacheMode string
	CacheWarm bool
	Server    string
	JSON      bool
	Slices    uint
}

// RegisterStore adds the -cache-dir / -cache / -cache-warm trio.
func (f *Flags) RegisterStore(fs *flag.FlagSet) {
	defaultDir, _ := store.DefaultDir()
	fs.StringVar(&f.CacheDir, "cache-dir", defaultDir, "persistent result store directory")
	fs.StringVar(&f.CacheMode, "cache", "rw", "result store mode: off (in-memory only), ro, rw")
	fs.BoolVar(&f.CacheWarm, "cache-warm", false, "preload the memory tier from disk before running")
}

// Register adds the store trio plus -server (the remote-daemon switch),
// -json and -slices: the whole surface of a command that runs simulations.
func (f *Flags) Register(fs *flag.FlagSet) {
	f.RegisterStore(fs)
	fs.StringVar(&f.Server, "server", "", "run on a rsepd daemon at this URL instead of in-process")
	fs.BoolVar(&f.JSON, "json", false, "emit machine-readable JSON instead of the text report")
	fs.UintVar(&f.Slices, "slices", 0,
		"decompose each job into this many checkpoint-chained slices; results are byte-identical, but a killed run resumes from finished slices (0 or 1: monolithic)")
}

// Backend is the resolved execution side of the flags: exactly one of Client
// (remote, -server) and Store (local mount) is non-nil. Disk is the local
// persistent tier when one is mounted.
type Backend struct {
	Client *serve.Client
	Store  runner.Store
	Disk   *store.Disk
}

// Backend resolves the parsed flags, in prog's name for warnings: a remote
// client when -server is set (warning about ignored local store flags), a
// locally mounted — and optionally warmed — store otherwise.
func (f *Flags) Backend(prog string) (*Backend, error) {
	if f.Server != "" {
		store.WarnServerIgnored(prog)
		client, err := serve.NewClient(f.Server)
		if err != nil {
			return nil, err
		}
		return &Backend{Client: client}, nil
	}
	st, disk, err := store.MountFlags(prog, f.CacheDir, f.CacheMode)
	if err != nil {
		return nil, err
	}
	if err := store.WarmFlags(prog, st, f.CacheWarm); err != nil {
		return nil, err
	}
	return &Backend{Store: st, Disk: disk}, nil
}

// Runner returns the BatchRunner to submit through: the remote client, or an
// in-process scheduler of the given parallelism over the mounted store.
func (b *Backend) Runner(parallelism int) runner.BatchRunner {
	if b.Client != nil {
		return b.Client
	}
	return runner.NewScheduler(runner.SchedulerOptions{Parallelism: parallelism, Store: b.Store})
}

// Counters reports hit/miss/stale from whichever side is active.
func (b *Backend) Counters() runner.Counters {
	if b.Client != nil {
		return b.Client.Counters()
	}
	return b.Store.Counters()
}

// WarnWrites runs the end-of-run store write check (no-op remotely).
func (b *Backend) WarnWrites(prog string) {
	store.WarnWrites(prog, b.Disk)
}
