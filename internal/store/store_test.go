package store

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rsepsim/internal/config"
	"rsepsim/internal/metrics"
	"rsepsim/internal/runner"
)

func testKey(bench string, seed int64) runner.Key {
	return runner.Key{Bench: bench, ConfigHash: "deadbeefdeadbeefdeadbeefdeadbeef", Seed: seed, Warmup: 1000, Measure: 2000}
}

func testStats(n uint64) *metrics.Stats {
	return &metrics.Stats{Cycles: 100 * n, Committed: 42 * n, DRAMReads: n, AvgDRAMLatency: 217.25}
}

func mustOpen(t *testing.T) *Disk {
	t.Helper()
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// entryPath exposes the entry file location for white-box corruption tests.
func entryPath(d *Disk, k runner.Key) string { return d.path(ID(k)) }

func TestRoundTrip(t *testing.T) {
	d := mustOpen(t)
	k := testKey("mcf", 7)
	want := testStats(3)

	if _, ok := d.Get(k); ok {
		t.Fatal("hit on empty store")
	}
	d.Put(k, want, 1500*time.Millisecond)
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}

	got, ok := d.Get(k)
	if !ok {
		t.Fatal("miss after put")
	}
	if *got != *want {
		t.Fatalf("round trip mutated stats: got %+v want %+v", got, want)
	}

	// Snapshot isolation: mutating the returned stats must not affect the
	// store.
	got.Cycles = 1
	again, ok := d.Get(k)
	if !ok || again.Cycles != want.Cycles {
		t.Fatal("caller mutation leaked into the store")
	}

	c := d.Counters()
	if c.Hits != 2 || c.Misses != 1 || c.Stale != 0 {
		t.Fatalf("counters = %+v, want 2 hits / 1 miss / 0 stale", c)
	}

	// The envelope records what Put was told.
	var entries []Entry
	if err := d.Scan(func(e Entry) error { entries = append(entries, e); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("scan found %d entries, want 1", len(entries))
	}
	e := entries[0]
	if e.Key != k || e.SimTime != 1500*time.Millisecond || e.ID != ID(k) {
		t.Fatalf("scan entry = %+v", e)
	}
	if time.Since(e.Created) > time.Minute {
		t.Fatalf("created time %v not recent", e.Created)
	}

	valid, bad, err := d.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if valid != 1 || len(bad) != 0 {
		t.Fatalf("verify: %d valid, %d bad", valid, len(bad))
	}
}

func TestSecondOpenSeesEntries(t *testing.T) {
	d := mustOpen(t)
	k := testKey("hmmer", 1)
	d.Put(k, testStats(5), time.Second)

	d2, err := Open(d.Dir())
	if err != nil {
		t.Fatal(err)
	}
	got, ok := d2.Get(k)
	if !ok || got.Cycles != testStats(5).Cycles {
		t.Fatal("fresh store handle misses persisted entry")
	}
}

// TestCorruptionIsAMiss: truncated and bit-flipped entries must be reported
// as (stale) misses, never as errors, and Verify must flag them.
func TestCorruptionIsAMiss(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(raw []byte) []byte
	}{
		{"truncated", func(raw []byte) []byte { return raw[:len(raw)/2] }},
		{"empty", func(raw []byte) []byte { return nil }},
		{"bitflip-json", func(raw []byte) []byte {
			out := bytes.Clone(raw)
			out[0] ^= 0x20 // breaks the JSON framing
			return out
		}},
		{"bitflip-stats", func(raw []byte) []byte {
			// Flip one digit inside the stats payload, keeping the JSON
			// valid: the checksum must catch it.
			out := bytes.Clone(raw)
			i := bytes.Index(out, []byte(`"Cycles":`))
			if i < 0 {
				t.Fatal("no Cycles field in envelope")
			}
			for j := i + len(`"Cycles":`); j < len(out); j++ {
				if out[j] >= '0' && out[j] <= '9' {
					out[j] = '0' + ('9'-out[j]+'0')%10 // any different digit
					if out[j] == raw[j] {
						out[j] = '1'
					}
					break
				}
			}
			return out
		}},
		{"wrong-schema", func(raw []byte) []byte {
			return bytes.Replace(raw, []byte(`{"schema":1`), []byte(`{"schema":9`), 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := mustOpen(t)
			k := testKey("mcf", 9)
			d.Put(k, testStats(2), time.Second)
			path := entryPath(d, k)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			if st, ok := d.Get(k); ok {
				t.Fatalf("corrupt entry served as a hit: %+v", st)
			}
			c := d.Counters()
			if c.Stale != 1 || c.Misses != 1 {
				t.Fatalf("counters = %+v, want 1 stale / 1 miss", c)
			}

			valid, bad, err := d.Verify()
			if err != nil {
				t.Fatal(err)
			}
			if valid != 0 || len(bad) != 1 {
				t.Fatalf("verify: %d valid / %d bad, want 0/1", valid, len(bad))
			}

			// A rewrite heals the entry.
			d.Put(k, testStats(2), time.Second)
			if _, ok := d.Get(k); !ok {
				t.Fatal("rewritten entry still missing")
			}
		})
	}
}

// TestMisplacedEntryRejected: an entry renamed onto another key's path must
// not be served for that key.
func TestMisplacedEntryRejected(t *testing.T) {
	d := mustOpen(t)
	ka, kb := testKey("mcf", 1), testKey("mcf", 2)
	d.Put(ka, testStats(1), time.Second)

	pb := entryPath(d, kb)
	if err := os.MkdirAll(filepath.Dir(pb), 0o755); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(entryPath(d, ka))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(pb, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := d.Get(kb); ok {
		t.Fatal("entry for key A served under key B")
	}
	_, bad, err := d.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 1 {
		t.Fatalf("verify flagged %d entries, want 1 (misplaced)", len(bad))
	}
}

// TestConcurrentWriters: two stores (as two pools or processes would hold)
// hammering one directory with overlapping keys must never error, and the
// directory must verify clean afterwards.
func TestConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	d1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	const keys = 16
	var wg sync.WaitGroup
	for _, d := range []*Disk{d1, d2} {
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 50; i++ {
					k := testKey("gcc", int64(i%keys))
					d.Put(k, testStats(uint64(i%keys)), time.Millisecond)
					if st, ok := d.Get(k); ok && st.DRAMReads != uint64(i%keys) {
						t.Errorf("key %d served foreign stats", i%keys)
					}
				}
			}()
		}
	}
	wg.Wait()

	for _, d := range []*Disk{d1, d2} {
		if err := d.Err(); err != nil {
			t.Fatal(err)
		}
	}
	valid, bad, err := d1.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) != 0 || valid != keys {
		t.Fatalf("after concurrent writes: %d valid / %d bad, want %d/0", valid, len(bad), keys)
	}
	// No tmp litter left behind.
	litter, _ := filepath.Glob(filepath.Join(dir, "v1", "*", ".tmp-*"))
	if len(litter) != 0 {
		t.Fatalf("tmp files left behind: %v", litter)
	}
}

func TestPruneByAge(t *testing.T) {
	d := mustOpen(t)
	now := time.Now()
	d.now = func() time.Time { return now.Add(-48 * time.Hour) }
	d.Put(testKey("old", 1), testStats(1), time.Second)
	d.now = func() time.Time { return now }
	d.Put(testKey("new", 1), testStats(2), time.Second)

	removed, freed, err := d.Prune(PruneOptions{MaxAge: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 || freed == 0 {
		t.Fatalf("prune removed %d (%d bytes), want 1", removed, freed)
	}
	if _, ok := d.Get(testKey("old", 1)); ok {
		t.Fatal("old entry survived age prune")
	}
	if _, ok := d.Get(testKey("new", 1)); !ok {
		t.Fatal("young entry did not survive age prune")
	}
}

func TestPruneBySize(t *testing.T) {
	d := mustOpen(t)
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 8; i++ {
		// Distinct, increasing creation times: oldest must go first.
		created := base.Add(time.Duration(i) * time.Minute)
		d.now = func() time.Time { return created }
		d.Put(testKey("mcf", int64(i)), testStats(uint64(i)), time.Second)
	}
	// Budget for exactly the three newest entries (sizes vary by a few
	// digits, so sum the real ones).
	var keep int64
	if err := d.Scan(func(e Entry) error {
		if e.Key.Seed >= 5 {
			keep += e.Size
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	removed, _, err := d.Prune(PruneOptions{MaxBytes: keep})
	if err != nil {
		t.Fatal(err)
	}
	if removed != 5 {
		t.Fatalf("prune removed %d entries, want 5", removed)
	}
	// The survivors are the three newest.
	for i := 0; i < 8; i++ {
		_, ok := d.Get(testKey("mcf", int64(i)))
		if want := i >= 5; ok != want {
			t.Fatalf("entry %d: present=%v, want %v", i, ok, want)
		}
	}
}

func TestPruneCollectsStaleTmp(t *testing.T) {
	d := mustOpen(t)
	fan := filepath.Join(d.Dir(), version, "ab")
	if err := os.MkdirAll(fan, 0o755); err != nil {
		t.Fatal(err)
	}
	stale := filepath.Join(fan, ".tmp-crashed")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Prune(PruneOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Fatal("abandoned tmp file not collected")
	}
}

func TestExportImport(t *testing.T) {
	src := mustOpen(t)
	keys := []runner.Key{testKey("mcf", 1), testKey("hmmer", 2), testKey("wrf", 3)}
	for i, k := range keys {
		src.Put(k, testStats(uint64(i+1)), time.Second)
	}

	var bundle bytes.Buffer
	n, err := src.Export(&bundle)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(keys) {
		t.Fatalf("exported %d entries, want %d", n, len(keys))
	}

	dst := mustOpen(t)
	dst.Put(keys[0], testStats(1), time.Second) // pre-existing → skipped
	imported, skipped, rejected, err := dst.Import(bytes.NewReader(bundle.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if imported != 2 || skipped != 1 || rejected != 0 {
		t.Fatalf("import = %d/%d/%d, want 2 imported / 1 skipped / 0 rejected", imported, skipped, rejected)
	}
	for i, k := range keys {
		st, ok := dst.Get(k)
		if !ok || st.DRAMReads != uint64(i+1) {
			t.Fatalf("key %d missing or wrong after import", i)
		}
	}

	// Importing over a corrupt local entry heals it from the bundle's
	// good copy instead of "skipping" the damage.
	victim := entryPath(dst, keys[1])
	if err := os.Truncate(victim, 10); err != nil {
		t.Fatal(err)
	}
	imported, skipped, rejected, err = dst.Import(bytes.NewReader(bundle.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if imported != 1 || skipped != 2 || rejected != 0 {
		t.Fatalf("healing import = %d/%d/%d, want 1 imported / 2 skipped / 0 rejected", imported, skipped, rejected)
	}
	if st, ok := dst.Get(keys[1]); !ok || st.DRAMReads != 2 {
		t.Fatal("corrupt entry not healed by import")
	}

	// A corrupted bundle member is rejected, not installed. The tampering
	// is length-preserving so the tar framing stays intact; sha256 hex
	// never contains 'z', so the checksum cannot match.
	tampered := bytes.Clone(bundle.Bytes())
	i := bytes.Index(tampered, []byte(`"stats_sha256":"`))
	if i < 0 {
		t.Fatal("no checksum field in bundle")
	}
	i += len(`"stats_sha256":"`)
	tampered[i], tampered[i+1] = 'z', 'z'
	empty := mustOpen(t)
	imported, _, rejected, err = empty.Import(bytes.NewReader(tampered))
	if err != nil {
		t.Fatal(err)
	}
	if rejected != 1 || imported != len(keys)-1 {
		t.Fatalf("tampered import = %d imported / %d rejected, want %d/1", imported, rejected, len(keys)-1)
	}
}

// TestOversizedEnvelopesRejected: a bundle member or an entry file larger
// than any envelope the store writes is refused without being read whole.
func TestOversizedEnvelopesRejected(t *testing.T) {
	const huge = 4 << 20
	k := testKey("mcf", 1)
	id := ID(k)
	var bundle bytes.Buffer
	tw := tar.NewWriter(&bundle)
	if err := tw.WriteHeader(&tar.Header{Name: "v1/" + id[:2] + "/" + id + ".json", Mode: 0o644, Size: huge}); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Write(bytes.Repeat([]byte{' '}, huge)); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	d := mustOpen(t)
	before := totalAlloc()
	imported, skipped, rejected, err := d.Import(bytes.NewReader(bundle.Bytes()))
	allocated := totalAlloc() - before
	if err != nil {
		t.Fatal(err)
	}
	if imported != 0 || skipped != 0 || rejected != 1 {
		t.Fatalf("import = %d/%d/%d, want 0 imported / 0 skipped / 1 rejected", imported, skipped, rejected)
	}
	if _, err := os.Stat(entryPath(d, k)); !os.IsNotExist(err) {
		t.Fatalf("oversized member installed: %v", err)
	}
	if allocated >= 1<<20 {
		t.Fatalf("importing a %d-byte member allocated %d bytes, want < 1 MiB", huge, allocated)
	}

	// The same bytes as an entry file: a stale miss, and a Verify reject.
	if err := os.MkdirAll(filepath.Dir(entryPath(d, k)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entryPath(d, k), bytes.Repeat([]byte{' '}, huge), 0o644); err != nil {
		t.Fatal(err)
	}
	before = totalAlloc()
	_, ok := d.Get(k)
	allocated = totalAlloc() - before
	if ok || d.Counters().Stale != 1 {
		t.Fatalf("oversized entry: hit %v, counters %+v; want a stale miss", ok, d.Counters())
	}
	if allocated >= 1<<20 {
		t.Fatalf("reading a %d-byte entry file allocated %d bytes, want < 1 MiB", huge, allocated)
	}
	if _, err := d.LoadRaw(id); !errors.Is(err, errOversized) {
		t.Fatalf("LoadRaw of an oversized entry: %v, want errOversized", err)
	}
	if valid, bad, err := d.Verify(); err != nil || valid != 0 || len(bad) != 1 || !errors.Is(bad[0].Reason, errOversized) {
		t.Fatalf("Verify = %d valid, %v, %v; want the oversized entry rejected", valid, bad, err)
	}
}

// TestReadEnvelopeDoesNotAllocate: once the pooled buffer has grown, reading
// an envelope allocates nothing, the limited reader included.
func TestReadEnvelopeDoesNotAllocate(t *testing.T) {
	raw := bytes.Repeat([]byte{'x'}, 1<<10)
	r := bytes.NewReader(raw)
	buf := new(envBuf)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(raw)
		if err := readEnvelope(buf, r); err != nil || buf.Len() != len(raw) {
			t.Fatalf("readEnvelope = %v, %d bytes; want %d", err, buf.Len(), len(raw))
		}
	})
	if allocs != 0 {
		t.Fatalf("readEnvelope allocated %v times per read, want 0", allocs)
	}
}

// totalAlloc returns the bytes allocated by the process so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// TestTieredIncremental is the unit-level form of the CI incrementality
// check: a second pool over a fresh tiered store on the same directory must
// perform zero simulations and reproduce identical stats.
func TestTieredIncremental(t *testing.T) {
	dir := t.TempDir()
	jobs := smallJobs()

	d1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t1 := NewTiered(d1, false)
	sched1 := runner.NewScheduler(runner.SchedulerOptions{Parallelism: 4, Store: t1})
	res1, err := sched1.RunBatch(t.Context(), runner.Batch{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	if c := t1.Counters(); c.Misses != uint64(len(jobs)) || c.Hits != 0 {
		t.Fatalf("cold run counters = %+v", c)
	}

	// Fresh process: new Disk, new Tiered, same directory.
	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t2 := NewTiered(d2, false)
	sched2 := runner.NewScheduler(runner.SchedulerOptions{Parallelism: 4, Store: t2})
	res2, err := sched2.RunBatch(t.Context(), runner.Batch{Jobs: jobs})
	if err != nil {
		t.Fatal(err)
	}
	c := t2.Counters()
	if c.Misses != 0 || c.Stale != 0 {
		t.Fatalf("warm run simulated: counters = %+v, want 0 misses", c)
	}
	if c.Hits != uint64(len(jobs)) {
		t.Fatalf("warm run hits = %d, want %d", c.Hits, len(jobs))
	}

	for i := range res1 {
		a, _ := json.Marshal(res1[i].Stats)
		b, _ := json.Marshal(res2[i].Stats)
		if !bytes.Equal(a, b) {
			t.Fatalf("job %d: warm stats differ from cold", i)
		}
	}
}

// TestTieredReadOnly: ro mode serves disk hits but never writes the
// directory.
func TestTieredReadOnly(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := testKey("mcf", 1)
	d.Put(k, testStats(1), time.Second)

	ro := NewTiered(mustReopen(t, dir), true)
	if _, ok := ro.Get(k); !ok {
		t.Fatal("ro store missed a persisted entry")
	}
	k2 := testKey("mcf", 2)
	ro.Put(k2, testStats(2), time.Second)
	if _, ok := ro.Get(k2); !ok {
		t.Fatal("ro store lost the in-memory tier")
	}
	if _, ok := mustReopen(t, dir).Get(k2); ok {
		t.Fatal("ro store wrote to disk")
	}
}

func mustReopen(t *testing.T, dir string) *Disk {
	t.Helper()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestMount: flag-pair interpretation.
func TestMount(t *testing.T) {
	if _, _, err := Mount("", "bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
	st, disk, err := Mount("", "off")
	if err != nil || disk != nil || st == nil {
		t.Fatalf("off mode: %v/%v/%v", st, disk, err)
	}
	dir := t.TempDir()
	st, disk, err = Mount(dir, "rw")
	if err != nil || disk == nil {
		t.Fatalf("rw mode: %v", err)
	}
	k := testKey("mcf", 1)
	st.Put(k, testStats(1), time.Second)
	if _, ok := mustReopen(t, dir).Get(k); !ok {
		t.Fatal("rw mount did not persist")
	}

	// ro mode must not touch the filesystem, even for a directory that
	// does not exist yet — lookups just miss.
	missing := filepath.Join(t.TempDir(), "never-created")
	st, _, err = Mount(missing, "ro")
	if err != nil {
		t.Fatalf("ro mode on missing dir: %v", err)
	}
	if _, ok := st.Get(k); ok {
		t.Fatal("hit from a nonexistent directory")
	}
	st.Put(k, testStats(1), time.Second)
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatal("ro mount created or wrote the directory")
	}
}

// smallJobs is a tiny but real job grid (two benchmarks × two configs).
func smallJobs() []runner.Job {
	base := config.TableI()
	cfgs := []*config.Config{base, base.WithMoveElim()}
	var jobs []runner.Job
	for _, bench := range []string{"mcf", "hmmer"} {
		for _, cfg := range cfgs {
			jobs = append(jobs, runner.Job{Bench: bench, Config: cfg, Seed: 1, Warmup: 2_000, Measure: 4_000})
		}
	}
	return jobs
}

// TestStoreKeyStability pins the content address derivation: changing it
// silently would orphan every existing cache directory.
func TestStoreKeyStability(t *testing.T) {
	k := runner.Key{Bench: "mcf", ConfigHash: "00ff", Seed: 3, Warmup: 10, Measure: 20}
	id := ID(k)
	if len(id) != 64 || strings.ToLower(id) != id {
		t.Fatalf("ID %q not a lowercase sha256 hex", id)
	}
	if ID(k) != id {
		t.Fatal("ID not deterministic")
	}
	k2 := k
	k2.Seed = 4
	if ID(k2) == id {
		t.Fatal("seed does not affect ID")
	}
	for _, c := range []struct {
		k  runner.Key
		id string
	}{
		{k, "454f120e20f88eb3f5d605b59afb798fb60e88c79f26df0c52a5d6851f566e14"},
		{runner.Key{Bench: "hmmer", ConfigHash: "c0ffee", Seed: -7, Warmup: 30_000, Measure: 1 << 63}, "b4e276e1b382a8e51e2c3ee062fae2d38a476902b9879c0c72bc33dc038b207c"},
	} {
		if got := ID(c.k); got != c.id {
			t.Errorf("ID(%+v) = %s, want %s", c.k, got, c.id)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = ID(k) }); n > 1 {
		t.Errorf("ID allocates %v times, want 1 (the id)", n)
	}
}

// TestTieredWarm: Warm preloads every disk entry into the memory tier
// without touching the lookup counters, so subsequent Gets are memory hits.
func TestTieredWarm(t *testing.T) {
	d := mustOpen(t)
	for i := int64(0); i < 5; i++ {
		d.Put(testKey("mcf", i), testStats(uint64(i+1)), time.Second)
	}
	if err := d.Err(); err != nil {
		t.Fatal(err)
	}

	ti := NewTiered(d, false)
	entries, bytes, err := ti.Warm()
	if err != nil {
		t.Fatal(err)
	}
	if entries != 5 || bytes <= 0 {
		t.Fatalf("warm loaded %d entries / %d bytes, want 5 / >0", entries, bytes)
	}
	if c := ti.Counters(); c != (runner.Counters{}) {
		t.Fatalf("warm-up moved the counters: %+v", c)
	}

	// Every key must now be a memory hit: damage the disk tier and look up.
	for i := int64(0); i < 5; i++ {
		if err := os.Remove(entryPath(d, testKey("mcf", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 5; i++ {
		st, ok := ti.Get(testKey("mcf", i))
		if !ok {
			t.Fatalf("key %d not served from the warmed memory tier", i)
		}
		if st.Cycles != 100*uint64(i+1) {
			t.Fatalf("key %d: warmed entry has wrong stats", i)
		}
	}
	c := ti.Counters()
	if c.Hits != 5 || c.Misses != 0 || c.Stale != 0 {
		t.Fatalf("counters = %+v, want 5 hits / 0 misses / 0 stale", c)
	}

	// Warming a corrupt entry skips it, Get-style.
	d2 := mustOpen(t)
	d2.Put(testKey("hmmer", 1), testStats(1), time.Second)
	d2.Put(testKey("hmmer", 2), testStats(2), time.Second)
	if err := os.Truncate(entryPath(d2, testKey("hmmer", 2)), 10); err != nil {
		t.Fatal(err)
	}
	ti2 := NewTiered(d2, false)
	entries, _, err = ti2.Warm()
	if err != nil {
		t.Fatal(err)
	}
	if entries != 1 {
		t.Fatalf("warm loaded %d entries from a half-corrupt store, want 1", entries)
	}
}

// TestTieredConcurrent hammers one Tiered store with concurrent Get/Put from
// many goroutines (run under -race in CI) and asserts the counters stay
// consistent: every Get is accounted as exactly one hit or one miss.
func TestTieredConcurrent(t *testing.T) {
	ti := NewTiered(mustOpen(t), false)

	const (
		workers = 8
		keys    = 16
		rounds  = 40
	)
	var wg sync.WaitGroup
	var gets atomic.Uint64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				k := testKey("bzip2", int64((w*rounds+r)%keys))
				if st, ok := ti.Get(k); ok {
					if st.Committed == 0 {
						t.Error("hit returned zero-value stats")
					}
				} else {
					ti.Put(k, testStats(uint64(k.Seed)+1), time.Millisecond)
				}
				gets.Add(1)
			}
		}(w)
	}
	wg.Wait()

	c := ti.Counters()
	if c.Hits+c.Misses != gets.Load() {
		t.Fatalf("hits(%d) + misses(%d) != gets(%d): a lookup went unaccounted",
			c.Hits, c.Misses, gets.Load())
	}
	if c.Stale != 0 {
		t.Fatalf("stale = %d on an undamaged store", c.Stale)
	}
	if c.Hits == 0 || c.Misses == 0 {
		t.Fatalf("degenerate interleaving: %d hits / %d misses", c.Hits, c.Misses)
	}
	if err := ti.Disk().Err(); err != nil {
		t.Fatal(err)
	}

	// Every key is now on disk exactly once and valid.
	valid, bad, err := ti.Disk().Verify()
	if err != nil {
		t.Fatal(err)
	}
	if valid != keys || len(bad) != 0 {
		t.Fatalf("verify: %d valid / %d bad, want %d / 0", valid, len(bad), keys)
	}
}

// TestLoadRaw: the serving read path returns the exact envelope bytes,
// rejects damage and malformed ids, and reports absence as IsNotExist.
func TestLoadRaw(t *testing.T) {
	d := mustOpen(t)
	k := testKey("mcf", 3)
	d.Put(k, testStats(2), time.Second)

	id := ID(k)
	raw, err := d.LoadRaw(id)
	if err != nil {
		t.Fatal(err)
	}
	onDisk, err := os.ReadFile(entryPath(d, k))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, onDisk) {
		t.Fatal("LoadRaw bytes differ from the entry file")
	}
	var env map[string]any
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatalf("LoadRaw bytes are not a JSON envelope: %v", err)
	}

	if _, err := d.LoadRaw(ID(testKey("mcf", 99))); !os.IsNotExist(err) {
		t.Fatalf("missing entry: err = %v, want IsNotExist", err)
	}
	for _, bad := range []string{"", "abc", strings.ToUpper(id), strings.Repeat("z", 64), "../../etc/passwd"} {
		if _, err := d.LoadRaw(bad); err == nil || os.IsNotExist(err) {
			t.Fatalf("malformed id %q: err = %v, want validation error", bad, err)
		}
	}

	// A truncated entry must be rejected, not relayed.
	if err := os.Truncate(entryPath(d, k), 10); err != nil {
		t.Fatal(err)
	}
	if _, err := d.LoadRaw(id); err == nil {
		t.Fatal("LoadRaw relayed a truncated entry")
	}

	// LoadRaw leaves the counters alone.
	if c := d.Counters(); c != (runner.Counters{}) {
		t.Fatalf("serving reads moved the lookup counters: %+v", c)
	}
}
