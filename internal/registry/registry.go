// Package registry is the multi-architecture model registry behind
// `spmvselect serve -models`: it hosts one live serve.Artifact per
// target architecture (the paper's per-GPU models — Pascal, Volta,
// Turing — deployed side by side), hot-swaps them atomically from disk
// with content-hash change detection (explicit reload or SIGHUP, both
// idempotent), and evaluates shadow candidates against the live model
// on production traffic before promotion — the serving analogue of the
// paper's transfer-with-retraining experiments (Tables 6-7): a model
// retrained for new hardware earns its place by agreeing with (or
// measurably beating) the incumbent on real requests, not by fiat.
//
// The registry implements serve.Backend and serve.AdminBackend; the
// HTTP layer stays in internal/serve. Activity lands in the obs
// registry:
//
//	registry/swaps            counter  entries hot-swapped (reload or promote)
//	registry/reloads          counter  reload sweeps executed
//	registry/promotes         counter  shadow candidates promoted to live
//	registry/load_errors      counter  artifact loads that failed
//	registry/shadow/scored    counter  live-vs-candidate comparisons recorded
//	registry/shadow/agree     counter  comparisons where both picked the same label
//	registry/shadow/disagree  counter  comparisons where they differed
package registry

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/serve"
)

// Entry is one loaded artifact: the model plus the identity that makes
// swaps observable (content hash) and reproducible (source path).
type Entry struct {
	Artifact *serve.Artifact
	// Hash is the content hash of the artifact file, the version every
	// response carries and every reload compares against.
	Hash string
	// Path is the file the entry was loaded from.
	Path string
}

// model is the entry as the serving layer sees it under arch.
func (e *Entry) model(arch string) serve.LiveModel {
	return serve.LiveModel{Arch: arch, Hash: e.Hash, Source: e.Path, Artifact: e.Artifact}
}

// slot is one configured position (live or shadow) for an arch: where
// to load from, what is currently installed, and the last load error.
type slot struct {
	path  string // "" for a pushed candidate, which Reload skips
	entry *Entry // nil until the first successful load
	err   error  // last load failure (a failed reload keeps the old entry)
}

// hash is the installed entry's content hash, "" before the first load.
func (s *slot) hash() string {
	if s.entry == nil {
		return ""
	}
	return s.entry.Hash
}

// archState is everything the registry keeps for one configured arch:
// the live slot, the optional shadow candidate with its tallies, and
// the drift and quality windows of the live model's traffic. Its fields
// change only under the registry's write lock, and a swap replaces the
// tallies and windows instead of clearing them, so a copy taken under
// the read lock stays coherent: the request path records into the
// copy's tallies and windows without holding the lock, and a record
// racing a swap lands in the discarded ones.
type archState struct {
	arch string // the normalized name it is configured under
	live slot
	cand slot // the shadow candidate, present while stats is non-nil
	// stats compares the candidate with the live model; nil when no
	// candidate is configured or pushed.
	stats   *ShadowStats
	drift   *driftState   // nil while the live artifact has no baseline
	quality *qualityState // nil until the live slot first loads
}

// setLive installs e as the live model. It is the one place a live
// model changes, for Reload and Promote alike: the shadow tallies
// restart, since they compared the replaced model, and the drift and
// quality windows are rebuilt for the new model's baseline and formats.
// The caller holds the registry's write lock.
func (st *archState) setLive(e *Entry) {
	st.live.entry, st.live.err = e, nil
	if st.stats != nil {
		st.stats = new(ShadowStats)
	}
	st.drift = newDriftState(e.Artifact.Baseline)
	st.quality = newQualityState(e.Artifact.Formats)
}

// setCandidate installs s as the shadow candidate with fresh tallies.
func (st *archState) setCandidate(s slot) {
	st.cand, st.stats = s, new(ShadowStats)
}

// slot returns the live slot, or the candidate's (nil without one).
func (st *archState) slot(shadow bool) *slot {
	switch {
	case !shadow:
		return &st.live
	case st.stats == nil:
		return nil
	}
	return &st.cand
}

// Registry is a concurrency-safe, versioned collection of named
// artifacts keyed by target architecture. All reads (request routing)
// take a read lock; swaps are atomic under the write lock, so a
// request observes either the old or the new model, never a mix.
type Registry struct {
	mu     sync.RWMutex
	def    string // default arch ("" until set or first Configure)
	state  map[string]*archState
	onSwap []func()

	swaps      *obs.Counter
	reloads    *obs.Counter
	promotes   *obs.Counter
	loadErrors *obs.Counter
}

// The registry satisfies both serving interfaces.
var (
	_ serve.Backend      = (*Registry)(nil)
	_ serve.AdminBackend = (*Registry)(nil)
)

// New returns an empty registry. Configure architectures, then LoadAll.
func New() *Registry {
	return &Registry{
		state:      map[string]*archState{},
		swaps:      obs.Default.Counter("registry/swaps"),
		reloads:    obs.Default.Counter("registry/reloads"),
		promotes:   obs.Default.Counter("registry/promotes"),
		loadErrors: obs.Default.Counter("registry/load_errors"),
	}
}

// lookupLocked resolves arch, normalized and with "" selecting the
// default, to its state (nil when unconfigured). The caller holds r.mu.
func (r *Registry) lookupLocked(arch string) (string, *archState) {
	a := serve.NormalizeArch(arch)
	if a == "" {
		a = r.def
	}
	return a, r.state[a]
}

// current resolves arch and copies its state under the read lock; ok is
// false for an unconfigured arch.
func (r *Registry) current(arch string) (archState, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if _, st := r.lookupLocked(arch); st != nil {
		return *st, true
	}
	return archState{}, false
}

// snapshot copies the default arch and every arch's state, sorted by
// arch, under the read lock; reports and listings then read the copies
// without holding it.
func (r *Registry) snapshot() (def string, arches []archState) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	arches = make([]archState, 0, len(r.state))
	for _, st := range r.state {
		arches = append(arches, *st)
	}
	sort.Slice(arches, func(i, j int) bool { return arches[i].arch < arches[j].arch })
	return r.def, arches
}

// Configure declares a live slot: arch will be served from the artifact
// at path once LoadAll (or Reload) has read it. The first configured
// arch becomes the default until SetDefault overrides it.
func (r *Registry) Configure(arch, path string) error {
	a := serve.NormalizeArch(arch)
	if a == "" {
		return fmt.Errorf("registry: empty architecture name")
	}
	if path == "" {
		return fmt.Errorf("registry: empty artifact path for %q", a)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.state[a]; dup {
		return fmt.Errorf("registry: architecture %q configured twice", a)
	}
	r.state[a] = &archState{arch: a, live: slot{path: path}}
	if r.def == "" {
		r.def = a
	}
	return nil
}

// ConfigureShadow declares a shadow candidate for an already-configured
// arch ("" selects the default). Every request the live model answers
// is also scored by the candidate, and the tallies feed ShadowReport.
func (r *Registry) ConfigureShadow(arch, path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, st := r.lookupLocked(arch)
	switch {
	case path == "":
		return fmt.Errorf("registry: empty shadow artifact path for %q", a)
	case st == nil:
		return fmt.Errorf("registry: shadow for unconfigured architecture %q", a)
	case st.stats != nil:
		return fmt.Errorf("registry: shadow for %q configured twice", a)
	}
	st.setCandidate(slot{path: path})
	return nil
}

// InstallShadow installs artifact bytes pushed over the wire as arch's
// shadow candidate ("" selects the default arch) — the receiving end of
// a fleet rollout. The bytes are decoded before anything is replaced
// (a corrupt push leaves the current candidate serving). The candidate
// lives only in memory: its slot has no path, so Reload leaves it alone
// (bytes already decoded cannot change) and its Source is empty, also
// once promoted. Re-pushing the bytes already installed is a no-op
// (content-hash idempotent, like Reload); pushing different bytes
// replaces the candidate and resets its tallies. Returns the registry's
// own content hash of the received bytes.
func (r *Registry) InstallShadow(arch string, data []byte) (string, error) {
	hash := serve.HashBytes(data)
	art, err := serve.Load(bytes.NewReader(data))
	if err != nil {
		return "", fmt.Errorf("registry: decoding pushed candidate: %w", err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	_, st := r.lookupLocked(arch)
	if st == nil {
		return "", fmt.Errorf("registry: %w %q", serve.ErrUnknownArch, arch)
	}
	if st.stats != nil && st.cand.hash() == hash {
		return hash, nil
	}
	st.setCandidate(slot{entry: &Entry{Artifact: art, Hash: hash}})
	return hash, nil
}

// SetDefault selects the arch serving requests that name none. It must
// already be configured.
func (r *Registry) SetDefault(arch string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	a, st := r.lookupLocked(arch)
	if st == nil {
		return fmt.Errorf("registry: default architecture %q is not configured", a)
	}
	r.def = a
	return nil
}

// OnSwap registers fn to run after every swap (reload that changed
// something, or promotion).
func (r *Registry) OnSwap(fn func()) {
	r.mu.Lock()
	r.onSwap = append(r.onSwap, fn)
	r.mu.Unlock()
}

// fireSwapHooks runs the registered hooks outside the registry lock.
func (r *Registry) fireSwapHooks() {
	r.mu.RLock()
	hooks := append([]func(){}, r.onSwap...)
	r.mu.RUnlock()
	for _, fn := range hooks {
		fn()
	}
}

// LoadAll loads every configured live and shadow artifact from disk.
// It is Reload without the idempotence short-cut mattering (nothing is
// loaded yet); any failure is returned (joined) and leaves the failed
// slots unloaded, which /readyz reports.
func (r *Registry) LoadAll() error {
	_, err := r.Reload()
	return err
}

// loadTarget is one slot scheduled for (re)loading, snapshotted outside
// the lock so file I/O never blocks request routing.
type loadTarget struct {
	arch    string
	name    string // "arch" or "shadow:arch", the Reload changed-list entry
	shadow  bool
	path    string
	oldHash string
}

// Reload re-reads every configured artifact from its source path,
// hot-swapping exactly the entries whose file content hash changed and
// returning their names ("arch" for live entries, "shadow:arch" for
// candidates). Pushed candidates, live or shadow, have no path and are
// skipped. Unchanged files are not re-decoded and not swapped, so
// repeated reloads are idempotent; a file that fails to read or decode
// keeps the previous entry (if any) and contributes to the joined
// error. Shadow tallies reset for an arch whose live model or candidate
// swapped — the old comparison no longer describes the new pair.
func (r *Registry) Reload() (changed []string, err error) {
	r.reloads.Inc()

	var targets []loadTarget
	r.mu.RLock()
	for a, st := range r.state {
		for _, t := range [2]loadTarget{{arch: a, name: a}, {arch: a, name: "shadow:" + a, shadow: true}} {
			if s := st.slot(t.shadow); s != nil && s.path != "" {
				t.path, t.oldHash = s.path, s.hash()
				targets = append(targets, t)
			}
		}
	}
	r.mu.RUnlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].name < targets[j].name })

	// Read and decode outside the lock: routing continues on the old
	// entries while files load.
	type loaded struct {
		entry *Entry // nil when unchanged
		err   error
	}
	results := make([]loaded, len(targets))
	for i, t := range targets {
		entry, fresh, lerr := loadEntry(t.path, t.oldHash)
		if fresh {
			results[i].entry = entry
		}
		results[i].err = lerr
	}

	var errs []error
	r.mu.Lock()
	for i, t := range targets {
		st := r.state[t.arch] // arches are never removed
		s := st.slot(t.shadow)
		if s == nil || s.path != t.path {
			// The slot was promoted, replaced or reconfigured while we
			// read the file; its content, or failure, no longer
			// describes this slot.
			continue
		}
		if err := results[i].err; err != nil {
			// A failed reload keeps the old entry; /readyz reports it.
			r.loadErrors.Inc()
			s.err = err
			errs = append(errs, fmt.Errorf("%s: %w", t.name, err))
			continue
		}
		entry := results[i].entry
		if entry == nil {
			continue
		}
		changed = append(changed, t.name)
		if t.shadow {
			st.setCandidate(slot{path: t.path, entry: entry})
		} else {
			st.setLive(entry)
		}
	}
	r.mu.Unlock()

	if len(changed) > 0 {
		r.swaps.Add(int64(len(changed)))
		r.fireSwapHooks()
	}
	return changed, errors.Join(errs...)
}

// loadEntry reads one artifact file. When its content hash equals
// oldHash the file is not decoded and fresh is false — the caller keeps
// the installed entry.
func loadEntry(path, oldHash string) (entry *Entry, fresh bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("reading artifact: %w", err)
	}
	hash := serve.HashBytes(data)
	if oldHash != "" && hash == oldHash {
		return nil, false, nil
	}
	art, err := serve.Load(bytes.NewReader(data))
	if err != nil {
		return nil, false, err
	}
	return &Entry{Artifact: art, Hash: hash, Path: path}, true, nil
}

// Promote atomically flips arch's shadow candidate to live: the
// candidate becomes the serving entry, its file (none for a pushed
// candidate) becomes the slot's reload source, the shadow slot
// disappears and its tallies with it. Returns the new live hash.
func (r *Registry) Promote(arch string) (string, error) {
	r.mu.Lock()
	a, st := r.lookupLocked(arch)
	var err error
	switch {
	case st == nil:
		err = fmt.Errorf("registry: %w %q", serve.ErrUnknownArch, arch)
	case st.stats == nil:
		err = fmt.Errorf("registry: no shadow candidate registered for %q", a)
	case st.cand.entry == nil:
		err = fmt.Errorf("registry: shadow candidate for %q is not loaded", a)
	}
	if err != nil {
		r.mu.Unlock()
		return "", err
	}
	c := st.cand
	st.cand, st.stats = slot{}, nil
	st.live.path = c.path
	st.setLive(c.entry)
	r.mu.Unlock()

	r.promotes.Inc()
	r.swaps.Inc()
	r.fireSwapHooks()
	return c.entry.Hash, nil
}

// ---------------------------------------------------------------------
// serve.Backend.

// DefaultArch returns the arch serving requests that name none.
func (r *Registry) DefaultArch() string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.def
}

// Arches lists the configured live architectures, sorted.
func (r *Registry) Arches() []string {
	_, arches := r.snapshot()
	out := make([]string, len(arches))
	for i, s := range arches {
		out[i] = s.arch
	}
	return out
}

// Live resolves arch ("" selects the default) to its serving model and,
// in the same lookup, the loaded shadow candidate if there is one.
func (r *Registry) Live(arch string) (serve.LiveModel, error) {
	st, ok := r.current(arch)
	if !ok {
		return serve.LiveModel{}, fmt.Errorf("registry: %w %q (serving: %v)",
			serve.ErrUnknownArch, arch, r.Arches())
	}
	if st.live.entry == nil {
		return serve.LiveModel{}, notLoadedErr(st.arch, &st.live)
	}
	lm := st.live.entry.model(st.arch)
	if st.stats != nil && st.cand.entry != nil {
		cm := st.cand.entry.model(st.arch)
		lm.Candidate = &cm
	}
	return lm, nil
}

// Ready returns nil once every configured live and shadow artifact has
// loaded, and otherwise an error naming a slot that has not.
func (r *Registry) Ready() error {
	_, arches := r.snapshot()
	if len(arches) == 0 {
		return fmt.Errorf("registry: no architectures configured")
	}
	for _, s := range arches {
		if s.live.entry == nil {
			return notLoadedErr(s.arch, &s.live)
		}
		if s.stats != nil && s.cand.entry == nil {
			return notLoadedErr("shadow:"+s.arch, &s.cand)
		}
	}
	return nil
}

// notLoadedErr explains why slot name has no entry.
func notLoadedErr(name string, s *slot) error {
	if s.err != nil {
		return fmt.Errorf("registry: %w: %s failed to load: %v", serve.ErrNotLoaded, name, s.err)
	}
	return fmt.Errorf("registry: %w: %s still loading", serve.ErrNotLoaded, name)
}

// Status reports the per-arch load state, sorted by arch.
func (r *Registry) Status() []serve.ArchStatus {
	def, arches := r.snapshot()
	out := make([]serve.ArchStatus, 0, len(arches))
	for _, s := range arches {
		st := serve.ArchStatus{
			Arch: s.arch, Default: s.arch == def, Source: s.live.path,
			Loaded: s.live.entry != nil, Hash: s.live.hash(),
		}
		if s.live.err != nil {
			st.Error = s.live.err.Error()
		}
		if s.stats != nil {
			st.Shadow, st.ShadowHash = true, s.cand.hash()
		}
		out = append(out, st)
	}
	return out
}
