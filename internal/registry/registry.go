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

// slot is one configured position (live or shadow) for an arch: where
// to load from, what is currently installed, and the last load error.
type slot struct {
	path  string
	entry *Entry // nil until the first successful load
	err   error  // last load failure (a failed reload keeps the old entry)
}

// Registry is a concurrency-safe, versioned collection of named
// artifacts keyed by target architecture. All reads (request routing)
// take a read lock; swaps are atomic under the write lock, so a
// request observes either the old or the new model, never a mix.
type Registry struct {
	mu     sync.RWMutex
	def    string // default arch ("" until set or first Configure)
	live   map[string]*slot
	shadow map[string]*slot
	stats  map[string]*ShadowStats
	// drift holds the per-arch drift monitor for live artifacts that
	// carry a training baseline; driftOpts tunes it.
	drift     map[string]*driftState
	driftOpts DriftOptions
	// quality holds the per-arch measured-outcome window for live
	// artifacts (fed by /v1/feedback); qualityOpts tunes it.
	quality     map[string]*qualityState
	qualityOpts QualityOptions
	onSwap      []func()

	swaps      *obs.Counter
	reloads    *obs.Counter
	promotes   *obs.Counter
	loadErrors *obs.Counter
}

// The registry satisfies the serving interfaces, including the
// drift-monitoring and measured-quality surfaces.
var (
	_ serve.Backend         = (*Registry)(nil)
	_ serve.AdminBackend    = (*Registry)(nil)
	_ serve.DriftBackend    = (*Registry)(nil)
	_ serve.QualityBackend  = (*Registry)(nil)
	_ serve.ShadowInstaller = (*Registry)(nil)
)

// New returns an empty registry. Configure architectures, then LoadAll.
func New() *Registry {
	return &Registry{
		live:       map[string]*slot{},
		shadow:     map[string]*slot{},
		stats:      map[string]*ShadowStats{},
		drift:      map[string]*driftState{},
		quality:    map[string]*qualityState{},
		swaps:      obs.Default.Counter("registry/swaps"),
		reloads:    obs.Default.Counter("registry/reloads"),
		promotes:   obs.Default.Counter("registry/promotes"),
		loadErrors: obs.Default.Counter("registry/load_errors"),
	}
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
	if _, dup := r.live[a]; dup {
		return fmt.Errorf("registry: architecture %q configured twice", a)
	}
	r.live[a] = &slot{path: path}
	if r.def == "" {
		r.def = a
	}
	return nil
}

// ConfigureShadow declares a shadow candidate for an already-configured
// arch. Every request the live model answers is also scored by the
// candidate, and the tallies feed ShadowReport.
func (r *Registry) ConfigureShadow(arch, path string) error {
	a := serve.NormalizeArch(arch)
	if path == "" {
		return fmt.Errorf("registry: empty shadow artifact path for %q", a)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.live[a]; !ok {
		return fmt.Errorf("registry: shadow for unconfigured architecture %q", a)
	}
	if _, dup := r.shadow[a]; dup {
		return fmt.Errorf("registry: shadow for %q configured twice", a)
	}
	r.shadow[a] = &slot{path: path}
	r.stats[a] = newShadowStats()
	return nil
}

// InstallShadow installs artifact bytes pushed over the wire as arch's
// shadow candidate ("" selects the default arch) — the receiving end of
// a fleet rollout. The bytes are decoded before anything is replaced
// (a corrupt push leaves the current candidate serving), then spooled
// to a temp file so subsequent Reload sweeps re-read a real path like
// any disk-configured candidate. Re-pushing the bytes already installed
// is a no-op (content-hash idempotent, like Reload); pushing different
// bytes replaces the candidate and resets its tallies. Returns the
// registry's own content hash of the received bytes.
func (r *Registry) InstallShadow(arch string, data []byte) (string, error) {
	a := serve.NormalizeArch(arch)
	hash := serve.HashBytes(data)
	art, err := serve.Load(bytes.NewReader(data))
	if err != nil {
		return "", fmt.Errorf("registry: decoding pushed candidate: %w", err)
	}

	r.mu.RLock()
	if a == "" {
		a = r.def
	}
	_, configured := r.live[a]
	ss := r.shadow[a]
	already := ss != nil && ss.entry != nil && ss.entry.Hash == hash
	r.mu.RUnlock()
	if !configured {
		return "", fmt.Errorf("registry: %w %q", serve.ErrUnknownArch, arch)
	}
	if already {
		return hash, nil
	}

	// Spool outside the lock; the file outlives the request so Reload
	// stays coherent for the candidate's whole shadow period.
	spool, err := os.CreateTemp("", "spmvselect-shadow-"+a+"-"+hash+"-*.model")
	if err != nil {
		return "", fmt.Errorf("registry: spooling pushed candidate: %w", err)
	}
	if _, err := spool.Write(data); err != nil {
		spool.Close()
		os.Remove(spool.Name())
		return "", fmt.Errorf("registry: spooling pushed candidate: %w", err)
	}
	if err := spool.Close(); err != nil {
		os.Remove(spool.Name())
		return "", fmt.Errorf("registry: spooling pushed candidate: %w", err)
	}

	r.mu.Lock()
	if _, ok := r.live[a]; !ok {
		r.mu.Unlock()
		os.Remove(spool.Name())
		return "", fmt.Errorf("registry: %w %q", serve.ErrUnknownArch, arch)
	}
	entry := &Entry{Artifact: art, Hash: hash, Path: spool.Name()}
	r.shadow[a] = &slot{path: spool.Name(), entry: entry}
	r.stats[a] = newShadowStats()
	r.mu.Unlock()
	return hash, nil
}

// SetDefault selects the arch serving requests that name none. It must
// already be configured.
func (r *Registry) SetDefault(arch string) error {
	a := serve.NormalizeArch(arch)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.live[a]; !ok {
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
// candidates). Unchanged files are not re-decoded and not swapped, so
// repeated reloads are idempotent; a file that fails to read or decode
// keeps the previous entry (if any) and contributes to the joined
// error. Shadow tallies reset for an arch whose live model or candidate
// swapped — the old comparison no longer describes the new pair.
func (r *Registry) Reload() (changed []string, err error) {
	r.reloads.Inc()

	r.mu.RLock()
	targets := make([]loadTarget, 0, len(r.live)+len(r.shadow))
	for a, s := range r.live {
		t := loadTarget{arch: a, name: a, path: s.path}
		if s.entry != nil {
			t.oldHash = s.entry.Hash
		}
		targets = append(targets, t)
	}
	for a, s := range r.shadow {
		t := loadTarget{arch: a, name: "shadow:" + a, shadow: true, path: s.path}
		if s.entry != nil {
			t.oldHash = s.entry.Hash
		}
		targets = append(targets, t)
	}
	r.mu.RUnlock()
	sort.Slice(targets, func(i, j int) bool { return targets[i].name < targets[j].name })

	// Read and decode outside the lock: routing continues on the old
	// entries while files load.
	loaded := make(map[string]*Entry, len(targets)) // by name; nil when unchanged
	var errs []error
	for _, t := range targets {
		entry, fresh, lerr := loadEntry(t.path, t.oldHash)
		if lerr != nil {
			r.loadErrors.Inc()
			errs = append(errs, fmt.Errorf("%s: %w", t.name,
				&loadError{arch: t.arch, shadow: t.shadow, err: lerr}))
			continue
		}
		if fresh {
			loaded[t.name] = entry
		}
	}

	r.mu.Lock()
	for _, t := range targets {
		slots := r.live
		if t.shadow {
			slots = r.shadow
		}
		s := slots[t.arch]
		if s == nil || s.path != t.path {
			// The slot was promoted or reconfigured while we read the
			// file; its content no longer corresponds to this target.
			continue
		}
		entry, ok := loaded[t.name]
		if !ok {
			continue
		}
		s.entry = entry
		s.err = nil
		changed = append(changed, t.name)
		if st := r.stats[t.arch]; st != nil {
			st.Reset()
		}
		if !t.shadow {
			// A new live model means new drift windows against its own
			// training baseline, and a fresh quality window — old
			// outcomes described the replaced model.
			r.installDriftLocked(t.arch, entry.Artifact)
			r.installQualityLocked(t.arch, entry.Artifact)
		}
	}
	// Record load failures on their slots for /readyz.
	for _, e := range errs {
		var le *loadError
		if errors.As(e, &le) {
			slots := r.live
			if le.shadow {
				slots = r.shadow
			}
			if s := slots[le.arch]; s != nil {
				s.err = le.err
			}
		}
	}
	r.mu.Unlock()

	if len(changed) > 0 {
		r.swaps.Add(int64(len(changed)))
		r.fireSwapHooks()
	}
	return changed, errors.Join(errs...)
}

// loadError tags a load failure with the slot it belongs to, so Reload
// can record it for readiness reporting.
type loadError struct {
	arch   string
	shadow bool
	err    error
}

func (e *loadError) Error() string { return e.err.Error() }
func (e *loadError) Unwrap() error { return e.err }

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
// candidate becomes the serving entry, its file becomes the slot's
// reload source, the shadow slot disappears and its tallies reset.
// Returns the new live hash.
func (r *Registry) Promote(arch string) (string, error) {
	a := serve.NormalizeArch(arch)
	r.mu.Lock()
	if a == "" {
		a = r.def
	}
	ls, ok := r.live[a]
	if !ok {
		r.mu.Unlock()
		return "", fmt.Errorf("registry: %w %q", serve.ErrUnknownArch, arch)
	}
	ss := r.shadow[a]
	if ss == nil {
		r.mu.Unlock()
		return "", fmt.Errorf("registry: no shadow candidate registered for %q", a)
	}
	if ss.entry == nil {
		r.mu.Unlock()
		return "", fmt.Errorf("registry: shadow candidate for %q is not loaded", a)
	}
	ls.entry = ss.entry
	ls.path = ss.path
	ls.err = nil
	delete(r.shadow, a)
	delete(r.stats, a)
	r.installDriftLocked(a, ls.entry.Artifact)
	r.installQualityLocked(a, ls.entry.Artifact)
	hash := ls.entry.Hash
	r.mu.Unlock()

	r.promotes.Inc()
	r.swaps.Inc()
	r.fireSwapHooks()
	return hash, nil
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
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.archesLocked()
}

func (r *Registry) archesLocked() []string {
	out := make([]string, 0, len(r.live))
	for a := range r.live {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// Live resolves arch ("" selects the default) to its serving model.
func (r *Registry) Live(arch string) (serve.LiveModel, error) {
	a := serve.NormalizeArch(arch)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if a == "" {
		a = r.def
	}
	s, ok := r.live[a]
	if !ok {
		return serve.LiveModel{}, fmt.Errorf("registry: %w %q (serving: %v)",
			serve.ErrUnknownArch, arch, r.archesLocked())
	}
	if s.entry == nil {
		if s.err != nil {
			return serve.LiveModel{}, fmt.Errorf("registry: %w for %q: %v", serve.ErrNotLoaded, a, s.err)
		}
		return serve.LiveModel{}, fmt.Errorf("registry: %w for %q (still loading)", serve.ErrNotLoaded, a)
	}
	return serve.LiveModel{Arch: a, Hash: s.entry.Hash, Source: s.entry.Path, Artifact: s.entry.Artifact}, nil
}

// Shadow returns the loaded candidate for arch, when one is registered.
func (r *Registry) Shadow(arch string) (serve.LiveModel, bool) {
	a := serve.NormalizeArch(arch)
	r.mu.RLock()
	defer r.mu.RUnlock()
	if a == "" {
		a = r.def
	}
	s := r.shadow[a]
	if s == nil || s.entry == nil {
		return serve.LiveModel{}, false
	}
	return serve.LiveModel{Arch: a, Hash: s.entry.Hash, Source: s.entry.Path, Artifact: s.entry.Artifact}, true
}

// Ready returns nil once every configured live and shadow artifact has
// loaded, and otherwise an error naming a slot that has not.
func (r *Registry) Ready() error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.live) == 0 {
		return fmt.Errorf("registry: no architectures configured")
	}
	for _, a := range r.archesLocked() {
		if s := r.live[a]; s.entry == nil {
			return notLoadedErr(a, s)
		}
	}
	for a, s := range r.shadow {
		if s.entry == nil {
			return notLoadedErr("shadow:"+a, s)
		}
	}
	return nil
}

func notLoadedErr(name string, s *slot) error {
	if s.err != nil {
		return fmt.Errorf("registry: %s failed to load: %v", name, s.err)
	}
	return fmt.Errorf("registry: %s not loaded yet", name)
}

// Status reports the per-arch load state, sorted by arch.
func (r *Registry) Status() []serve.ArchStatus {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]serve.ArchStatus, 0, len(r.live))
	for _, a := range r.archesLocked() {
		s := r.live[a]
		st := serve.ArchStatus{Arch: a, Default: a == r.def, Source: s.path}
		if s.entry != nil {
			st.Loaded = true
			st.Hash = s.entry.Hash
		}
		if s.err != nil {
			st.Error = s.err.Error()
		}
		if ss := r.shadow[a]; ss != nil {
			st.Shadow = true
			if ss.entry != nil {
				st.ShadowHash = ss.entry.Hash
			}
		}
		out = append(out, st)
	}
	return out
}
