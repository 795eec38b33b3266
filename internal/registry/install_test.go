package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestInstallShadow covers the push-rollout receiving end: pushed
// bytes become the arch's shadow candidate (held in memory, with no
// source path for reloads to re-read), re-pushing is idempotent, corrupt
// bytes and unknown arches change nothing, and promotion flips the
// pushed candidate live.
func TestInstallShadow(t *testing.T) {
	dir := t.TempDir()
	live := saveArtifact(t, dir, "live.gob", 10, 7)
	candPath := saveArtifact(t, dir, "cand.gob", 6, 99)
	candBytes, err := os.ReadFile(candPath)
	if err != nil {
		t.Fatal(err)
	}
	wantHash := serve.HashBytes(candBytes)

	r := New()
	if err := r.Configure("Turing", live); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}

	// Unknown arch: refused, nothing installed.
	if _, err := r.InstallShadow("ampere", candBytes); err == nil {
		t.Error("InstallShadow accepted an unconfigured arch")
	}
	// Corrupt bytes: refused before anything is replaced.
	if _, err := r.InstallShadow("turing", []byte("not an artifact")); err == nil {
		t.Error("InstallShadow accepted undecodable bytes")
	}
	if _, ok := candidateOf(t, r, "turing"); ok {
		t.Fatal("failed installs left a shadow behind")
	}

	hash, err := r.InstallShadow("", candBytes) // "" = default arch
	if err != nil {
		t.Fatal(err)
	}
	if hash != wantHash {
		t.Fatalf("InstallShadow hash %s, want %s", hash, wantHash)
	}
	cand, ok := candidateOf(t, r, "turing")
	if !ok || cand.Hash != wantHash {
		t.Fatalf("Shadow after install = %+v ok=%v", cand, ok)
	}
	// Pushed bytes have no file behind them.
	if cand.Source != "" {
		t.Fatalf("pushed candidate source = %q, want none", cand.Source)
	}

	// Re-push of identical bytes: same hash, still one candidate.
	if again, err := r.InstallShadow("turing", candBytes); err != nil || again != wantHash {
		t.Fatalf("idempotent re-push = %s, %v", again, err)
	}

	// A reload sweep must keep the pushed candidate (content unchanged).
	changed, err := r.Reload()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range changed {
		if strings.HasPrefix(c, "shadow:") {
			t.Fatalf("reload churned the pushed candidate: %v", changed)
		}
	}

	// Shadow scoring and promotion work exactly as for disk-configured
	// candidates.
	if err := r.Ready(); err != nil {
		t.Fatalf("Ready with a pushed candidate: %v", err)
	}
	newHash, err := r.Promote("turing")
	if err != nil {
		t.Fatal(err)
	}
	if newHash != wantHash {
		t.Fatalf("Promote returned %s, want %s", newHash, wantHash)
	}
	lm, err := r.Live("turing")
	if err != nil || lm.Hash != wantHash {
		t.Fatalf("Live after promote = %+v, %v", lm, err)
	}
	if _, ok := candidateOf(t, r, "turing"); ok {
		t.Fatal("shadow slot survived promotion")
	}

	// Replacing an existing candidate: push different bytes over it.
	otherPath := saveArtifact(t, dir, "cand2.gob", 8, 5)
	otherBytes, err := os.ReadFile(otherPath)
	if err != nil {
		t.Fatal(err)
	}
	if serve.HashBytes(otherBytes) == wantHash {
		t.Fatal("test artifacts collided; vary clusters/seed")
	}
	if _, err := r.InstallShadow("turing", otherBytes); err != nil {
		t.Fatal(err)
	}
	cand2, ok := candidateOf(t, r, "turing")
	if !ok || cand2.Hash != serve.HashBytes(otherBytes) {
		t.Fatalf("replacement candidate = %+v ok=%v", cand2, ok)
	}
}

// TestInstallShadowWritesNoFiles: pushed candidates live in memory.
// Install → promote cycles create no file under TMPDIR, Reload leaves
// pushed entries (live after a promote, or shadow) alone, and files
// configured on disk are never removed.
func TestInstallShadowWritesNoFiles(t *testing.T) {
	dir := t.TempDir()
	live := saveArtifact(t, dir, "live.gob", 10, 7)
	var pushes [][]byte
	for i, seed := range []int64{99, 5} {
		data, err := os.ReadFile(saveArtifact(t, dir, fmt.Sprintf("cand%d.gob", i), 6+2*i, seed))
		if err != nil {
			t.Fatal(err)
		}
		pushes = append(pushes, data)
	}
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	noFiles := func(when string) {
		t.Helper()
		if files, err := os.ReadDir(tmp); err != nil || len(files) != 0 {
			t.Fatalf("%s: TMPDIR holds %d files (%v)", when, len(files), err)
		}
	}

	r := New()
	if err := r.Configure("turing", live); err != nil {
		t.Fatal(err)
	}
	if err := r.LoadAll(); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 5; cycle++ {
		data := pushes[cycle%2]
		if _, err := r.InstallShadow("turing", data); err != nil {
			t.Fatal(err)
		}
		hash, err := r.Promote("turing")
		if err != nil {
			t.Fatal(err)
		}
		if hash != serve.HashBytes(data) {
			t.Fatalf("cycle %d: promoted %s, want the pushed bytes' hash", cycle, hash)
		}
		noFiles(fmt.Sprintf("cycle %d", cycle))
	}
	if _, err := os.Stat(live); err != nil {
		t.Fatalf("disk-configured live artifact removed: %v", err)
	}
	// A pending pushed candidate over a promoted pushed live model: a
	// reload sweep has nothing on disk to re-read for either.
	if _, err := r.InstallShadow("turing", pushes[0]); err != nil {
		t.Fatal(err)
	}
	before, _ := r.Live("turing")
	changed, err := r.Reload()
	if err != nil || len(changed) != 0 {
		t.Fatalf("Reload over pushed entries = %v, %v; want no change", changed, err)
	}
	if after, _ := r.Live("turing"); after.Hash != before.Hash {
		t.Fatalf("Reload swapped the live model %s -> %s", before.Hash, after.Hash)
	}
	if cand, ok := candidateOf(t, r, "turing"); !ok || cand.Hash != serve.HashBytes(pushes[0]) {
		t.Fatalf("Reload dropped the pushed candidate: %+v ok=%v", cand, ok)
	}
	if err := r.Ready(); err != nil {
		t.Fatal(err)
	}
	noFiles("after reload")

	// A disk-configured candidate, promoted and then replaced by a
	// pushed one, stays on disk.
	disk := New()
	if err := disk.Configure("turing", live); err != nil {
		t.Fatal(err)
	}
	cand := filepath.Join(dir, "cand0.gob")
	if err := disk.ConfigureShadow("turing", cand); err != nil {
		t.Fatal(err)
	}
	if err := disk.LoadAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := disk.Promote("turing"); err != nil {
		t.Fatal(err)
	}
	if _, err := disk.InstallShadow("turing", pushes[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := disk.Promote("turing"); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{live, cand} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("disk-configured artifact removed: %v", err)
		}
	}
}
