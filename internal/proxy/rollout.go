package proxy

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/registry"
	"repro/internal/serve"
)

// Fleet-wide rollout: push a candidate artifact to every replica over
// the authenticated shadow-install path, watch each replica's own
// ShadowStats until every one of them clears the agreement threshold,
// then promote everywhere. The state machine is deliberately
// all-or-nothing at each phase edge — a fleet where half the replicas
// serve the new hash answers the same matrix differently depending on
// ring position, which is exactly the inconsistency the consistent
// hash exists to prevent.

// RolloutConfig describes one fleet rollout.
type RolloutConfig struct {
	// Replicas to roll out to (host:port). The rollout talks to
	// replicas directly, not through the proxy: admin state is
	// per-replica.
	Replicas []string
	// Arch selects the live/candidate pair ("" = each replica's
	// default arch).
	Arch string
	// ArtifactPath is the candidate artifact file to push.
	ArtifactPath string
	// Token authenticates against every replica's admin API.
	Token string
	// Threshold is the minimum per-replica shadow agreement rate
	// required to promote (default 0.99).
	Threshold float64
	// MinScored is the minimum number of shadow-scored requests each
	// replica must accumulate before its agreement rate counts
	// (default 10).
	MinScored int64
	// DriveDir, when set, names a directory of .mtx files the
	// controller posts to every replica during the observe phase, so a
	// quiet fleet still accumulates shadow evidence.
	DriveDir string
	// Timeout bounds the whole rollout (default 2m); Poll spaces the
	// observe-phase checks (default 500ms).
	Timeout time.Duration
	Poll    time.Duration
	// Client overrides the HTTP client (tests).
	Client *http.Client
	// Log, when non-nil, receives one line per state transition.
	Log func(format string, args ...any)
}

func (c RolloutConfig) withDefaults() RolloutConfig {
	if c.Threshold <= 0 {
		c.Threshold = 0.99
	}
	if c.MinScored <= 0 {
		c.MinScored = 10
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Minute
	}
	if c.Poll <= 0 {
		c.Poll = 500 * time.Millisecond
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 30 * time.Second}
	}
	return c
}

func (c RolloutConfig) logf(format string, args ...any) {
	if c.Log != nil {
		c.Log(format, args...)
	}
}

// RolloutResult reports a completed rollout.
type RolloutResult struct {
	Arch string `json:"arch"`
	// Hash is the candidate artifact's content hash, live on every
	// replica once the rollout returns without error.
	Hash string `json:"hash"`
	// Scored and Agreement record each replica's shadow evidence at
	// promotion time, keyed by replica address.
	Scored    map[string]int64   `json:"scored"`
	Agreement map[string]float64 `json:"agreement"`
	// Driven counts matrices posted from DriveDir per replica.
	Driven int `json:"driven,omitempty"`
}

// Rollout runs the full push -> observe -> promote sequence and
// returns only when every replica serves the candidate hash (or an
// error leaves the fleet unchanged: the candidate stays in shadow,
// live traffic untouched).
func Rollout(ctx context.Context, cfg RolloutConfig) (*RolloutResult, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("rollout: no replicas")
	}
	data, err := os.ReadFile(cfg.ArtifactPath)
	if err != nil {
		return nil, fmt.Errorf("rollout: reading candidate: %w", err)
	}
	wantHash := serve.HashBytes(data)
	ctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()

	// Phase 1: push. Install the candidate as every replica's shadow.
	// Each replica hashes what it received and answers with that hash —
	// a mismatch means a corrupt or partial transfer, and the rollout
	// stops before any replica starts scoring garbage.
	cfg.logf("rollout: pushing %s (hash %s) to %d replicas",
		filepath.Base(cfg.ArtifactPath), wantHash, len(cfg.Replicas))
	for _, addr := range cfg.Replicas {
		gotHash, err := installShadow(ctx, cfg, addr, data)
		if err != nil {
			return nil, fmt.Errorf("rollout: push to %s: %w", addr, err)
		}
		if gotHash != wantHash {
			return nil, fmt.Errorf("rollout: %s installed hash %s, pushed %s (corrupt transfer?)",
				addr, gotHash, wantHash)
		}
	}

	// Phase 2: observe. Every replica scores live traffic against the
	// candidate with its own ShadowStats; promotion waits until each
	// one independently clears the bar. DriveDir supplies traffic when
	// the fleet is quiet.
	res := &RolloutResult{Hash: wantHash, Scored: map[string]int64{}, Agreement: map[string]float64{}}
	if cfg.DriveDir != "" {
		n, err := driveMatrices(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("rollout: driving shadow traffic: %w", err)
		}
		res.Driven = n
		cfg.logf("rollout: drove %d matrices through each replica", n)
	}
	var pending []string // the last complete poll's verdict
	for {
		next, err := observeOnce(ctx, cfg, wantHash, res)
		if err != nil {
			if ctx.Err() != nil && pending != nil {
				// The deadline cut this poll short: report what the
				// last complete poll was still waiting on.
				return nil, observeTimeout(pending)
			}
			return nil, err
		}
		if pending = next; len(pending) == 0 {
			break
		}
		cfg.logf("rollout: waiting on %d/%d replicas: %s",
			len(pending), len(cfg.Replicas), pending[0])
		select {
		case <-ctx.Done():
			return nil, observeTimeout(pending)
		case <-time.After(cfg.Poll):
		}
	}
	cfg.logf("rollout: every replica cleared agreement >= %.3f on >= %d scored; promoting",
		cfg.Threshold, cfg.MinScored)

	// Phase 3: promote. Flip every replica, then verify the served
	// hash actually changed everywhere — the promotion answer alone
	// could mask an arch mismatch.
	for _, addr := range cfg.Replicas {
		hash, arch, err := promoteReplica(ctx, cfg, addr)
		if err != nil {
			return nil, fmt.Errorf("rollout: promote on %s: %w (fleet now MIXED — re-run or roll back)", addr, err)
		}
		if hash != wantHash {
			return nil, fmt.Errorf("rollout: %s promoted hash %s, want %s (fleet now MIXED)", addr, hash, wantHash)
		}
		res.Arch = arch
	}
	for _, addr := range cfg.Replicas {
		live, err := liveHash(ctx, cfg, addr)
		if err != nil {
			return nil, fmt.Errorf("rollout: verifying %s: %w", addr, err)
		}
		if live != wantHash {
			return nil, fmt.Errorf("rollout: %s serves hash %s after promote, want %s", addr, live, wantHash)
		}
	}
	cfg.logf("rollout: fleet serves %s", wantHash)
	return res, nil
}

func observeTimeout(pending []string) error {
	return fmt.Errorf("rollout: timed out observing; still pending: %v", pending)
}

// observeOnce polls every replica's shadow report and returns the
// replicas still short of the bar (with the reason on the first one).
func observeOnce(ctx context.Context, cfg RolloutConfig, wantHash string, res *RolloutResult) ([]string, error) {
	var pending []string
	for _, addr := range cfg.Replicas {
		rep, err := shadowReport(ctx, cfg, addr)
		if err != nil {
			return nil, fmt.Errorf("rollout: shadow report from %s: %w", addr, err)
		}
		ar := findPair(rep, cfg.Arch, wantHash)
		switch {
		case ar == nil:
			pending = append(pending, fmt.Sprintf("%s: candidate %s not in shadow report", addr, wantHash))
		case ar.Scored < cfg.MinScored:
			pending = append(pending, fmt.Sprintf("%s: scored %d < %d", addr, ar.Scored, cfg.MinScored))
		case ar.AgreementRate < cfg.Threshold:
			// A disagreeing candidate never converges by waiting longer;
			// surfacing it as pending (not fatal) still lets a slow
			// trickle of agreeing traffic rescue a borderline start, and
			// the rollout timeout bounds the wait either way.
			pending = append(pending, fmt.Sprintf("%s: agreement %.4f < %.4f (scored %d, disagree %d)",
				addr, ar.AgreementRate, cfg.Threshold, ar.Scored, ar.Disagree))
		default:
			res.Scored[addr] = ar.Scored
			res.Agreement[addr] = ar.AgreementRate
		}
	}
	return pending, nil
}

// findPair locates the live/candidate pair this rollout owns inside
// one replica's shadow report: matched by candidate hash, and by arch
// when the rollout pinned one.
func findPair(rep *registry.ShadowReportData, arch, wantHash string) *registry.ArchShadowReport {
	for i := range rep.Arches {
		ar := &rep.Arches[i]
		if ar.CandidateHash != wantHash {
			continue
		}
		if arch != "" && ar.Arch != serve.NormalizeArch(arch) {
			continue
		}
		return ar
	}
	return nil
}

// installShadow POSTs the candidate bytes to one replica's
// shadow-install endpoint and returns the hash the replica computed.
func installShadow(ctx context.Context, cfg RolloutConfig, addr string, data []byte) (string, error) {
	u := "http://" + addr + "/v1/admin/shadow/install"
	if cfg.Arch != "" {
		u += "?arch=" + url.QueryEscape(cfg.Arch)
	}
	var out struct {
		Hash string `json:"hash"`
	}
	if err := adminJSON(ctx, cfg, http.MethodPost, u, data, &out); err != nil {
		return "", err
	}
	return out.Hash, nil
}

// shadowReport fetches one replica's shadow evaluation state.
func shadowReport(ctx context.Context, cfg RolloutConfig, addr string) (*registry.ShadowReportData, error) {
	var rep registry.ShadowReportData
	if err := adminJSON(ctx, cfg, http.MethodGet, "http://"+addr+"/v1/admin/shadow", nil, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// promoteReplica flips one replica's candidate to live.
func promoteReplica(ctx context.Context, cfg RolloutConfig, addr string) (hash, arch string, err error) {
	u := "http://" + addr + "/v1/admin/promote"
	if cfg.Arch != "" {
		u += "?arch=" + url.QueryEscape(cfg.Arch)
	}
	var out struct {
		Arch string `json:"arch"`
		Hash string `json:"hash"`
	}
	if err := adminJSON(ctx, cfg, http.MethodPost, u, nil, &out); err != nil {
		return "", "", err
	}
	return out.Hash, out.Arch, nil
}

// liveHash reads the hash one replica currently serves for the arch.
func liveHash(ctx context.Context, cfg RolloutConfig, addr string) (string, error) {
	u := "http://" + addr + "/v1/model"
	if cfg.Arch != "" {
		u += "?arch=" + url.QueryEscape(cfg.Arch)
	}
	var out struct {
		Hash string `json:"hash"`
	}
	if err := adminJSON(ctx, cfg, http.MethodGet, u, nil, &out); err != nil {
		return "", err
	}
	return out.Hash, nil
}

// driveMatrices posts every .mtx file under DriveDir to every replica
// directly (bypassing the ring — each replica must score its own
// shadow samples) and returns the per-replica count.
func driveMatrices(ctx context.Context, cfg RolloutConfig) (int, error) {
	entries, err := os.ReadDir(cfg.DriveDir)
	if err != nil {
		return 0, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".mtx" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return 0, fmt.Errorf("no .mtx files in %s", cfg.DriveDir)
	}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(cfg.DriveDir, name))
		if err != nil {
			return 0, err
		}
		for _, addr := range cfg.Replicas {
			u := "http://" + addr + "/v1/predict/matrix"
			if cfg.Arch != "" {
				u += "?arch=" + url.QueryEscape(cfg.Arch)
			}
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(data))
			if err != nil {
				return 0, err
			}
			resp, err := cfg.Client.Do(req)
			if err != nil {
				return 0, fmt.Errorf("posting %s to %s: %w", name, addr, err)
			}
			io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return 0, fmt.Errorf("posting %s to %s: status %d", name, addr, resp.StatusCode)
			}
		}
	}
	return len(names), nil
}

// adminJSON performs one authenticated request and decodes the JSON
// answer; non-2xx statuses surface the replica's error body.
func adminJSON(ctx context.Context, cfg RolloutConfig, method, u string, body []byte, out any) error {
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, reader)
	if err != nil {
		return err
	}
	if cfg.Token != "" {
		req.Header.Set("Authorization", "Bearer "+cfg.Token)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := cfg.Client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var eb struct {
			Error string `json:"error"`
		}
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			return fmt.Errorf("status %d: %s", resp.StatusCode, eb.Error)
		}
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return json.Unmarshal(data, out)
}
