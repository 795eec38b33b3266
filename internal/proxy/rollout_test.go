package proxy

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/serve"
)

// fakeAdminReplica models one replica's admin surface for the rollout
// controller: install stores the pushed hash, the shadow report serves
// preset tallies for it, promote flips it live. agree/disagree are set
// per test to steer the controller's observe phase.
type fakeAdminReplica struct {
	srv *httptest.Server

	mu         sync.Mutex
	shadowHash string
	liveHash   string
	promotes   int
	agree      int64
	disagree   int64
	// stallAfter > 0 makes every shadow-report poll after that many
	// answers hang until the client gives up.
	stallAfter int
	polls      int
}

func newFakeAdminReplica(agree, disagree int64) *fakeAdminReplica {
	f := &fakeAdminReplica{liveHash: "old-live", agree: agree, disagree: disagree}
	auth := func(h http.HandlerFunc) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			if r.Header.Get("Authorization") != "Bearer tok" {
				obs.WriteJSON(w, http.StatusUnauthorized, obs.ErrorBody{Error: "invalid admin token"})
				return
			}
			h(w, r)
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/admin/shadow/install", auth(func(w http.ResponseWriter, r *http.Request) {
		data, _ := io.ReadAll(r.Body)
		f.mu.Lock()
		f.shadowHash = serve.HashBytes(data)
		hash := f.shadowHash
		f.mu.Unlock()
		obs.WriteJSON(w, http.StatusOK, map[string]string{"arch": "turing", "hash": hash})
	}))
	mux.HandleFunc("/v1/admin/shadow", auth(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.polls++
		stall := f.stallAfter > 0 && f.polls > f.stallAfter
		f.mu.Unlock()
		if stall {
			<-r.Context().Done()
			return
		}
		f.mu.Lock()
		defer f.mu.Unlock()
		rep := registry.ShadowReportData{Arches: []registry.ArchShadowReport{}}
		if f.shadowHash != "" {
			scored := f.agree + f.disagree
			ar := registry.ArchShadowReport{
				Arch: "turing", LiveHash: f.liveHash, CandidateHash: f.shadowHash,
				Scored: scored, Agree: f.agree, Disagree: f.disagree,
			}
			if scored > 0 {
				ar.AgreementRate = float64(f.agree) / float64(scored)
			}
			rep.Arches = append(rep.Arches, ar)
			rep.Scored, rep.Disagree = scored, f.disagree
		}
		obs.WriteJSON(w, http.StatusOK, rep)
	}))
	mux.HandleFunc("/v1/admin/promote", auth(func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		if f.shadowHash == "" {
			obs.WriteJSON(w, http.StatusConflict, obs.ErrorBody{Error: "no shadow candidate"})
			return
		}
		f.liveHash = f.shadowHash
		f.shadowHash = ""
		f.promotes++
		obs.WriteJSON(w, http.StatusOK, map[string]string{"arch": "turing", "hash": f.liveHash})
	}))
	mux.HandleFunc("/v1/model", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		obs.WriteJSON(w, http.StatusOK, map[string]string{"hash": f.liveHash})
	})
	f.srv = httptest.NewServer(mux)
	return f
}

func (f *fakeAdminReplica) addr() string { return strings.TrimPrefix(f.srv.URL, "http://") }

func (f *fakeAdminReplica) state() (live string, promotes int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.liveHash, f.promotes
}

func writeCandidate(t *testing.T) (path, hash string) {
	t.Helper()
	path = filepath.Join(t.TempDir(), "cand.model")
	data := []byte("candidate artifact bytes")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, serve.HashBytes(data)
}

// TestRolloutPromotesWhenAllClear: every replica clears the bar, the
// fleet promotes together, and the result carries each replica's
// evidence.
func TestRolloutPromotesWhenAllClear(t *testing.T) {
	var fleet []*fakeAdminReplica
	var addrs []string
	for i := 0; i < 3; i++ {
		f := newFakeAdminReplica(20, 0)
		t.Cleanup(f.srv.Close)
		fleet = append(fleet, f)
		addrs = append(addrs, f.addr())
	}
	path, wantHash := writeCandidate(t)

	res, err := Rollout(context.Background(), RolloutConfig{
		Replicas: addrs, ArtifactPath: path, Token: "tok",
		Threshold: 0.99, MinScored: 10, Timeout: 5 * time.Second, Poll: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Hash != wantHash {
		t.Fatalf("result hash %s, want %s", res.Hash, wantHash)
	}
	for i, f := range fleet {
		live, promotes := f.state()
		if live != wantHash || promotes != 1 {
			t.Fatalf("replica %d: live %s promotes %d, want %s/1", i, live, promotes, wantHash)
		}
		if res.Scored[f.addr()] != 20 || res.Agreement[f.addr()] != 1 {
			t.Fatalf("replica %d evidence missing from result: %+v", i, res)
		}
	}
}

// TestRolloutBlocksOnDisagreeingReplica: one replica below the
// agreement threshold holds the WHOLE fleet — nobody promotes, live
// hashes stay put.
func TestRolloutBlocksOnDisagreeingReplica(t *testing.T) {
	fleet := []*fakeAdminReplica{
		newFakeAdminReplica(20, 0),
		newFakeAdminReplica(15, 5), // 0.75 agreement
		newFakeAdminReplica(20, 0),
	}
	var addrs []string
	for _, f := range fleet {
		t.Cleanup(f.srv.Close)
		addrs = append(addrs, f.addr())
	}
	path, _ := writeCandidate(t)

	_, err := Rollout(context.Background(), RolloutConfig{
		Replicas: addrs, ArtifactPath: path, Token: "tok",
		Threshold: 0.99, MinScored: 10, Timeout: 400 * time.Millisecond, Poll: 20 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("rollout promoted past a disagreeing replica")
	}
	if !strings.Contains(err.Error(), "agreement") {
		t.Fatalf("error does not name the agreement gap: %v", err)
	}
	for i, f := range fleet {
		live, promotes := f.state()
		if live != "old-live" || promotes != 0 {
			t.Fatalf("replica %d changed during a blocked rollout: live %s promotes %d", i, live, promotes)
		}
	}
}

// TestRolloutTimeoutMidPollKeepsPendingReason: when the rollout
// deadline ends an in-flight shadow-report poll, the error still names
// what the last complete poll was waiting on, not the cut-off request.
func TestRolloutTimeoutMidPollKeepsPendingReason(t *testing.T) {
	disagreeing := newFakeAdminReplica(15, 5) // 0.75 agreement
	stalling := newFakeAdminReplica(20, 0)
	stalling.mu.Lock()
	stalling.stallAfter = 1
	stalling.mu.Unlock()
	for _, f := range []*fakeAdminReplica{disagreeing, stalling} {
		t.Cleanup(f.srv.Close)
	}
	path, _ := writeCandidate(t)

	_, err := Rollout(context.Background(), RolloutConfig{
		Replicas: []string{disagreeing.addr(), stalling.addr()}, ArtifactPath: path, Token: "tok",
		Threshold: 0.99, MinScored: 10, Timeout: 500 * time.Millisecond, Poll: 20 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("rollout promoted past a disagreeing replica")
	}
	if !strings.Contains(err.Error(), "timed out observing") || !strings.Contains(err.Error(), "agreement 0.7500") {
		t.Fatalf("error does not carry the pending agreement gap: %v", err)
	}
	stalling.mu.Lock()
	polls := stalling.polls
	stalling.mu.Unlock()
	if polls < 2 {
		t.Fatalf("stalling replica answered %d polls; the deadline never cut one short", polls)
	}
}

// TestRolloutDetectsCorruptPush: a replica whose install answer hashes
// differently from the pushed bytes stops the rollout at the push
// phase.
func TestRolloutDetectsCorruptPush(t *testing.T) {
	good := newFakeAdminReplica(20, 0)
	t.Cleanup(good.srv.Close)
	liar := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSON(w, http.StatusOK, map[string]string{"arch": "turing", "hash": "0000000000000000"})
	}))
	t.Cleanup(liar.Close)
	path, _ := writeCandidate(t)

	_, err := Rollout(context.Background(), RolloutConfig{
		Replicas:     []string{good.addr(), strings.TrimPrefix(liar.URL, "http://")},
		ArtifactPath: path, Token: "tok", Timeout: 2 * time.Second,
	})
	if err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("corrupt push not detected: %v", err)
	}
	if _, promotes := good.state(); promotes != 0 {
		t.Fatal("good replica promoted despite a failed push phase")
	}
}

// TestFindPair pins the report-matching rules: hash must match, arch
// filters when set (normalized).
func TestFindPair(t *testing.T) {
	rep := &registry.ShadowReportData{Arches: []registry.ArchShadowReport{
		{Arch: "pascal", CandidateHash: "aaa"},
		{Arch: "turing", CandidateHash: "bbb"},
	}}
	if ar := findPair(rep, "", "bbb"); ar == nil || ar.Arch != "turing" {
		t.Fatalf("findPair by hash = %+v", ar)
	}
	if ar := findPair(rep, "Turing", "bbb"); ar == nil {
		t.Fatal("findPair did not normalize the arch filter")
	}
	if ar := findPair(rep, "pascal", "bbb"); ar != nil {
		t.Fatalf("findPair matched the wrong arch: %+v", ar)
	}
	if ar := findPair(rep, "", "zzz"); ar != nil {
		t.Fatalf("findPair matched a missing hash: %+v", ar)
	}
}
