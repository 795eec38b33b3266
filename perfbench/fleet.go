package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/eval"
	"repro/internal/features"
	"repro/internal/gpusim"
	"repro/internal/proxy"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/sparse"
)

// adminToken authenticates the rollout controller against the replicas.
const adminToken = "perfbench-admin"

// arches are the registry entries of every replica; turing is the
// default and the one rollouts swap.
var arches = []string{"turing", "pascal"}

// artifacts are the models the fleet serves, saved as files.
type artifacts struct {
	// PathA is the Turing artifact with a cascade, PathB the same model
	// with a drift baseline drawn from every other training row (same
	// answers, different bytes), PathP the Pascal artifact.
	PathA, PathB, PathP string
	// HashA is the content hash of the artifact at PathA.
	HashA string
	// byArch maps arch -> content hash -> the artifact decoded from the
	// saved bytes, exactly as a replica loads it.
	byArch map[string]map[string]*serve.Artifact
}

// trainArtifacts does what `spmvselect train -quick` does for Turing
// (with -cascade) and Pascal, on one generated corpus.
func trainArtifacts(ctx context.Context, tr tracer, dir string) (*artifacts, error) {
	_, sp := tr.start(ctx, "dataset.Generate")
	items, err := dataset.Generate(eval.QuickOptions().Dataset)
	sp.End()
	if err != nil {
		return nil, err
	}
	arts := &artifacts{
		PathA: filepath.Join(dir, "turing-a.gob"),
		PathB: filepath.Join(dir, "turing-b.gob"),
		PathP: filepath.Join(dir, "pascal.gob"),
	}
	for _, spec := range []struct {
		arch    string
		cascade bool
		path    string
	}{{"Turing", true, arts.PathA}, {"Pascal", false, arts.PathP}} {
		arch, _ := gpusim.ArchByName(spec.arch)
		_, sp := tr.start(ctx, "gpusim.label")
		var ms []*sparse.CSR
		var best []sparse.Format
		var y []int
		for _, it := range items {
			meas := arch.Measure(it.Name, gpusim.NewProfile(it.Matrix))
			if !meas.Feasible() {
				continue
			}
			bf, _ := meas.BestFormat()
			ms, best, y = append(ms, it.Matrix), append(best, bf), append(y, meas.Best)
		}
		sp.End()
		_, sp = tr.start(ctx, "features.ExtractAll")
		x := features.Matrix(features.ExtractAll(ms))
		sp.End()
		_, sp = tr.start(ctx, "core.TrainSelector")
		sel, err := core.TrainSelector(ms, best, core.Options{NumClusters: 32, Seed: 1})
		sp.End()
		if err != nil {
			return nil, err
		}
		art := serve.NewSemisupArtifact(sel.Model(), arch.Name)
		art.Baseline = serve.ComputeBaseline(x, y, sparse.NumKernelFormats)
		if spec.cascade {
			_, sp = tr.start(ctx, "serve.TrainCascade")
			art.Cascade, err = serve.TrainCascade(art, x, serve.CascadeOptions{Model: "logreg", TargetAgreement: 0.95, Seed: 1})
			sp.End()
			if err != nil {
				return nil, err
			}
			b := *art
			var bx [][]float64
			var by []int
			for i := 0; i < len(x); i += 2 {
				bx, by = append(bx, x[i]), append(by, y[i])
			}
			b.Baseline = serve.ComputeBaseline(bx, by, sparse.NumKernelFormats)
			if err := serve.SaveFile(arts.PathB, &b); err != nil {
				return nil, err
			}
		}
		if err := serve.SaveFile(spec.path, art); err != nil {
			return nil, err
		}
	}
	arts.byArch = map[string]map[string]*serve.Artifact{"turing": {}, "pascal": {}}
	for _, f := range []struct{ arch, path string }{{"turing", arts.PathA}, {"turing", arts.PathB}, {"pascal", arts.PathP}} {
		data, err := os.ReadFile(f.path)
		if err != nil {
			return nil, err
		}
		art, err := serve.Load(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		arts.byArch[f.arch][serve.HashBytes(data)] = art
		if f.path == arts.PathA {
			arts.HashA = serve.HashBytes(data)
		}
	}
	if len(arts.byArch["turing"]) != 2 {
		return nil, fmt.Errorf("the two Turing artifacts have the same bytes")
	}
	return arts, nil
}

// poolItem is one matrix of the request pool.
type poolItem struct {
	body []byte
	// head is the length of the MatrixMarket banner line; serve_unique
	// inserts its per-request comment after it.
	head int
	// vec is the plain-path feature vector, sent as-is to
	// /v1/predict/features; feat holds that request's body per arch.
	vec  []float64
	feat map[string][]byte
}

// buildPool generates the workload's request pool from its seed: the
// first PoolItems matrices, at PoolScale, whose MatrixMarket text is
// MinKB..MaxKB long. Round r of generation uses dataset seed
// 1000 + 8·seed + r, apart from the training corpus's seed 1 for every
// seed below 2^60.
func buildPool(ctx context.Context, tr tracer, seed int64, sc serveConfig) ([]*poolItem, error) {
	var pool []*poolItem
	for round := int64(0); len(pool) < sc.PoolItems; round++ {
		if round == 8 {
			return nil, fmt.Errorf("only %d of %d pool matrices are %d..%d KB", len(pool), sc.PoolItems, sc.MinKB, sc.MaxKB)
		}
		_, sp := tr.start(ctx, "dataset.Generate")
		items, err := dataset.Generate(dataset.Config{
			Seed: 1000 + 8*seed + round, BaseCount: 3 * sc.PoolItems, Scale: sc.PoolScale, DropELLFailures: true,
		})
		sp.End()
		if err != nil {
			return nil, err
		}
		for _, it := range items {
			// A MatrixMarket entry line is 8 to 30 bytes: skip matrices
			// that cannot be in the band before writing them out.
			if nnz := it.Matrix.NNZ(); nnz*8 > sc.MaxKB*1024 || nnz*30 < sc.MinKB*1024 {
				continue
			}
			var buf bytes.Buffer
			if err := sparse.WriteMatrixMarket(&buf, it.Matrix); err != nil {
				return nil, err
			}
			if kb := buf.Len() / 1024; kb < sc.MinKB || kb > sc.MaxKB {
				continue
			}
			body := buf.Bytes()
			pool = append(pool, &poolItem{body: body, head: bytes.IndexByte(body, '\n') + 1})
			if len(pool) == sc.PoolItems {
				break
			}
		}
	}
	return pool, nil
}

// references computes every pool item's answer on the plain path —
// streaming sparse.ReadMatrixMarket → features.Extract →
// (*serve.Artifact).Predict — for every artifact the fleet may serve,
// keyed by arch and content hash, and the /v1/predict/features body of
// the same vector.
func references(pool []*poolItem, arts *artifacts) (map[string]map[string][]string, error) {
	refs := map[string]map[string][]string{}
	for arch, byHash := range arts.byArch {
		refs[arch] = map[string][]string{}
		for hash := range byHash {
			refs[arch][hash] = make([]string, len(pool))
		}
	}
	for i, it := range pool {
		m, err := sparse.ReadMatrixMarket(bytes.NewReader(it.body))
		if err != nil {
			return nil, fmt.Errorf("pool matrix %d: %w", i, err)
		}
		it.vec = features.Extract(m).Slice()
		it.feat = map[string][]byte{}
		for arch, byHash := range arts.byArch {
			if it.feat[arch], err = json.Marshal(map[string]any{"features": it.vec, "arch": arch}); err != nil {
				return nil, err
			}
			for hash, art := range byHash {
				pred, err := art.Predict(it.vec)
				if err != nil {
					return nil, fmt.Errorf("pool matrix %d on %s: %w", i, arch, err)
				}
				refs[arch][hash][i] = pred.Format
			}
		}
	}
	return refs, nil
}

// hop is one request as a wrapped handler saw it.
type hop struct {
	// ID is the request's X-Request-ID, Path its URL path and Where the
	// handler: "proxy" or "replica <addr>".
	ID, Path, Where string
	Start, End      time.Time
}

// hopLog records wrapper spans around the proxy's and the replicas'
// handlers while on. It only exists in traced runs; an untraced run
// serves the unwrapped handlers.
type hopLog struct {
	on   atomic.Bool
	mu   sync.Mutex
	hops []hop
}

func (l *hopLog) wrap(where string, h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !l.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		l.mu.Lock()
		l.hops = append(l.hops, hop{r.Header.Get("X-Request-ID"), r.URL.Path, where, start, end})
		l.mu.Unlock()
	})
}

// take returns the recorded hops and forgets them.
func (l *hopLog) take() []hop {
	l.mu.Lock()
	defer l.mu.Unlock()
	h := l.hops
	l.hops = nil
	return h
}

// fleet is the serving topology under test, in this process on
// loopback: two registry-backed replicas with the default serve.Config
// behind the proxy with its default proxy.Config.
type fleet struct {
	proxyAddr string
	replicas  []string
	servers   []*http.Server
	cancel    context.CancelFunc
	wg        sync.WaitGroup
}

func startFleet(arts *artifacts, hops *hopLog) (*fleet, error) {
	f := &fleet{}
	// serveOn listens on a free loopback port and serves the handler mk
	// builds for that address, with the timeouts serve.Server.Run and
	// proxy.Proxy.Run set.
	serveOn := func(mk func(addr string) http.Handler, write time.Duration) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		s := &http.Server{Handler: mk(ln.Addr().String()), ReadHeaderTimeout: 5 * time.Second, ReadTimeout: 30 * time.Second, WriteTimeout: write}
		f.servers = append(f.servers, s)
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			s.Serve(ln)
		}()
		return ln.Addr().String(), nil
	}
	for i := 0; i < 2; i++ {
		srv, err := newReplica(arts)
		if err == nil {
			var addr string
			addr, err = serveOn(func(addr string) http.Handler {
				return hops.wrap("replica "+addr, srv.Handler())
			}, 30*time.Second)
			f.replicas = append(f.replicas, addr)
		}
		if err != nil {
			f.stop()
			return nil, err
		}
	}
	p, err := proxy.New(proxy.Config{Replicas: f.replicas})
	if err != nil {
		f.stop()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	p.CheckAll(ctx)
	f.proxyAddr, err = serveOn(func(string) http.Handler { return hops.wrap("proxy", p.Handler()) }, 30*time.Second+250*time.Millisecond)
	if err != nil {
		f.stop()
		return nil, err
	}
	// The health loop proxy.Proxy.Run keeps: a probe round every
	// HealthInterval (1s by default).
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		t := time.NewTicker(time.Second)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				p.CheckAll(ctx)
			}
		}
	}()
	return f, nil
}

// newReplica is what `spmvselect serve -models turing=A,pascal=P
// -admin-token T` builds: a registry-backed server with the default
// serve.Config whose prediction cache is flushed on every swap.
func newReplica(arts *artifacts) (*serve.Server, error) {
	reg := registry.New()
	for _, m := range []struct{ arch, path string }{{"turing", arts.PathA}, {"pascal", arts.PathP}} {
		if err := reg.Configure(m.arch, m.path); err != nil {
			return nil, err
		}
	}
	if err := reg.LoadAll(); err != nil {
		return nil, err
	}
	srv, err := serve.NewBackendServer(reg, serve.Config{AdminToken: adminToken})
	if err != nil {
		return nil, err
	}
	reg.OnSwap(srv.FlushCache)
	return srv, nil
}

// stop closes every listener and connection and waits for the fleet's
// goroutines to end.
func (f *fleet) stop() {
	if f.cancel != nil {
		f.cancel()
	}
	for _, s := range f.servers {
		s.Close()
	}
	f.wg.Wait()
}
