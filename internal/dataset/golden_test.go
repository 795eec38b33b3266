package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/features"
	"repro/internal/obs"
	"repro/internal/sparse"
)

// corpusDigest is the SHA-256 over every item's name and CSR arrays, in
// corpus order, each array prefixed by its length: the same digest the
// benchmark's paper workload checks its corpora against.
func corpusDigest(items []Item) string {
	h := sha256.New()
	var buf []byte
	for _, it := range items {
		h.Write([]byte(it.Name))
		h.Write([]byte{0})
		buf = appendInt32s(buf[:0], it.Matrix.RowPtr())
		buf = appendInt32s(buf, it.Matrix.ColIdx())
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(it.Matrix.Values())))
		for _, v := range it.Matrix.Values() {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
		}
		h.Write(buf)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func appendInt32s(buf []byte, xs []int32) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(xs)))
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(x))
	}
	return buf
}

// seed1Base40Config is the default corpus cut to 40 bases: four of each
// generator family.
func seed1Base40Config() Config {
	cfg := DefaultConfig()
	cfg.BaseCount = 40
	return cfg
}

// ellRetryConfig is small and has a tight ELL limit, so bases fail the
// ELL check: some are redrawn and some are dropped after every retry.
func ellRetryConfig() Config {
	return Config{
		Seed: 4, BaseCount: 30, AugmentPerBase: 1, Scale: 0.3,
		DropELLFailures: true, ELLLimit: 8,
	}
}

// TestCorpusGolden pins the generated corpus bit for bit. The digests
// were recorded before generation was pipelined; every EXPERIMENTS.md
// number rests on the corpus, so any change to the rng draw order, the
// assembly's sort (an unstable sort orders duplicate entries, and their
// sum rounds in that order) or the permutation variants fails here.
func TestCorpusGolden(t *testing.T) {
	for _, tc := range []struct {
		name  string
		cfg   Config
		items int
		want  string
	}{
		{"default-seed1-base40", seed1Base40Config(), 120, "48a488be112ffb120c4b2ba3b9aa87716e115a10f250a99df53ce21ee8c96cf1"},
		{"ell-retry", ellRetryConfig(), 50, "79b28f7bf68db1285c326abbb057b19b577cc8855b759757b4f0eedfcd9247f0"},
	} {
		items, err := Generate(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(items) != tc.items {
			t.Errorf("%s: %d items, want %d", tc.name, len(items), tc.items)
		}
		if got := corpusDigest(items); got != tc.want {
			t.Errorf("%s: corpus digest %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestCorpusGoldenHitsELLRetry shows the ell-retry config exercises the
// retry path. Without DropELLFailures the rng stream is the same up to
// the first base that fails the ELL check, so that base is exactly the
// first one the dropping run redraws. Fewer items than slots shows a
// base was dropped after every retry failed.
func TestCorpusGoldenHitsELLRetry(t *testing.T) {
	cfg := ellRetryConfig()
	keep := cfg
	keep.DropELLFailures = false
	all, err := Generate(keep)
	if err != nil {
		t.Fatal(err)
	}
	failed := -1
	for i, it := range all {
		if !ellConvertible(it.Matrix, cfg.ELLLimit) {
			failed = i
			break
		}
	}
	if failed < 0 {
		t.Fatal("no base fails the ELL check; the config never retries")
	}
	kept, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slots := cfg.BaseCount * (1 + cfg.AugmentPerBase); len(kept) >= slots {
		t.Fatalf("%d items of %d slots; want at least one dropped base", len(kept), slots)
	}
	for i := 0; i < failed; i++ {
		if kept[i].Name != all[i].Name || !sparse.Equal(kept[i].Matrix, all[i].Matrix) {
			t.Fatalf("item %d differs before the first retry", i)
		}
	}
}

// TestGenerateWorkerInvariant requires bitwise-equal items whether the
// permutations run on the drawing goroutine alone or across the
// default worker budget.
func TestGenerateWorkerInvariant(t *testing.T) {
	for _, cfg := range []Config{smallConfig(), ellRetryConfig()} {
		cfg.AugmentPerBase = 3
		prev := obs.SetMaxWorkers(1)
		seq, err := Generate(cfg)
		obs.SetMaxWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		par, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(seq) != len(par) {
			t.Fatalf("seed %d: %d items sequential, %d with %d workers", cfg.Seed, len(seq), len(par), obs.MaxWorkers())
		}
		if a, b := corpusDigest(seq), corpusDigest(par); a != b {
			t.Fatalf("seed %d: digest %s sequential, %s with %d workers", cfg.Seed, a, b, obs.MaxWorkers())
		}
	}
}

// TestFeaturesGolden pins the Table 1 feature vectors of both golden
// corpora bit for bit, as SHA-256 digests over math.Float64bits: the
// full vectors from features.ExtractAll (per-worker scratches) and the
// cheap vectors from ExtractCheap. Each item's Scratch.Extract, through
// one scratch reused from the last item to the first so every buffer
// shrinks and is re-zeroed, must equal ExtractAll's vector. The digests
// were recorded before Extract was fused into one row sweep.
func TestFeaturesGolden(t *testing.T) {
	for _, tc := range []struct {
		name        string
		cfg         Config
		full, cheap string
	}{
		{"default-seed1-base40", seed1Base40Config(),
			"11ce1f908ec52b0e91e90535fdcb9db6f652cdb73f630499c2d75fc30a51b976",
			"dba3e7bc2a0564096539942bfb412ae19eaac41cd762f7dcd69ae26adf962f51"},
		{"ell-retry", ellRetryConfig(),
			"91f6e4c384d1e5654cee6840d0612d60ba9a8ef4d7dfd8dc8ab84901fb7175de",
			"cef885911c506f1a8799ee6b52e274d993c3c95a48b27b73bd38c22ada705a08"},
	} {
		items, err := Generate(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		ms := matrices(items)
		all := features.ExtractAll(ms)
		var s features.Scratch
		for i := len(ms) - 1; i >= 0; i-- {
			got := s.Extract(ms[i])
			for j := range got {
				if math.Float64bits(got[j]) != math.Float64bits(all[i][j]) {
					t.Fatalf("%s: %s: Scratch.Extract %s = %v, ExtractAll has %v",
						tc.name, items[i].Name, features.Names[j], got[j], all[i][j])
				}
			}
		}
		full, cheap := sha256.New(), sha256.New()
		var buf []byte
		for i, m := range ms {
			buf = appendFloat64Bits(buf[:0], all[i][:])
			full.Write(buf)
			c := s.ExtractCheap(m)
			buf = appendFloat64Bits(buf[:0], c[:])
			cheap.Write(buf)
		}
		if got := hex.EncodeToString(full.Sum(nil)); got != tc.full {
			t.Errorf("%s: Extract digest %s, want %s", tc.name, got, tc.full)
		}
		if got := hex.EncodeToString(cheap.Sum(nil)); got != tc.cheap {
			t.Errorf("%s: ExtractCheap digest %s, want %s", tc.name, got, tc.cheap)
		}
	}
}

func matrices(items []Item) []*sparse.CSR {
	ms := make([]*sparse.CSR, len(items))
	for i, it := range items {
		ms[i] = it.Matrix
	}
	return ms
}

func appendFloat64Bits(buf []byte, xs []float64) []byte {
	for _, x := range xs {
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(x))
	}
	return buf
}

// extractSink keeps BenchmarkExtractCorpus's calls from being removed.
var extractSink features.Vector

// BenchmarkExtractCorpus times one Scratch.Extract pass over the
// seed-1, 40-base corpus (120 matrices, all ten generator families), the
// per-matrix work under dataset.Build and the paper's selection pass.
func BenchmarkExtractCorpus(b *testing.B) {
	items, err := Generate(seed1Base40Config())
	if err != nil {
		b.Fatal(err)
	}
	ms := matrices(items)
	var s features.Scratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range ms {
			extractSink = s.Extract(m)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*len(ms)), "us/matrix")
}

// BenchmarkGenerateCorpus times Generate over the seed-1, 40-base corpus
// (40 bases, 80 permuted variants, all ten generator families): the rng
// draws, base assembly and Permute that paper setup spends most of its
// time in. It reports the time and the bytes allocated per corpus.
func BenchmarkGenerateCorpus(b *testing.B) {
	cfg := seed1Base40Config()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/corpus")
	b.ReportMetric(float64(ms.TotalAlloc-before)/(1<<20)/float64(b.N), "MB/corpus")
}

// BenchmarkPermute times Permute alone over the same corpus's 40 bases,
// each with AugmentPerBase variants' permutations from drawPerms, drawn
// before the timer starts.
func BenchmarkPermute(b *testing.B) {
	cfg := seed1Base40Config()
	items, err := Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	per := 1 + cfg.AugmentPerBase
	if len(items) != cfg.BaseCount*per {
		b.Fatalf("%d items, want %d: a dropped base shifts the bases' slots", len(items), cfg.BaseCount*per)
	}
	type job struct {
		m      *sparse.CSR
		rp, cp []int
	}
	var jobs []job
	rng := rand.New(rand.NewSource(cfg.Seed))
	for k := 0; k < len(items); k += per {
		rows, cols := items[k].Matrix.Dims()
		for v := 1; v < per; v++ {
			rp, cp := drawPerms(rng, rows, cols)
			jobs = append(jobs, job{items[k].Matrix, rp, cp})
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, j := range jobs {
			if _, err := j.m.Permute(j.rp, j.cp); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/corpus")
}
