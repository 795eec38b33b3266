package sparse

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/obs"
)

// csrIdentical is bitwise equality: same dims, same index arrays, same
// value bits (so -0 vs 0 and NaN payloads count). The fast path promises
// byte-identical output to the streaming reader, not just numerical
// closeness.
func csrIdentical(a, b *CSR) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	if len(a.rowPtr) != len(b.rowPtr) || len(a.colIdx) != len(b.colIdx) || len(a.vals) != len(b.vals) {
		return false
	}
	for i := range a.rowPtr {
		if a.rowPtr[i] != b.rowPtr[i] {
			return false
		}
	}
	for i := range a.colIdx {
		if a.colIdx[i] != b.colIdx[i] {
			return false
		}
	}
	for i := range a.vals {
		if math.Float64bits(a.vals[i]) != math.Float64bits(b.vals[i]) {
			return false
		}
	}
	return true
}

// checkParsersAgree runs both parsers over data and fails unless they
// reach the same verdict — and, on acceptance, the same matrix bit for
// bit.
func checkParsersAgree(t *testing.T, data string) {
	t.Helper()
	sm, serr := ReadMatrixMarket(strings.NewReader(data))
	fm, ferr := ReadMatrixMarketBytes([]byte(data))
	if (serr == nil) != (ferr == nil) {
		t.Fatalf("verdicts disagree on %q:\n  streaming: %v\n  bytes:     %v", data, serr, ferr)
	}
	if serr != nil {
		return
	}
	if !csrIdentical(sm, fm) {
		t.Fatalf("parsers disagree on %q:\n  streaming: %dx%d nnz %d\n  bytes:     %dx%d nnz %d",
			data, sm.rows, sm.cols, sm.NNZ(), fm.rows, fm.cols, fm.NNZ())
	}
}

// TestReadMatrixMarketDifferential pins the fast path to the streaming
// reader across valid, degenerate and malformed inputs, including the
// non-ASCII-whitespace cases where the fast path must fall back to keep
// identical verdicts.
func TestReadMatrixMarketDifferential(t *testing.T) {
	cases := []struct {
		name string
		data string
	}{
		{"basic real", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 3.5\n2 2 -1.25\n"},
		{"integer type", "%%MatrixMarket matrix coordinate integer general\n2 2 2\n1 2 7\n2 1 -3\n"},
		{"pattern", "%%MatrixMarket matrix coordinate pattern general\n2 3 2\n1 1\n2 3\n"},
		{"pattern extra fields", "%%MatrixMarket matrix coordinate pattern general\n2 3 1\n1 1 junk trailing\n"},
		{"symmetric", "%%MatrixMarket matrix coordinate real symmetric\n3 3 3\n1 1 1\n3 1 2\n2 2 4\n"},
		{"skew-symmetric", "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 1\n2 1 4\n"},
		{"skew diagonal kept", "%%MatrixMarket matrix coordinate real skew-symmetric\n2 2 2\n2 1 4\n1 1 9\n"},
		{"zero nnz", "%%MatrixMarket matrix coordinate real general\n3 4 0\n"},
		{"uppercase header", "%%MATRIXMARKET MATRIX COORDINATE REAL GENERAL\n1 1 1\n1 1 2\n"},
		{"mixed case symmetry", "%%MatrixMarket matrix coordinate Real Symmetric\n2 2 1\n2 1 5\n"},
		{"crlf endings", "%%MatrixMarket matrix coordinate real general\r\n2 2 1\r\n1 2 8\r\n"},
		{"no trailing newline", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.5"},
		{"comments and blanks", "%%MatrixMarket matrix coordinate real general\n% a comment\n\n  \n3 3 1\n% mid comment\n2 2 6\n\n"},
		{"tabs and extra spaces", "%%MatrixMarket matrix coordinate real general\n  2\t2  1 \n 1\t1\t 4.5  \n"},
		{"vertical tab separator", "%%MatrixMarket matrix coordinate real general\n2\v2\v1\n1\v1\v2\n"},
		{"carriage return separator", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\r1\r2\n"},
		{"duplicates summed", "%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 1\n1 1 2\n2 1 5\n"},
		{"duplicates cancel", "%%MatrixMarket matrix coordinate real general\n1 1 2\n1 1 1\n1 1 -1\n"},
		{"explicit zero dropped", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 0\n2 2 3\n"},
		{"entry extra fields ignored", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.5 these are ignored\n"},
		{"seventeen digit mantissas", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 0.49671415301123271\n2 2 -1.7612069338999298e-12\n"},
		{"huge exponent", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1e300\n"},
		{"tiny exponent", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 4.9e-324\n"},
		{"overflow to inf", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1e999\n"},
		{"negative zero value", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 -0.0\n"},
		{"leading dot", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 .5\n"},
		{"trailing dot", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 5.\n"},
		{"plus signs", "%%MatrixMarket matrix coordinate real general\n1 1 1\n+1 +1 +2.5e+1\n"},
		{"nan value", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 nan\n"},
		{"inf value", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 +Inf\n"},
		{"underscored value rejected", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1_0\n"},
		{"hex float without exponent", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 0x10\n"},
		{"hex float with exponent", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 0x1p-2\n"},
		{"leading zero indices", "%%MatrixMarket matrix coordinate real general\n2 2 1\n01 02 3\n"},

		// Edges of scanCanonical, the fused scan of WriteMatrixMarket's
		// "I J V\n" shape, and of the eight-digit steps both scanners use.
		{"fraction of 8 digits", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 0.12345678\n"},
		{"fraction of 16 digits", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 -1.234567890123456\n"},
		{"fraction of 19 digits", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 9.876543210987654321\n"},
		{"fraction of 20 digits", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1.2345678901234567890\n"},
		{"integer of 19 digits", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 9999999999999999999\n"},
		{"8 digits then slash", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 0.12345678/0000000\n2 2 1\n"},
		{"8 digits then colon", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 12345678:0000000\n2 2 1\n"},
		{"8 digits then x", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.12345678x0000000\n2 2 1\n"},
		{"slash inside 8 bytes", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 0.1234/678\n2 2 1\n"},
		{"colon inside 8 bytes", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 0.1234:678\n2 2 1\n"},
		{"exponent marker only", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1e\n"},
		{"exponent sign only", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1e+\n"},
		{"four exponent digits", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1e-0005\n"},
		{"exponent 308", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 1E+308\n"},
		{"trailing space", "%%MatrixMarket matrix coordinate real general\n1 1 2\n1 1 2.5 \n1 1 -0.5\n"},
		{"trailing tab", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.5\t\n"},
		{"two spaces before column", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1  2 2.5\n"},
		{"two spaces before value", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2  2.5\n"},
		{"pattern trailing space", "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 2 \n"},
		{"10-digit row index", "%%MatrixMarket matrix coordinate real general\n2 2 1\n4294967297 1 1\n"},
		{"10-digit column index", "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 4294967297\n"},
		{"11-digit row index", "%%MatrixMarket matrix coordinate real general\n2 2 1\n42949672961 1 1\n"},
		{"canonical index past size line", "%%MatrixMarket matrix coordinate real general\n2 3 2\n1 1 0.5\n1 4 0.25\n"},
		{"canonical then out of order", "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 1.5\n1 3 2.5\n2 2 -3\n1 2 0.75\n"},
		{"canonical then repeat", "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 1.5\n1 3 2.5\n2 2 -3\n2 2 0.75\n"},
		{"canonical then repeat cancels", "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1.5\n2 2 -3\n2 2 3\n"},

		{"empty", ""},
		{"newline only", "\n"},
		{"garbage header", "garbage\n1 1 1\n"},
		{"six field header", "%%MatrixMarket matrix coordinate real general extra\n1 1 1\n1 1 1\n"},
		{"four field header", "%%MatrixMarket matrix coordinate real\n1 1 1\n1 1 1\n"},
		{"array container", "%%MatrixMarket matrix array real general\n1 1\n1\n"},
		{"complex values", "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n"},
		{"hermitian", "%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n"},
		{"header only", "%%MatrixMarket matrix coordinate real general\n"},
		{"comments then eof", "%%MatrixMarket matrix coordinate real general\n% only comments\n"},
		{"size line garbage", "%%MatrixMarket matrix coordinate real general\nx y z\n"},
		{"size line trailing garbage", "%%MatrixMarket matrix coordinate real general\n3 3 4 extra\n1 1 1\n1 2 1\n2 1 1\n2 2 1\n"},
		{"size line two fields", "%%MatrixMarket matrix coordinate real general\n3 3\n"},
		{"size line hex", "%%MatrixMarket matrix coordinate real general\n0x2 2 1\n1 1 1\n"},
		{"size line float", "%%MatrixMarket matrix coordinate real general\n2.0 2 1\n1 1 1\n"},
		{"negative rows", "%%MatrixMarket matrix coordinate real general\n-2 2 1\n1 1 1\n"},
		{"zero rows", "%%MatrixMarket matrix coordinate real general\n0 0 0\n"},
		{"negative declared", "%%MatrixMarket matrix coordinate real general\n2 2 -1\n"},
		{"adversarial declared", "%%MatrixMarket matrix coordinate real general\n1 1 4611686018427387903\n1 1 1\n"},
		{"declared overflow", "%%MatrixMarket matrix coordinate real symmetric\n2 2 9223372036854775807\n1 1 1\n"},
		{"index overflow", "%%MatrixMarket matrix coordinate real general\n2 2 1\n99999999999999999999 1 1\n"},
		{"index int64 min", "%%MatrixMarket matrix coordinate real general\n2 2 1\n-9223372036854775808 1 1\n"},
		{"out of range", "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 3 1\n"},
		{"zero index", "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n"},
		{"short entry", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n"},
		{"short pattern entry", "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1\n"},
		{"bad row index", "%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1\n"},
		{"bad value", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 abc\n"},
		{"count mismatch low", "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n"},
		{"count mismatch high", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n2 2 1\n"},
		{"asymmetric mirror out of range", "%%MatrixMarket matrix coordinate real symmetric\n2 3 1\n1 3 5\n"},

		{"nbsp separator", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\u00a01\u00a02.5\n"},
		{"nbsp in size line", "%%MatrixMarket matrix coordinate real general\n2\u00a02 1\n1 1 1\n"},
		{"nbsp before comment", "%%MatrixMarket matrix coordinate real general\n\u00a0% comment\n2 2 1\n1 1 1\n"},
		{"nbsp blank line", "%%MatrixMarket matrix coordinate real general\n\u00a0\n2 2 1\n1 1 1\n"},
		{"next line separator", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1\u00851\u00852.5\n"},
		{"unicode in header", "%%MatrixMarket\u00a0matrix coordinate real general\n1 1 1\n1 1 1\n"},
		{"trailing nbsp after value", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.5\u00a0x\n"},
		{"invalid utf8 byte", "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.5\xff\n"},
		{"nbsp after header", "%%MatrixMarket matrix coordinate real general\u00a0\n1 1 1\n1 1 1\n"},
		{"sixth header field non-ascii", "%%MatrixMarket matrix coordinate real general \u00e9\n1 1 1\n1 1 1\n"},
		{"header leading whitespace", " \f%%MatrixMarket\vmatrix coordinate\freal general\n1 1 1\n1 1 1\n"},
		{"header only crlf", "%%MatrixMarket matrix coordinate real general\r\n"},
		{"header only no newline", "%%MatrixMarket matrix coordinate real general"},
		{"nbsp after size line", "%%MatrixMarket matrix coordinate real general\n2 2 1\u00a0\n1 1 1\n"},
		{"nbsp inside size line", "%%MatrixMarket matrix coordinate real general\n2 2 \u00a01\n1 1 1\n"},
		{"size line sign only", "%%MatrixMarket matrix coordinate real general\n+ 2 1\n1 1 1\n"},
		{"size line twenty digits", "%%MatrixMarket matrix coordinate real general\n2 2 00000000000000000001\n1 1 1\n"},
		{"size line overflow", "%%MatrixMarket matrix coordinate real general\n9223372036854775808 2 1\n1 1 1\n"},
		{"crlf size line", "%%MatrixMarket matrix coordinate real general\n% c\r\n2 2 1 \r\n1 1 1\n"},
		{"size line at eof", "%%MatrixMarket matrix coordinate real general\n2 2 0"},
		{"five million rows", oversizedBodies[0]},
		{"two hundred million columns", oversizedBodies[1]},
		{"two billion rows", oversizedBodies[2]},
		{"two billion columns", oversizedBodies[3]},
		{"rows past int32", oversizedBodies[4]},
		{"rows at the bound", sizeLineBody(maxDim, 1, 0)},
		{"rows past the bound", sizeLineBody(maxDim+1, 1, 0)},
		{"columns at the bound", sizeLineBody(1, maxDim, 0)},
		{"columns past the bound", sizeLineBody(1, maxDim+1, 0)},
		{"rows at the declared entries", unheldBodies[0]},
		{"rows past the declared entries", sizeLineBody(maxDim+2, 1, maxDim+1)},
		{"columns at the declared entries", unheldBodies[1]},
		{"columns past the declared entries", sizeLineBody(1, maxDim+2, maxDim+1)},
		{"two billion square at the declared entries", unheldBodies[2]},
		{"int32 square at the declared entries", unheldBodies[3]},
		{"comment at eof", "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n% end"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { checkParsersAgree(t, tc.data) })
	}

	// Lines at the caps: maxLineLen-2 bytes is the longest line the
	// fast path parses itself, and maxLineLen bytes is past what the
	// streaming reader's scanner accepts.
	const hdr = "%%MatrixMarket matrix coordinate real general"
	for _, n := range []int{maxLineLen - 2, maxLineLen} {
		pad := func(line string) string { return line + strings.Repeat(" ", n-len(line)) }
		for _, tc := range []struct{ name, data string }{
			{"header", pad(hdr) + "\n1 1 1\n1 1 2\n"},
			{"comment", hdr + "\n" + pad("% c") + "\n1 1 1\n1 1 2\n"},
			{"size line", hdr + "\n" + pad("1 1 1") + "\n1 1 2\n"},
			{"entry", hdr + "\n1 1 1\n" + pad("1 1 2") + "\n"},
			// Canonical in shape; only a long exponent makes it that long.
			{"canonical entry", hdr + "\n1 1 1\n1 1 1e" + strings.Repeat("0", n-len("1 1 1e")) + "\n"},
			{"trailing blanks", hdr + "\n1 1 1\n1 1 2\n" + pad("") + "\n"},
		} {
			t.Run(fmt.Sprintf("%s of %d bytes", tc.name, n), func(t *testing.T) { checkParsersAgree(t, tc.data) })
		}
	}
}

// TestReadMatrixMarketBytesRandomised cross-checks the parsers over
// generated matrices with WriteMatrixMarket's own %.17g output — the
// mantissa shapes the serve path actually receives.
func TestReadMatrixMarketBytesRandomised(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		rows := 1 + rng.Intn(40)
		cols := 1 + rng.Intn(40)
		tr := NewTriplet(rows, cols)
		nnz := rng.Intn(200)
		for k := 0; k < nnz; k++ {
			tr.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64()*math.Pow(10, float64(rng.Intn(9)-4)))
		}
		var sb strings.Builder
		if err := WriteMatrixMarket(&sb, tr.ToCSR()); err != nil {
			t.Fatalf("trial %d: write: %v", trial, err)
		}
		checkParsersAgree(t, sb.String())
	}
}

// TestAdversarialSizeLineDoesNotPreallocate would OOM (or panic on the
// overflowed doubling) before the reservation clamps landed; now both
// parsers just report the count mismatch.
func TestAdversarialSizeLineDoesNotPreallocate(t *testing.T) {
	for _, data := range []string{
		"%%MatrixMarket matrix coordinate real general\n1 1 4611686018427387903\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real symmetric\n1 1 9223372036854775807\n1 1 1\n",
	} {
		if _, err := ReadMatrixMarket(strings.NewReader(data)); err == nil {
			t.Fatalf("streaming parser accepted %q", data)
		}
		if _, err := ReadMatrixMarketBytes([]byte(data)); err == nil {
			t.Fatalf("bytes parser accepted %q", data)
		}
	}
}

// sizeLineBody is a body whose size line declares rows x cols and the
// given entry count, and which holds no entry.
func sizeLineBody(rows, cols, entries int) string {
	return fmt.Sprintf("%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n", rows, cols, entries)
}

// oversizedBodies declare more rows or columns than they may. Before
// the bound, the first (58 bytes) made the readers allocate 20 MB, the
// second (60 bytes) made feature extraction allocate 200 MB, and the
// next two would have asked for gigabytes. The last is past what an
// int32 index reaches, however many entries it declares.
var oversizedBodies = []string{
	sizeLineBody(5_000_000, 1, 0),
	sizeLineBody(1, 200_000_000, 0),
	sizeLineBody(2_000_000_000, 1, 0),
	sizeLineBody(1, 2_000_000_000, 0),
	sizeLineBody(math.MaxInt32+1, 1, math.MaxInt32+1),
}

// unheldBodies declare as many entries as rows or columns, so they pass
// the size line, and are rejected for the entries they lack.
var unheldBodies = []string{
	sizeLineBody(maxDim+1, 1, maxDim+1),
	sizeLineBody(1, maxDim+1, maxDim+1),
	sizeLineBody(2_000_000_000, 2_000_000_000, 2_000_000_000),
	sizeLineBody(math.MaxInt32, math.MaxInt32, math.MaxInt32),
}

// TestSizeLineDimsBounded pins checkSizes in both readers. A size line
// may declare maxDim rows or columns with no entries, and past that as
// many as it declares entries, up to math.MaxInt32, but not one more:
// the (maxDim+1)-square identity reads, and reads alike in both.
// A body the size line rejects allocates under 1 MB in either reader,
// whatever it declares; so does any rejection in the bytes reader,
// which clamps its reservation by the body's length. The streaming
// reader, not knowing the length, reserves up to maxStreamReserve
// entries on the declared count before it finds them missing.
func TestSizeLineDimsBounded(t *testing.T) {
	readers := []struct {
		name string
		read func(string) (*CSR, error)
	}{
		{"streaming", func(d string) (*CSR, error) { return ReadMatrixMarket(strings.NewReader(d)) }},
		{"bytes", func(d string) (*CSR, error) { return ReadMatrixMarketBytes([]byte(d)) }},
	}
	identity := fmt.Appendf(nil, "%%%%MatrixMarket matrix coordinate pattern general\n%d %d %d\n", maxDim+1, maxDim+1, maxDim+1)
	for i := 1; i <= maxDim+1; i++ {
		identity = fmt.Appendf(identity, "%d %d\n", i, i)
	}
	accepted := []struct {
		body            string
		rows, cols, nnz int
	}{
		{sizeLineBody(maxDim, 1, 0), maxDim, 1, 0},
		{sizeLineBody(1, maxDim, 0), 1, maxDim, 0},
		{string(identity), maxDim + 1, maxDim + 1, maxDim + 1},
	}
	pastBound := append([]string{
		sizeLineBody(maxDim+1, 1, 0),
		sizeLineBody(1, maxDim+1, 0),
		sizeLineBody(maxDim+2, 1, maxDim+1),
		sizeLineBody(1, maxDim+2, maxDim+1),
	}, oversizedBodies...)
	for _, a := range accepted {
		var read []*CSR
		for _, r := range readers {
			m, err := r.read(a.body)
			if err != nil {
				t.Fatalf("%s: %dx%d with %d entries rejected: %v", r.name, a.rows, a.cols, a.nnz, err)
			}
			if rows, cols := m.Dims(); rows != a.rows || cols != a.cols || m.NNZ() != a.nnz {
				t.Fatalf("%s: read %dx%d with %d entries, want %dx%d with %d", r.name, rows, cols, m.NNZ(), a.rows, a.cols, a.nnz)
			}
			read = append(read, m)
		}
		if !csrIdentical(read[0], read[1]) {
			t.Fatalf("the readers disagree on %dx%d with %d entries", a.rows, a.cols, a.nnz)
		}
	}
	for _, r := range readers {
		for _, body := range append(pastBound, unheldBodies...) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := r.read(body)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%s: accepted %q", r.name, body)
			}
			past := slices.Contains(pastBound, body)
			if strings.Contains(err.Error(), "over the bound") != past {
				t.Errorf("%s: %q rejected with %q; want the dimension bound's verdict %v", r.name, body, err, past)
			}
			alloc := after.TotalAlloc - before.TotalAlloc
			t.Logf("%s: %q rejected after %d bytes allocated", r.name, body, alloc)
			if (past || r.name == "bytes") && alloc >= 1<<20 {
				t.Errorf("%s: rejecting %q allocated %d bytes, want under 1 MiB", r.name, body, alloc)
			}
		}
	}
}

// TestSizeLineTrailingGarbageRejected pins the strictness fix: the old
// fmt.Sscan parse silently accepted extra tokens after the entry count.
func TestSizeLineTrailingGarbageRejected(t *testing.T) {
	data := "%%MatrixMarket matrix coordinate real general\n3 3 4 extra\n1 1 1\n1 2 1\n2 1 1\n2 2 1\n"
	if _, err := ReadMatrixMarket(strings.NewReader(data)); err == nil {
		t.Fatal("streaming parser accepted a size line with trailing garbage")
	}
	if _, err := ReadMatrixMarketBytes([]byte(data)); err == nil {
		t.Fatal("bytes parser accepted a size line with trailing garbage")
	}
}

// TestParseFloatBytesMatchesStrconv pins the reader's value path —
// scanFloat's fused Clinger/Eisel-Lemire conversion, then
// parseFloatBytes for the tokens scanFloat declines — to
// strconv.ParseFloat bit for bit across formatted corpora: uniform
// mantissa bits, every %.17g/%g/%e shape, denormals, huge exponents.
func TestParseFloatBytesMatchesStrconv(t *testing.T) {
	check := func(s string) {
		t.Helper()
		want, werr := strconv.ParseFloat(s, 64)
		tok := []byte(s)
		got, ts, te, _, st, ok := scanFloat(tok, 0)
		if st != scanOK || ts != 0 || te != len(tok) {
			t.Fatalf("scanFloat(%q) scanned [%d,%d) with status %d", s, ts, te, st)
		}
		var gerr error
		if !ok {
			got, gerr = parseFloatBytes(tok)
		}
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("verdicts differ on %q: strconv %v, reader %v", s, werr, gerr)
		}
		if werr == nil && math.Float64bits(want) != math.Float64bits(got) {
			t.Fatalf("value differs on %q: strconv %x, reader %x",
				s, math.Float64bits(want), math.Float64bits(got))
		}
	}
	fixed := []string{
		"0", "-0", "0.0", "1", "-1", "1e0", "1e-0", "9007199254740992", "9007199254740993",
		"1.7976931348623157e308", "1.7976931348623159e308", "4.9e-324", "2.4e-324", "5e-324",
		"2.2250738585072014e-308", "2.2250738585072011e-308", "1e309", "-1e309", "1e-400",
		"0.3", "0.1", "0.2", "123456789012345678901234567890", "1e22", "1e23", "-1e22",
		"9999999999999999999", "99999999999999999999", "1.00000000000000011102230246251565404236316680908203125",
	}
	for _, s := range fixed {
		check(s)
	}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 50000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		check(strconv.FormatFloat(f, 'g', 17, 64))
		check(strconv.FormatFloat(f, 'g', -1, 64))
		check(strconv.FormatFloat(f, 'e', 16, 64))
	}
	for i := 0; i < 50000; i++ {
		f := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		check(strconv.FormatFloat(f, 'g', 17, 64))
	}
}

func buildParseBody(t testing.TB, entries int) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(7))
	rows, cols := 64, 64
	tr := NewTriplet(rows, cols)
	for k := 0; k < entries; k++ {
		tr.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
	}
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, tr.ToCSR()); err != nil {
		t.Fatalf("building bench body: %v", err)
	}
	return buf.Bytes()
}

// TestParseBytesScratchAllocs is the allocation-regression guard for the
// pooled fast path: a warmed scratch parse allocates only the returned
// CSR (struct + rowPtr + colIdx + vals), even with %.17g mantissas,
// which resolve in elParse.
func TestParseBytesScratchAllocs(t *testing.T) {
	if obs.RaceEnabled {
		t.Skip("allocation counts are inflated under -race")
	}
	body := buildParseBody(t, 400)
	s := GetParseScratch()
	defer PutParseScratch(s)
	if _, err := ReadMatrixMarketBytesScratch(body, s); err != nil {
		t.Fatalf("warm parse: %v", err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := ReadMatrixMarketBytesScratch(body, s); err != nil {
			panic(err)
		}
	})
	if allocs > 6 {
		t.Fatalf("pooled parse allocates %.1f objects/op, want <= 6 (CSR struct + 3 arrays)", allocs)
	}
}

func BenchmarkReadMatrixMarketStream(b *testing.B) {
	body := buildParseBody(b, 4000)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadMatrixMarket(bytes.NewReader(body)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadMatrixMarketBytes times the fast path over one set of
// entries in two orders: as WriteMatrixMarket writes them (sorted), and
// the same lines in a fixed random order (shuffled), which assembleCSR
// must sort.
func BenchmarkReadMatrixMarketBytes(b *testing.B) {
	sorted := buildParseBody(b, 4000)
	lines := bytes.SplitAfter(sorted, []byte("\n"))
	entries := slices.Clone(lines[2 : len(lines)-1]) // after header and size line, before the final empty split
	rand.New(rand.NewSource(11)).Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	shuffled := bytes.Join(append(lines[:2:2], entries...), nil)
	for _, bc := range []struct {
		name string
		body []byte
	}{{"sorted", sorted}, {"shuffled", shuffled}} {
		b.Run(bc.name, func(b *testing.B) {
			s := GetParseScratch()
			defer PutParseScratch(s)
			b.SetBytes(int64(len(bc.body)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ReadMatrixMarketBytesScratch(bc.body, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
