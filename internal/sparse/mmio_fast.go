package sparse

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/bits"
	"strconv"
	"sync"
	"unicode/utf8"
	"unsafe"
)

// The byte-level MatrixMarket fast path. ReadMatrixMarketBytes parses
// the in-memory body directly — no bufio.Scanner, no strings.Fields, no
// fmt.Sscan. Each entry line is first offered to scanCanonical, one
// fused scan of the exact "I J V\n" shape WriteMatrixMarket writes, with
// value digits read eight at a time. Any other line, like the header
// and the size line, goes to one byte-class scanner (scanToken,
// scanInt, scanFloat) from its first byte. Triplets and CSR staging
// come from pooled scratch, and assembleCSR copies triplets that are
// already in row-major order instead of sorting them. The CSR output is
// byte-identical to the streaming reader's (same assembly algorithm,
// same float rounding, same accept/reject verdicts). Inputs the byte
// parser cannot model bit-for-bit (non-ASCII whitespace, lines past the
// streaming scanner's token limit) fall back to ReadMatrixMarket
// transparently, so the two entry points can never disagree.

// ParseScratch holds the reusable buffers one MatrixMarket parse needs:
// the triplet accumulator and the CSR-assembly staging arrays. The zero
// value is ready to use; a scratch amortises parse allocations to the
// (rare) regrowth of these buffers, mirroring features.Scratch on the
// extraction side. A ParseScratch must not be shared concurrently.
type ParseScratch struct {
	// Triplet accumulator (row, col, value per entry).
	r, c []int32
	v    []float64
	// CSR assembly: counting-sort offsets and per-row staging.
	start, pos []int32
	cs         []int32
	vs         []float64
	// Long-row sort staging (see sortRow).
	pairs []colVal
}

var parseScratchPool = sync.Pool{New: func() any { return new(ParseScratch) }}

// GetParseScratch returns a pooled scratch. Return it with
// PutParseScratch when the parse (and any use of the returned CSR's
// construction) is done; the CSR itself never aliases scratch memory.
func GetParseScratch() *ParseScratch {
	return parseScratchPool.Get().(*ParseScratch)
}

// PutParseScratch returns a scratch to the pool. nil is a no-op.
func PutParseScratch(s *ParseScratch) {
	if s != nil {
		parseScratchPool.Put(s)
	}
}

func grow32(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

func growF64(buf *[]float64, n int) []float64 {
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// assembleCSR builds the canonical CSR from unordered triplets: counting
// sort by row, per-row column sort, duplicate summing, explicit-zero
// dropping. It is the single assembly used by both Triplet.ToCSR and the
// byte fast path, so the two produce bit-identical values (the per-row
// sort is not stable, and duplicate-sum order depends on it). Triplets
// already in strict row-major order, as WriteMatrixMarket writes them,
// skip the sort: they hold no duplicates to sum and have only one sorted
// order, so copying their non-zero entries gives the same CSR bit for
// bit. Staging buffers come from s; the returned CSR owns fresh memory.
func assembleCSR(rows, cols int, r, c []int32, v []float64, s *ParseScratch) *CSR {
	n := len(v)
	rowPtr := make([]int32, rows+1)
	colIdx := make([]int32, 0, n)
	vals := make([]float64, 0, n)
	if rowMajor(r, c) {
		for k, x := range v {
			if x != 0 {
				rowPtr[r[k]+1]++
				colIdx = append(colIdx, c[k])
				vals = append(vals, x)
			}
		}
	} else {
		start := grow32(&s.start, rows+1)
		clear(start)
		for _, ri := range r {
			start[ri+1]++
		}
		for i := 0; i < rows; i++ {
			start[i+1] += start[i]
		}
		pos := grow32(&s.pos, rows)
		copy(pos, start[:rows])
		cScratch := grow32(&s.cs, n)
		vScratch := growF64(&s.vs, n)
		for k := 0; k < n; k++ {
			p := pos[r[k]]
			pos[r[k]]++
			cScratch[p] = c[k]
			vScratch[p] = v[k]
		}
		for i := 0; i < rows; i++ {
			lo, hi := int(start[i]), int(start[i+1])
			seg := cScratch[lo:hi]
			vseg := vScratch[lo:hi]
			sortRow(seg, vseg, s)
			// Merge duplicates and drop zeros.
			for k := 0; k < len(seg); {
				j := k + 1
				sum := vseg[k]
				for j < len(seg) && seg[j] == seg[k] {
					sum += vseg[j]
					j++
				}
				if sum != 0 {
					colIdx = append(colIdx, seg[k])
					vals = append(vals, sum)
					rowPtr[i+1]++
				}
				k = j
			}
		}
	}
	for i := 0; i < rows; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	return &CSR{rows: rows, cols: cols, rowPtr: rowPtr, colIdx: colIdx, vals: vals}
}

// rowMajor reports whether the non-negative (r[k], c[k]) pairs strictly
// increase, rows first; it stops at the first pair out of order.
func rowMajor(r, c []int32) bool {
	c = c[:len(r)]
	prev := int64(-1)
	for k, ri := range r {
		key := int64(ri)<<32 | int64(c[k])
		if key <= prev {
			return false
		}
		prev = key
	}
	return true
}

// ReadMatrixMarketBytes parses an in-memory MatrixMarket coordinate
// body into CSR — the entry point for request bodies that were already
// read (and size-bounded) by a network handler. It runs the byte-level
// fast path over a pooled scratch; output and verdicts are identical to
// ReadMatrixMarket over the same bytes, so it too rejects a size line
// declaring more rows or columns than max(1<<20, its entry count), or
// than math.MaxInt32.
func ReadMatrixMarketBytes(data []byte) (*CSR, error) {
	s := GetParseScratch()
	defer PutParseScratch(s)
	return ReadMatrixMarketBytesScratch(data, s)
}

// ReadMatrixMarketBytesScratch is ReadMatrixMarketBytes over an
// explicit scratch, for callers (batch workers, benchmarks) that hold
// one scratch across many parses.
func ReadMatrixMarketBytesScratch(data []byte, s *ParseScratch) (*CSR, error) {
	m, handled, err := readMatrixMarketFast(data, s)
	if !handled {
		return ReadMatrixMarket(bytes.NewReader(data))
	}
	return m, err
}

// maxLineLen mirrors the streaming reader's bufio.Scanner token cap;
// lines near it fall back to the streaming path so over-long-line
// verdicts stay identical.
const maxLineLen = 1 << 24

// asciiLowerEq reports tok == want after ASCII lowercasing of tok
// (callers have already established tok is pure ASCII).
func asciiLowerEq(tok []byte, want string) bool {
	if len(tok) != len(want) {
		return false
	}
	for i := 0; i < len(tok); i++ {
		b := tok[i]
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		if b != want[i] {
			return false
		}
	}
	return true
}

// asciiLower allocates a lowercased copy — error paths only.
func asciiLower(tok []byte) string {
	out := make([]byte, len(tok))
	for i, b := range tok {
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		out[i] = b
	}
	return string(out)
}

// pow10tab holds the exactly-representable powers of ten.
var pow10tab = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// Eisel-Lemire decimal→binary conversion for the mantissa/exponent
// shapes Clinger's single-multiply path cannot handle exactly — in
// particular WriteMatrixMarket's own %.17g output, whose 17 significant
// digits exceed 2^53. The product of the exact decimal mantissa with a
// 128-bit rounded-up approximation of 10^q determines the correctly
// rounded float64 except in provably ambiguous cases, which report !ok
// and fall back to strconv's slow path.

const (
	elMinExp10 = -348
	elMaxExp10 = 347
)

// elPow10[q-elMinExp10] is the normalized 128-bit mantissa {lo, hi} of
// 10^q, rounded up. Generated at init from exact big-integer arithmetic
// (10^q and 5^q share mantissa bits) instead of an embedded table.
var elPow10 [elMaxExp10 - elMinExp10 + 1][2]uint64

func init() {
	one := big.NewInt(1)
	five := big.NewInt(5)
	mask64 := new(big.Int).Sub(new(big.Int).Lsh(one, 64), one)
	var m big.Int
	for q := elMinExp10; q <= elMaxExp10; q++ {
		if q >= 0 {
			m.Exp(five, big.NewInt(int64(q)), nil)
			if l := m.BitLen(); l <= 128 {
				m.Lsh(&m, uint(128-l))
			} else {
				shift := uint(l - 128)
				adj := new(big.Int).Sub(new(big.Int).Lsh(one, shift), one)
				m.Add(&m, adj)
				m.Rsh(&m, shift) // ceil(5^q / 2^shift)
			}
		} else {
			d := new(big.Int).Exp(five, big.NewInt(int64(-q)), nil)
			num := new(big.Int).Lsh(one, uint(127+d.BitLen()))
			num.Add(num, d)
			num.Sub(num, one)
			m.Div(num, d) // ceil(2^(127+bits(d)) / 5^-q)
		}
		if m.BitLen() != 128 {
			panic("sparse: power-of-ten table entry not normalized")
		}
		elPow10[q-elMinExp10][0] = new(big.Int).And(&m, mask64).Uint64()
		elPow10[q-elMinExp10][1] = new(big.Int).Rsh(&m, 64).Uint64()
	}
}

// elParse converts man × 10^exp10 (man ≠ 0, exactly the decimal digits
// — no truncation) to the correctly rounded float64. ok=false means the
// rounding is ambiguous at this precision, or the result is subnormal
// or out of range; the caller then defers to strconv.
func elParse(man uint64, exp10 int, neg bool) (float64, bool) {
	if exp10 < -307 || exp10 > 288 {
		return 0, false // may be subnormal or infinite: strconv decides
	}
	pow := &elPow10[exp10-elMinExp10]
	clz := bits.LeadingZeros64(man)
	w := man << uint(clz)
	exp2 := (217706*exp10)>>16 + 64 + 1023 - clz // 217706/2^16 ≈ log2(10)

	xHi, xLo := bits.Mul64(w, pow[1])
	if xHi&0x1FF == 0x1FF && xLo+w < w {
		// The truncated product is too close to a rounding boundary:
		// refine with the low word of the 128-bit power.
		yHi, yLo := bits.Mul64(w, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+w < w {
			return 0, false // still ambiguous at 128 bits
		}
		xHi, xLo = mergedHi, mergedLo
	}

	msb := int(xHi >> 63)
	mantissa := xHi >> (uint(msb) + 9)
	exp2 -= 1 ^ msb

	if xLo == 0 && xHi&0x1FF == 0 && mantissa&3 == 1 {
		return 0, false // exactly half-way: round-to-even needs the full product
	}
	mantissa += mantissa & 1 // round up
	mantissa >>= 1
	if mantissa>>53 > 0 {
		mantissa >>= 1
		exp2++
	}
	if exp2 <= 0 || exp2 >= 0x7FF {
		return 0, false // subnormal or overflow: strconv decides
	}
	bits64 := uint64(exp2)<<52 | mantissa&0x000FFFFFFFFFFFFF
	if neg {
		bits64 |= 1 << 63
	}
	return math.Float64frombits(bits64), true
}

// bytesString views b as a string without copying. The result must not
// be retained past b's lifetime; strconv.ParseFloat's success path does
// not retain its argument.
func bytesString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// parseFloatBytes parses tok exactly like strconv.ParseFloat(string(tok), 64)
// without allocating on the success path. The reader calls it only for
// the tokens scanFloat declines.
func parseFloatBytes(tok []byte) (float64, error) {
	f, err := strconv.ParseFloat(bytesString(tok), 64)
	if err != nil {
		// The error retains its input string; rebuild it over a stable
		// copy, since tok aliases a caller-owned request buffer.
		return strconv.ParseFloat(string(tok), 64)
	}
	return f, nil
}

type scanStatus int

const (
	scanOK scanStatus = iota
	scanEOL
	scanFallback
)

// Byte classes for the scanner that reads the header, the size line and
// the entries: one table load replaces the whitespace switch plus the
// non-ASCII comparison.
const (
	clTok   = 0 // ordinary token byte
	clSpace = 1 // intra-line ASCII whitespace
	clEOL   = 2 // '\n'
	clHigh  = 3 // >= utf8.RuneSelf: fall back to the streaming reader
)

var byteClass [256]uint8

func init() {
	for _, c := range []byte{' ', '\t', '\v', '\f', '\r'} {
		byteClass[c] = clSpace
	}
	byteClass['\n'] = clEOL
	for i := utf8.RuneSelf; i < 256; i++ {
		byteClass[i] = clHigh
	}
}

// scanToken skips intra-line whitespace from pos and returns the token
// [ts,te) that follows. At the end of the line it returns scanEOL with
// ts == te at the '\n' or the end of data; on a byte >= utf8.RuneSelf
// before the token ends it returns scanFallback.
func scanToken(data []byte, pos int) (ts, te int, st scanStatus) {
	n := len(data)
	for pos < n && byteClass[data[pos]] == clSpace {
		pos++
	}
	ts = pos
	for pos < n && byteClass[data[pos]] == clTok {
		pos++
	}
	switch {
	case pos < n && byteClass[data[pos]] == clHigh:
		return ts, pos, scanFallback
	case pos == ts:
		return ts, ts, scanEOL
	}
	return ts, pos, scanOK
}

// scanInt skips intra-line whitespace, then scans one token and parses
// it as a decimal integer in the same pass. ok=false with st==scanOK
// means the token [ts,te) is not what strconv.Atoi accepts (an optional
// sign and decimal digits, within int64), so the caller rejects it.
func scanInt(data []byte, pos int) (v int, ts, te, newPos int, st scanStatus, ok bool) {
	n := len(data)
	for pos < n {
		c := byteClass[data[pos]]
		if c != clSpace {
			if c == clEOL {
				return 0, 0, 0, pos, scanEOL, false
			}
			if c == clHigh {
				return 0, 0, 0, pos, scanFallback, false
			}
			break
		}
		pos++
	}
	if pos == n {
		return 0, 0, 0, pos, scanEOL, false
	}
	ts = pos
	neg := false
	if b := data[pos]; b == '+' || b == '-' {
		neg = b == '-'
		pos++
	}
	ds := pos
	for pos < n && data[pos] == '0' {
		pos++
	}
	sig := pos
	var u uint64
	for pos < n {
		c := data[pos] - '0'
		if c > 9 {
			break
		}
		u = u*10 + uint64(c)
		pos++
	}
	nd := pos - sig
	hasDigits := pos > ds
	numEnd := pos
	// Scan to the actual token end; trailing junk or a non-ASCII byte
	// decides between slow-path reparse and streaming fallback.
	for pos < n {
		c := byteClass[data[pos]]
		if c != clTok {
			if c == clHigh {
				return 0, 0, 0, pos, scanFallback, false
			}
			break
		}
		pos++
	}
	te = pos
	if numEnd != te || !hasDigits || nd > 19 {
		return 0, ts, te, pos, scanOK, false
	}
	if neg {
		if u > 1<<63 {
			return 0, ts, te, pos, scanOK, false
		}
		return -int(u), ts, te, pos, scanOK, true
	}
	if u > math.MaxInt64 {
		return 0, ts, te, pos, scanOK, false
	}
	return int(u), ts, te, pos, scanOK, true
}

// scanFloat is scanInt's real-valued counterpart: token scan and float
// conversion fused into one pass over the bytes. ok=false with
// st==scanOK means [ts,te) needs parseFloatBytes (inf/nan/hex forms,
// >19 digits, or a provably ambiguous rounding).
func scanFloat(data []byte, pos int) (v float64, ts, te, newPos int, st scanStatus, ok bool) {
	n := len(data)
	for pos < n {
		c := byteClass[data[pos]]
		if c != clSpace {
			if c == clEOL {
				return 0, 0, 0, pos, scanEOL, false
			}
			if c == clHigh {
				return 0, 0, 0, pos, scanFallback, false
			}
			break
		}
		pos++
	}
	if pos == n {
		return 0, 0, 0, pos, scanEOL, false
	}
	ts = pos
	mant, exp, digits, neg, pos := scanNumber(data, pos)
	numEnd := pos
	for pos < n {
		c := byteClass[data[pos]]
		if c != clTok {
			if c == clHigh {
				return 0, 0, 0, pos, scanFallback, false
			}
			break
		}
		pos++
	}
	te = pos
	if numEnd != te || digits == 0 || digits > 19 {
		return 0, ts, te, pos, scanOK, false
	}
	v, ok = decimalToFloat(mant, exp, neg)
	return v, ts, te, pos, scanOK, ok
}

// scanNumber reads the decimal number at pos,
// [+|-]digits[.digits][(e|E)[+|-]digits], and stops at the first byte
// past it without judging that byte. mant holds the digits modulo 2^64,
// exactly when digits <= 19, and mant × 10^exp is the number. An
// exponent marker with no digit after it, or after no mantissa digit,
// is left unread.
func scanNumber(data []byte, pos int) (mant uint64, exp, digits int, neg bool, next int) {
	n := len(data)
	if pos < n && (data[pos] == '+' || data[pos] == '-') {
		neg = data[pos] == '-'
		pos++
	}
	is := pos
	mant, pos = readDigits(data, pos, 0)
	digits = pos - is
	if pos < n && data[pos] == '.' {
		fs := pos + 1
		mant, pos = readDigits(data, fs, mant)
		exp = fs - pos
		digits += pos - fs
	}
	if digits > 0 && pos < n && data[pos]|0x20 == 'e' {
		p := pos + 1
		eneg := false
		if p < n && (data[p] == '+' || data[p] == '-') {
			eneg = data[p] == '-'
			p++
		}
		es, ev := p, 0
		for ; p < n; p++ {
			c := data[p] - '0'
			if c > 9 {
				break
			}
			if ev < 10000 {
				ev = ev*10 + int(c)
			}
		}
		if p > es {
			if eneg {
				ev = -ev
			}
			exp += ev
			pos = p
		}
	}
	return mant, exp, digits, neg, pos
}

// readDigits scans the decimal digits from data[pos] on, accumulating
// them into mant, and returns the new mantissa and the first non-digit
// position. It takes eight digits per step while eight are available:
// one load, one all-digits test and three multiplies (Lemire, "Number
// Parsing at a Gigabyte per Second", 2021). The mantissa equals the
// one-digit-per-step loop's modulo 2^64, so exactly for up to 19 digits.
func readDigits(data []byte, pos int, mant uint64) (uint64, int) {
	for pos+8 <= len(data) {
		x := binary.LittleEndian.Uint64(data[pos:])
		// A byte outside '0'..'9' sets its top bit in one of the two
		// terms; the lowest such byte does so before any carry or
		// borrow can reach it.
		if ((x+0x4646464646464646)|(x-0x3030303030303030))&0x8080808080808080 != 0 {
			break
		}
		x -= 0x3030303030303030
		x = x*10 + x>>8 // byte k: digit pair 10*d[k] + d[k+1]
		x = ((x&0x000000FF000000FF)*(100+1000000<<32) +
			(x>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32
		mant = mant*100000000 + x
		pos += 8
	}
	for pos < len(data) {
		c := data[pos] - '0'
		if c > 9 {
			break
		}
		mant = mant*10 + uint64(c)
		pos++
	}
	return mant, pos
}

// decimalToFloat converts ±mant × 10^exp, where mant holds every
// significant digit (at most 19), to the correctly rounded float64:
// exactly by one multiply or divide where mantissa and power of ten are
// both exact (Clinger), else by Eisel–Lemire. ok=false means elParse
// declined and the token needs strconv.
func decimalToFloat(mant uint64, exp int, neg bool) (float64, bool) {
	if mant == 0 {
		if neg {
			return math.Copysign(0, -1), true
		}
		return 0, true
	}
	if mant < 1<<53 && exp >= -22 && exp <= 22 {
		f := float64(mant)
		if exp > 0 {
			f *= pow10tab[exp]
		} else if exp < 0 {
			f /= pow10tab[-exp]
		}
		if neg {
			f = -f
		}
		return f, true
	}
	return elParse(mant, exp, neg)
}

// scanCanonical reads the entry line at pos if it has the exact shape
// WriteMatrixMarket writes: "I J V\n", or "I J\n" for pattern bodies.
// I and J are 1-10 digits without a leading zero, the separators single
// spaces, and V is a number scanFloat converts itself (scanNumber's
// grammar, 1-19 digits) ended by '\n'. It returns the parsed entry and
// the start of the next line. ok=false means the line is anything else
// (other whitespace, signs or leading zeros on indices, comments, high
// bytes, long mantissas, inf/nan/hex, no final '\n') or decimalToFloat
// declined its value; the general scanner then reads the line from its
// first byte, so verdicts and messages stay its own.
func scanCanonical(data []byte, pos int, pattern bool) (i, j int, v float64, next int, ok bool) {
	n := len(data)
	i, pos = canonIndex(data, pos)
	if i == 0 || pos >= n || data[pos] != ' ' {
		return 0, 0, 0, 0, false
	}
	j, pos = canonIndex(data, pos+1)
	if j == 0 || pos >= n {
		return 0, 0, 0, 0, false
	}
	if pattern && data[pos] == '\n' {
		return i, j, 1, pos + 1, true
	}
	if pattern || data[pos] != ' ' {
		return 0, 0, 0, 0, false
	}
	mant, exp, digits, neg, pos := scanNumber(data, pos+1)
	if digits == 0 || digits > 19 || pos >= n || data[pos] != '\n' {
		return 0, 0, 0, 0, false
	}
	v, ok = decimalToFloat(mant, exp, neg)
	return i, j, v, pos + 1, ok
}

// canonIndex reads a canonical index at pos: 1-10 digits, the first
// 1-9. It returns 0 if there is none, else the index and the position
// after its last digit (the caller checks what follows).
func canonIndex(data []byte, pos int) (v, next int) {
	if pos >= len(data) || data[pos]-'1' > 8 {
		return 0, pos
	}
	end := min(pos+10, len(data))
	v = int(data[pos] - '0')
	for pos++; pos < end; pos++ {
		c := data[pos] - '0'
		if c > 9 {
			break
		}
		v = v*10 + int(c)
	}
	return v, pos
}

// lineAt recovers the line starting at start for error messages,
// mirroring the scanner's trailing-\r strip.
func lineAt(data []byte, start int) []byte {
	l := data[start:]
	if j := bytes.IndexByte(l, '\n'); j >= 0 {
		l = l[:j]
	}
	if len(l) > 0 && l[len(l)-1] == '\r' {
		l = l[:len(l)-1]
	}
	return l
}

// reserve readies the triplet buffers for the declared entries, but
// never trusts the size line for more than the remaining bytes could
// encode (the shortest entry is "1 1 1\n", or "1 1\n" for pattern): an
// adversarial size line must not force a huge allocation before any
// entry is read.
func (s *ParseScratch) reserve(declared, remaining int, pattern, symmetric bool) ([]int32, []int32, []float64) {
	minEntry := 6
	if pattern {
		minEntry = 4
	}
	n := min(declared, remaining/minEntry+1)
	if symmetric {
		n *= 2 // mirrored entries; n <= len(data), no overflow
	}
	if cap(s.r) < n {
		s.r = make([]int32, 0, n)
	}
	if cap(s.c) < n {
		s.c = make([]int32, 0, n)
	}
	if cap(s.v) < n {
		s.v = make([]float64, 0, n)
	}
	return s.r[:0], s.c[:0], s.v[:0]
}

// readMatrixMarketFast is the byte-level parser. handled=false means
// the input needs the streaming reader (non-ASCII whitespace in a
// tokenized position, or a line at the scanner's token cap) — never an
// error, just "cannot promise identical verdicts".
func readMatrixMarketFast(data []byte, s *ParseScratch) (m *CSR, handled bool, err error) {
	const maxSafeLine = maxLineLen - 2
	if len(data) == 0 {
		return nil, true, fmt.Errorf("sparse: empty MatrixMarket stream")
	}

	// The header is always the first line: exactly five fields.
	var hdr [5][]byte
	nh, pos := 0, 0
	for {
		ts, te, st := scanToken(data, pos)
		if st == scanFallback {
			return nil, false, nil
		}
		pos = te
		if st == scanEOL {
			break
		}
		if nh == len(hdr) {
			nh++ // a sixth field: malformed
			break
		}
		hdr[nh] = data[ts:te]
		nh++
	}
	if nh != 5 || !asciiLowerEq(hdr[0], "%%matrixmarket") {
		return nil, true, fmt.Errorf("sparse: malformed MatrixMarket header %q", string(lineAt(data, 0)))
	}
	if pos > maxSafeLine {
		return nil, false, nil
	}
	if !asciiLowerEq(hdr[1], "matrix") || !asciiLowerEq(hdr[2], "coordinate") {
		return nil, true, fmt.Errorf("sparse: unsupported MatrixMarket object %q %q",
			asciiLower(hdr[1]), asciiLower(hdr[2]))
	}
	pattern := false
	switch {
	case asciiLowerEq(hdr[3], "real"), asciiLowerEq(hdr[3], "integer"):
	case asciiLowerEq(hdr[3], "pattern"):
		pattern = true
	default:
		return nil, true, fmt.Errorf("sparse: unsupported MatrixMarket value type %q", asciiLower(hdr[3]))
	}
	var symSign float64
	switch {
	case asciiLowerEq(hdr[4], "general"):
		symSign = 0
	case asciiLowerEq(hdr[4], "symmetric"):
		symSign = 1
	case asciiLowerEq(hdr[4], "skew-symmetric"):
		symSign = -1
	default:
		return nil, true, fmt.Errorf("sparse: unsupported MatrixMarket symmetry %q", asciiLower(hdr[4]))
	}

	// The rest of the body is scanned as one flat byte stream rather
	// than line by line: newlines terminate the size line and the
	// entries, but there is no separate line-splitting pass. Every
	// accepted line is still length-checked against the scanner cap
	// before it counts, so verdicts match the streaming reader even on
	// pathological input.
	var rows, cols, declared, read int
	var rr, cc []int32
	var vv []float64
	end := len(data)
	if pos < end {
		pos++ // the header's '\n'
	}
	for pos < end {
		lineStart := pos
		var iv, jv int
		var v float64
		canonical := false
		if rows != 0 {
			iv, jv, v, pos, canonical = scanCanonical(data, pos, pattern)
		}
		// A canonical line must fit the scanner cap like any other; only
		// an exponent of millions of digits takes one past it.
		if !canonical || pos-lineStart > maxSafeLine {
			pos = lineStart
			// Leading whitespace, then classify: blank, comment, or data.
			var b byte
			for pos < end {
				b = data[pos]
				if byteClass[b] != clSpace {
					break
				}
				pos++
			}
			if pos == end {
				if end-lineStart > maxSafeLine {
					return nil, false, nil
				}
				break // trailing whitespace only
			}
			if b == '\n' {
				if pos-lineStart > maxSafeLine {
					return nil, false, nil
				}
				pos++
				continue
			}
			if b >= utf8.RuneSelf {
				return nil, false, nil
			}
			if b == '%' {
				j := bytes.IndexByte(data[pos:], '\n')
				if j < 0 {
					if end-lineStart > maxSafeLine {
						return nil, false, nil
					}
					break
				}
				if pos+j-lineStart > maxSafeLine {
					return nil, false, nil
				}
				pos += j + 1
				continue
			}

			if rows == 0 {
				// The first data line is the size line: exactly three
				// integers and nothing after them.
				var dims [3]int
				for k := range dims {
					v, _, _, p, st, ok := scanInt(data, pos)
					if st == scanFallback {
						return nil, false, nil
					}
					if st == scanEOL || !ok {
						return nil, true, fmt.Errorf("sparse: bad MatrixMarket size line %q", string(lineAt(data, lineStart)))
					}
					dims[k], pos = v, p
				}
				_, eol, st := scanToken(data, pos)
				if st == scanFallback {
					return nil, false, nil
				}
				if st == scanOK {
					return nil, true, fmt.Errorf("sparse: bad MatrixMarket size line %q", string(lineAt(data, lineStart)))
				}
				if eol-lineStart > maxSafeLine {
					return nil, false, nil
				}
				rows, cols, declared = dims[0], dims[1], dims[2]
				if err := checkSizes(rows, cols, declared); err != nil {
					return nil, true, err
				}
				pos = min(eol+1, end)
				rr, cc, vv = s.reserve(declared, end-pos, pattern, symSign != 0)
				continue
			}

			i, t1s, t1e, p1, st1, ok1 := scanInt(data, pos)
			if st1 != scanOK {
				return nil, false, nil // high byte; EOL is impossible here
			}
			if !ok1 {
				return nil, true, fmt.Errorf("sparse: bad MatrixMarket row index %q", string(data[t1s:t1e]))
			}
			j, t2s, t2e, p2, st2, ok2 := scanInt(data, p1)
			if st2 != scanOK {
				if st2 == scanFallback {
					return nil, false, nil
				}
				return nil, true, fmt.Errorf("sparse: short MatrixMarket entry %q", string(lineAt(data, lineStart)))
			}
			if !ok2 {
				return nil, true, fmt.Errorf("sparse: bad MatrixMarket column index %q", string(data[t2s:t2e]))
			}
			iv, jv, v, pos = i, j, 1, p2
			if !pattern {
				var t3s, t3e int
				var st3 scanStatus
				var ok3 bool
				v, t3s, t3e, pos, st3, ok3 = scanFloat(data, pos)
				if st3 != scanOK {
					if st3 == scanFallback {
						return nil, false, nil
					}
					return nil, true, fmt.Errorf("sparse: short MatrixMarket entry %q", string(lineAt(data, lineStart)))
				}
				if !ok3 {
					var errV error
					v, errV = parseFloatBytes(data[t3s:t3e])
					if errV != nil {
						return nil, true, fmt.Errorf("sparse: bad MatrixMarket value %q: %w", string(data[t3s:t3e]), errV)
					}
				}
			}
			// Ignored trailing fields: skip to end of line, still bounded by
			// the scanner cap so an accept here implies a streaming accept.
			if j := bytes.IndexByte(data[pos:], '\n'); j < 0 {
				if end-lineStart > maxSafeLine {
					return nil, false, nil
				}
				pos = end
			} else {
				if pos+j-lineStart > maxSafeLine {
					return nil, false, nil
				}
				pos += j + 1
			}
		}
		row, col := iv-1, jv-1
		if row < 0 || row >= rows || col < 0 || col >= cols {
			return nil, true, fmt.Errorf("%w: (%d, %d) outside %dx%d", ErrIndexRange, row, col, rows, cols)
		}
		rr = append(rr, int32(row))
		cc = append(cc, int32(col))
		vv = append(vv, v)
		if symSign != 0 && iv != jv {
			// The mirrored entry re-checks bounds, exactly like the
			// second Triplet.Add in the streaming reader (a non-square
			// "symmetric" input can put the mirror out of range).
			if col >= rows || row >= cols {
				return nil, true, fmt.Errorf("%w: (%d, %d) outside %dx%d", ErrIndexRange, col, row, rows, cols)
			}
			rr = append(rr, int32(col))
			cc = append(cc, int32(row))
			vv = append(vv, symSign*v)
		}
		read++
	}
	if rows == 0 {
		return nil, true, fmt.Errorf("sparse: MatrixMarket stream missing size line")
	}
	s.r, s.c, s.v = rr, cc, vv
	if read != declared {
		return nil, true, fmt.Errorf("sparse: MatrixMarket declares %d entries, found %d", declared, read)
	}
	return assembleCSR(rows, cols, rr, cc, vv, s), true, nil
}
