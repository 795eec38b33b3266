package sparse

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// MatrixMarket I/O for the "matrix coordinate" container, the on-disk
// format of the SuiteSparse collection the paper benchmarks. Supported
// qualifiers: real/integer/pattern values with general/symmetric/
// skew-symmetric storage. Pattern entries read as 1.0. Symmetric inputs
// are expanded to full storage, which is what every SpMV benchmark
// (including CUSP's) does before timing.

// maxStreamReserve caps how many entries the streaming reader
// pre-allocates on the declared count alone (1 MiB-scale buffers); the
// byte fast path instead clamps by the remaining body size.
const maxStreamReserve = 1 << 19

// maxDim is how many rows and columns a size line may declare whatever
// its entry count. Rows and columns are paid for apart from entries:
// assembly's row pointer and bucket offsets take 12 bytes a row, and
// feature extraction's diagonal map one byte a row and a column. So a
// matrix may have more than maxDim rows or columns only up to the
// entries its size line declares, which the body must then hold (both
// readers reject a body whose entry count differs), and never more than
// an int32 index reaches. A size line then costs at most about 14 MiB
// beyond its entries, and a larger matrix pays for its rows no more
// than in proportion to its entries.
const maxDim = 1 << 20

// checkSizes is both readers' rule for the size line's rows, columns
// and declared entry count, applied before any entry is read.
func checkSizes(rows, cols, declared int) error {
	if rows <= 0 || cols <= 0 || declared < 0 {
		return fmt.Errorf("sparse: bad MatrixMarket sizes %d %d %d", rows, cols, declared)
	}
	if bound := min(max(maxDim, declared), math.MaxInt32); rows > bound || cols > bound {
		return fmt.Errorf("sparse: MatrixMarket size line declares %dx%d for %d entries, over the bound of %d rows and columns",
			rows, cols, declared, bound)
	}
	return nil
}

// ReadMatrixMarket parses a MatrixMarket coordinate stream into CSR.
// This is the general/streaming path; in-memory bodies should go
// through ReadMatrixMarketBytes (mmio_fast.go), which produces
// identical output without the scanner and tokenizing allocations.
// A size line declaring more rows or columns than max(1<<20, its entry
// count), or than math.MaxInt32, is rejected before any entry is read.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)

	if !sc.Scan() {
		return nil, fmt.Errorf("sparse: empty MatrixMarket stream")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) != 5 || header[0] != "%%matrixmarket" {
		return nil, fmt.Errorf("sparse: malformed MatrixMarket header %q", sc.Text())
	}
	object, container, valueType, symmetry := header[1], header[2], header[3], header[4]
	if object != "matrix" || container != "coordinate" {
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket object %q %q", object, container)
	}
	pattern := false
	switch valueType {
	case "real", "integer":
	case "pattern":
		pattern = true
	default:
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket value type %q", valueType)
	}
	var symSign float64
	switch symmetry {
	case "general":
		symSign = 0
	case "symmetric":
		symSign = 1
	case "skew-symmetric":
		symSign = -1
	default:
		return nil, fmt.Errorf("sparse: unsupported MatrixMarket symmetry %q", symmetry)
	}

	// Skip comments, read the size line: exactly three base-10 integers.
	// (fmt.Sscan would accept base prefixes and silently ignore trailing
	// garbage like "3 3 4 extra".)
	var rows, cols, declared int
	for {
		if !sc.Scan() {
			return nil, fmt.Errorf("sparse: MatrixMarket stream missing size line")
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 3 {
			return nil, fmt.Errorf("sparse: bad MatrixMarket size line %q", line)
		}
		var err error
		if rows, err = strconv.Atoi(f[0]); err == nil {
			if cols, err = strconv.Atoi(f[1]); err == nil {
				declared, err = strconv.Atoi(f[2])
			}
		}
		if err != nil {
			return nil, fmt.Errorf("sparse: bad MatrixMarket size line %q: %w", line, err)
		}
		break
	}
	if err := checkSizes(rows, cols, declared); err != nil {
		return nil, err
	}

	t := NewTriplet(rows, cols)
	// Reserve for the declared entries (doubled for symmetric
	// expansion), but never trust the header beyond a bounded up-front
	// allocation: a stream's true size is unknown here, and an
	// adversarial size line ("1 1 4611686018427387903") must not force
	// gigabytes of allocation — or overflow the doubling — before a
	// single entry is read. Larger honest inputs just regrow by append.
	reserve := declared
	if reserve > maxStreamReserve {
		reserve = maxStreamReserve
	}
	t.Reserve(reserve * 2) // room for symmetric expansion
	read := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		want := 3
		if pattern {
			want = 2
		}
		if len(fields) < want {
			return nil, fmt.Errorf("sparse: short MatrixMarket entry %q", line)
		}
		i, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad MatrixMarket row index %q: %w", fields[0], err)
		}
		j, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("sparse: bad MatrixMarket column index %q: %w", fields[1], err)
		}
		v := 1.0
		if !pattern {
			v, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("sparse: bad MatrixMarket value %q: %w", fields[2], err)
			}
		}
		if err := t.Add(i-1, j-1, v); err != nil {
			return nil, err
		}
		if symSign != 0 && i != j {
			if err := t.Add(j-1, i-1, symSign*v); err != nil {
				return nil, err
			}
		}
		read++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sparse: reading MatrixMarket stream: %w", err)
	}
	if read != declared {
		return nil, fmt.Errorf("sparse: MatrixMarket declares %d entries, found %d", declared, read)
	}
	return t.ToCSR(), nil
}

// WriteMatrixMarket writes a matrix as a general real coordinate
// MatrixMarket stream with one-based indices.
func WriteMatrixMarket(w io.Writer, m Matrix) error {
	a, err := ToCSR(m)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	rows, cols := a.Dims()
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n%d %d %d\n",
		rows, cols, a.NNZ()); err != nil {
		return fmt.Errorf("sparse: writing MatrixMarket header: %w", err)
	}
	for i := 0; i < rows; i++ {
		for k := a.rowPtr[i]; k < a.rowPtr[i+1]; k++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, a.colIdx[k]+1, a.vals[k]); err != nil {
				return fmt.Errorf("sparse: writing MatrixMarket entry: %w", err)
			}
		}
	}
	return bw.Flush()
}
