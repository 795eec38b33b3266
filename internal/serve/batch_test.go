package serve

import (
	"bytes"
	"testing"
)

// FuzzSplitMatrixMarket feeds the text batch splitter arbitrary bodies:
// every part starts with the %%MatrixMarket banner, the parts tile the
// body from the first banner line on, and there is one part per banner
// line.
func FuzzSplitMatrixMarket(f *testing.F) {
	mm := "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2\n"
	for _, body := range []string{
		"",
		mm,
		mm + mm,
		"junk\n" + mm + "%%MatrixMarket",
		" %%MatrixMarket\n%%MatrixMarke\n%%MatrixMarket\r\n\n",
	} {
		f.Add([]byte(body))
	}
	banner := []byte("%%MatrixMarket")
	f.Fuzz(func(t *testing.T, body []byte) {
		first, banners, off := -1, 0, 0
		for _, line := range bytes.SplitAfter(body, []byte("\n")) {
			if bytes.HasPrefix(line, banner) {
				if first < 0 {
					first = off
				}
				banners++
			}
			off += len(line)
		}
		parts := splitMatrixMarket(body)
		if len(parts) != banners {
			t.Fatalf("%d parts for %d banner lines", len(parts), banners)
		}
		for k, p := range parts {
			if !bytes.HasPrefix(p, banner) {
				t.Fatalf("part %d starts %q", k, p[:min(len(p), len(banner))])
			}
		}
		if banners > 0 && !bytes.Equal(bytes.Join(parts, nil), body[first:]) {
			t.Fatalf("parts do not tile the body from offset %d", first)
		}
	})
}
