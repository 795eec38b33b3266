package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
)

// FuzzSplitMatrixMarket feeds the batch splitter arbitrary bodies. The
// oracle is the streaming MatrixMarket reader's own header test applied
// to every line: a line is a banner when its first whitespace-separated
// field, lowercased, is "%%matrixmarket". There is one part per banner
// line, and part k runs from banner line k to the next banner line (or
// the end of the body).
func FuzzSplitMatrixMarket(f *testing.F) {
	mm := "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2\n"
	for _, body := range []string{
		"",
		mm,
		mm + mm,
		"junk\n" + mm + "%%MatrixMarket",
		" %%MatrixMarket\n%%MatrixMarke\n%%MatrixMarket\r\n\n",
		mm + strings.ToLower(mm) + " \t%%MATRIXMARKET x\n",
		" %%matrixmarKET\n%%matrixmarketx\n",
		// Non-ASCII: a no-break space before the banner, and a Kelvin
		// sign and a dotted capital I that lowercase to ASCII.
		"\u00a0%%MatrixMarket\n%%MatrixMar\u212aet\n%%Matr\u0130xMarket\n",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var starts []int
		off := 0
		for _, line := range bytes.SplitAfter(body, []byte("\n")) {
			if fields := strings.Fields(strings.ToLower(string(line))); len(fields) > 0 && fields[0] == "%%matrixmarket" {
				starts = append(starts, off)
			}
			off += len(line)
		}
		parts := splitMatrixMarket(body)
		if len(parts) != len(starts) {
			t.Fatalf("%d parts for %d banner lines", len(parts), len(starts))
		}
		for k, s := range starts {
			end := len(body)
			if k+1 < len(starts) {
				end = starts[k+1]
			}
			if !bytes.Equal(parts[k], body[s:end]) {
				t.Fatalf("part %d = %q, want body[%d:%d] = %q", k, parts[k], s, end, body[s:end])
			}
		}
	})
}

// TestBatchSplitsOnReaderBanners: a batch item starts wherever a file
// the MatrixMarket readers accept starts, whatever the banner's ASCII
// case or leading whitespace, and each item is answered as
// /v1/predict/matrix answers that file alone.
func TestBatchSplitsOnReaderBanners(t *testing.T) {
	srv, _, _, mm := testServer(t, Config{})
	h := srv.Handler()
	lower := bytes.Replace(mm, []byte("%%MatrixMarket"), []byte("%%matrixmarket"), 1)
	spaced := append([]byte(" \t"), bytes.Replace(mm, []byte("%%MatrixMarket"), []byte("%%MATRIXMARKET"), 1)...)

	single := func(body []byte) Prediction {
		t.Helper()
		rec, _ := postJSON(t, h, "/v1/predict/matrix", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("single %q...: %d %s", body[:20], rec.Code, rec.Body.String())
		}
		var resp predictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp.Prediction
	}
	for _, tc := range []struct {
		name  string
		files [][]byte
	}{
		{"standard then lowercase", [][]byte{mm, lower}},
		{"two lowercase", [][]byte{lower, lower}},
		{"whitespace-led uppercase then standard", [][]byte{spaced, mm}},
	} {
		rec, _ := postJSON(t, h, "/v1/predict/batch", bytes.Join(tc.files, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: %d %s", tc.name, rec.Code, rec.Body.String())
		}
		var resp batchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.Count != len(tc.files) || resp.Errors != 0 {
			t.Fatalf("%s: count %d, errors %d; want %d answers and no errors: %+v",
				tc.name, resp.Count, resp.Errors, len(tc.files), resp.Results)
		}
		for i, file := range tc.files {
			if want := single(file); resp.Results[i].Prediction != want {
				t.Errorf("%s: item %d = %+v, single endpoint answers %+v", tc.name, i, resp.Results[i].Prediction, want)
			}
		}
	}
}
