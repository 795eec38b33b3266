package serve

import (
	"bytes"
	"testing"
)

// predictRoutes are the only endpoints a capture record may name.
var predictRoutes = map[string]bool{
	"/v1/predict/matrix":   true,
	"/v1/predict/features": true,
	"/v1/predict/batch":    true,
}

func TestDecodeCaptureRecordEndpoints(t *testing.T) {
	body := []byte("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2\n")
	for _, tc := range []struct {
		endpoint string
		ok       bool
	}{
		{"/v1/predict/matrix", true},
		{"/v1/predict/features", true},
		{"/v1/predict/batch", true},
		{"", false},
		// Appended to "http://127.0.0.1:8080", this parses as host
		// evil.example with userinfo 127.0.0.1:8080.
		{"@evil.example/v1/predict/matrix", false},
		{"//evil.example/v1/predict/matrix", false},
		{"http://evil.example/v1/predict/matrix", false},
		{"/v1/admin/reload", false},
		{"/v1/predict/matrix?arch=turing", false},
		{"/v1/predict/matrix/../../admin/promote", false},
		{" /v1/predict/matrix", false},
	} {
		raw, err := EncodeCaptureRecord(CaptureRecord{Endpoint: tc.endpoint, Predictions: []string{"CSR"}}, body)
		if err != nil {
			t.Fatal(err)
		}
		rec, got, err := DecodeCaptureRecord(raw)
		if (err == nil) != tc.ok {
			t.Errorf("endpoint %q: err = %v, want accepted=%v", tc.endpoint, err, tc.ok)
			continue
		}
		if tc.ok && (rec.Endpoint != tc.endpoint || !bytes.Equal(got, body)) {
			t.Errorf("endpoint %q decoded as %q with body %q", tc.endpoint, rec.Endpoint, got)
		}
	}
}

// FuzzDecodeCaptureRecord checks the capture decoder's contract on
// arbitrary bytes: it never panics, and every record it accepts names
// a predict route and returns the bytes after the header line as the
// body.
func FuzzDecodeCaptureRecord(f *testing.F) {
	body := []byte("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2\n")
	for _, rec := range []CaptureRecord{
		{UnixNano: 1, Endpoint: "/v1/predict/matrix", Arch: "turing", TraceID: "t-1", ModelHash: "abc", Predictions: []string{"CSR"}},
		{Endpoint: "/v1/predict/features", ContentType: "application/json", Predictions: []string{"ELL"}},
		{Endpoint: "/v1/predict/batch", Predictions: []string{"COO", ""}},
		{Endpoint: "@evil.example/v1/predict/matrix"},
	} {
		raw, err := EncodeCaptureRecord(rec, body)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte("no header line"))
	f.Add([]byte("{\"endpoint\":\"/v1/predict/matrix\"}\n"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		rec, got, err := DecodeCaptureRecord(raw)
		if err != nil {
			return
		}
		if !predictRoutes[rec.Endpoint] {
			t.Fatalf("accepted endpoint %q", rec.Endpoint)
		}
		if i := bytes.IndexByte(raw, '\n'); !bytes.Equal(got, raw[i+1:]) {
			t.Fatalf("body %q is not the bytes after the header line", got)
		}
	})
}
