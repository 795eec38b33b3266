package main

// The trace subcommand: fetch retained request traces from a running
// serve replica or proxy and render them — the list view as a table,
// a single trace as the same text span tree `spmvselect report -text`
// uses, so one rendering path serves offline run reports and live
// request traces alike. Pointed at a proxy, the fetched tree arrives
// already stitched: replica span trees grafted under the attempt spans
// that reached them.

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/proxy"
)

// cmdTrace lists or fetches retained traces over the admin API.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	addr := fs.String("addr", "", "serve replica or proxy address host:port (required)")
	id := fs.String("id", "", "fetch this trace (an X-Request-ID) and render its span tree; empty lists retained traces")
	token := fs.String("token", "", "admin bearer token (the target's -admin-token)")
	asJSON := fs.Bool("json", false, "print the raw JSON answer instead of rendering")
	timeout := fs.Duration("timeout", 30*time.Second, "request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("trace: -addr is required")
	}
	body, err := fetchAdminJSON(*addr, obs.TracePath(*id), *token, *timeout)
	if err != nil {
		return err
	}
	if *asJSON {
		_, err := os.Stdout.Write(body)
		return err
	}
	if *id == "" {
		var list obs.TraceList
		if err := json.Unmarshal(body, &list); err != nil {
			return fmt.Errorf("trace: parsing list: %w", err)
		}
		if list.Count == 0 {
			fmt.Println("no retained traces")
			return nil
		}
		fmt.Printf("%-34s %-28s %12s  %6s  %s\n", "TRACE", "ENDPOINT", "DURATION", "STATUS", "REASONS")
		for _, s := range list.Traces {
			fmt.Printf("%-34s %-28s %12v  %6d  %s\n",
				s.TraceID, s.Name, s.Duration.Round(time.Microsecond), s.Status,
				strings.Join(s.Reasons, ","))
		}
		return nil
	}
	// A replica answers an obs.TraceEntry, a proxy the same fields plus
	// stitched_from; StitchedTrace decodes both.
	var tr proxy.StitchedTrace
	if err := json.Unmarshal(body, &tr); err != nil {
		return fmt.Errorf("trace: parsing trace: %w", err)
	}
	if tr.Root == nil {
		return fmt.Errorf("trace: %s has no span tree", tr.TraceID)
	}
	fmt.Printf("trace %s  status %d  kept for %s  at %s\n",
		tr.TraceID, tr.Status, strings.Join(tr.Reasons, ","), tr.At.Format(time.RFC3339Nano))
	if len(tr.StitchedFrom) > 0 {
		fmt.Printf("stitched replica spans from %s\n", strings.Join(tr.StitchedFrom, ", "))
	}
	return obs.WriteTree(os.Stdout, []*obs.SpanData{tr.Root})
}

// adminError is an admin answer other than 200; code is its status.
type adminError struct {
	code int
	msg  string
}

func (e *adminError) Error() string { return e.msg }

// fetchAdminJSON GETs one admin path and returns the body. A non-200
// answer fails with an *adminError naming the path, the status and the
// server's error message.
func fetchAdminJSON(addr, path, token string, timeout time.Duration) ([]byte, error) {
	client := &http.Client{Timeout: timeout}
	req, err := http.NewRequest(http.MethodGet, "http://"+addr+path, nil)
	if err != nil {
		return nil, err
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg := fmt.Sprintf("GET %s: server answered %s", path, resp.Status)
		var e obs.ErrorBody
		if json.Unmarshal(body, &e) == nil && e.Error != "" {
			msg = fmt.Sprintf("GET %s: %s: %s", path, resp.Status, e.Error)
		}
		return nil, &adminError{code: resp.StatusCode, msg: msg}
	}
	return body, nil
}
