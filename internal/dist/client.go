package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// client is the coordinator-side handle of one worker.
type client struct {
	base     string // normalized base URL, no trailing slash
	http     *http.Client
	inflight int // requests sent and not yet returned (guarded by Pool.mu)
}

func newClient(base string, hc *http.Client) *client {
	return &client{base: strings.TrimRight(base, "/"), http: hc}
}

// run posts one job and returns its result. Any transport, HTTP-status or
// decode failure, or a reply for another job, is returned as an error; the
// job's own simulation error rides inside the result as wireResult.Err.
func (c *client) run(ctx context.Context, j wireJob) (wireResult, error) {
	body, err := json.Marshal(j)
	if err != nil {
		return wireResult{}, fmt.Errorf("dist: marshal request: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return wireResult{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return wireResult{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return wireResult{}, fmt.Errorf("dist: worker %s: %s: %s", c.base, resp.Status, bytes.TrimSpace(msg))
	}
	var out wireResult
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return wireResult{}, fmt.Errorf("dist: worker %s: decode response: %w", c.base, err)
	}
	if out.ID != j.ID {
		return wireResult{}, fmt.Errorf("dist: worker %s: reply for job %d, want job %d", c.base, out.ID, j.ID)
	}
	return out, nil
}

// health probes GET /healthz; nil means the worker is up.
func (c *client) health(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("dist: worker %s: %s", c.base, resp.Status)
	}
	return nil
}
