package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"tracerebase/internal/report"
)

// SubmitResult is what a completed job stream resolves to.
type SubmitResult struct {
	// Output is the complete rendered output, byte-identical to the batch
	// CLI run of the same spec.
	Output []byte
	// Served names what resolved the job: a tier name for a cache hit,
	// "computed" for a fresh run.
	Served string
	// ServerSeconds is the daemon-side wall clock from the done event.
	ServerSeconds float64
	// Key is the job's content address as reported by the daemon.
	Key string
}

// Client submits jobs to a daemon and decodes its event streams.
type Client struct {
	// BaseURL is the daemon root, e.g. "http://127.0.0.1:8344".
	BaseURL string
	// HTTPClient overrides the transport (nil = http.DefaultClient; job
	// streams are long-lived, so any custom client must not set a Timeout
	// that covers the whole response body).
	HTTPClient *http.Client
	// OnEvent, when set, observes every event as it arrives (progress
	// display); the final result is still assembled and returned.
	OnEvent func(Event)
}

// Submit posts spec and follows the event stream to completion.
func (c *Client) Submit(spec report.Spec) (*SubmitResult, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	hc := c.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Post(strings.TrimSuffix(c.BaseURL, "/")+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := bufio.NewReader(resp.Body).ReadString('\n')
		return nil, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(msg))
	}

	res := &SubmitResult{}
	var out bytes.Buffer
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("submit: bad event line: %w", err)
		}
		if c.OnEvent != nil {
			c.OnEvent(ev)
		}
		switch ev.Type {
		case "queued":
			res.Key = ev.Key
		case "chunk":
			out.WriteString(ev.Text)
		case "done":
			res.Output = out.Bytes()
			res.Served = ev.Served
			res.ServerSeconds = ev.ElapsedSeconds
			return res, nil
		case "error":
			return nil, fmt.Errorf("job failed: %s", ev.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("submit: stream: %w", err)
	}
	return nil, fmt.Errorf("submit: stream ended without done event")
}

// Status fetches the daemon's status document.
func (c *Client) Status() (*Status, error) {
	hc := c.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Second}
	}
	resp, err := hc.Get(strings.TrimSuffix(c.BaseURL, "/") + "/status")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status: HTTP %d", resp.StatusCode)
	}
	var st Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, err
	}
	return &st, nil
}
