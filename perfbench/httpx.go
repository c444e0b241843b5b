package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// loopback serves a handler on 127.0.0.1 in this process.
type loopback struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	l := &loopback{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		_ = l.srv.Serve(ln) // returns http.ErrServerClosed after close
	}()
	return l, nil
}

// close shuts the server down and waits for its serve loop to end.
func (l *loopback) close() {
	if l == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := l.srv.Shutdown(ctx); err != nil {
		_ = l.srv.Close()
	}
	<-l.done
}

// maxConns is the load generator's connection budget: one process with at
// most one connection per core of the 2-core machine the benchmark was
// defined on.
const maxConns = 2

func newTransport() *http.Transport {
	return &http.Transport{MaxIdleConnsPerHost: maxConns * 4, IdleConnTimeout: time.Minute}
}

// benchClient is the load generator's client.
type benchClient struct{ hc *http.Client }

func newClient() *benchClient { return &benchClient{hc: &http.Client{Transport: newTransport()}} }

// score sends one batch to base's /v1/score.
func (c *benchClient) score(base string, b scoreBatch) (*scoreResponse, error) {
	var r scoreResponse
	if err := postJSON(context.Background(), c.hc, scoreURL(base, b), queriesRequest{Queries: b.queries}, &r); err != nil {
		return nil, err
	}
	if len(r.Scores) != len(b.queries) {
		return nil, fmt.Errorf("%d scores for %d queries", len(r.Scores), len(b.queries))
	}
	return &r, nil
}

// requestTimeout bounds one benchmark request; exceeding it counts as a
// timed-out operation.
const requestTimeout = 10 * time.Second

// statusError is a non-200 answer.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// postJSON sends in as JSON and decodes a 200 answer into out.
func postJSON(ctx context.Context, c *http.Client, url string, in, out any) error {
	b, err := json.Marshal(in)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, requestTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return &statusError{code: resp.StatusCode, body: string(bytes.TrimSpace(body))}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(body, out)
}

// jfloat decodes the servers' score encoding: a JSON number, or a string
// for non-finite values ("+Inf", "-Inf", "NaN").
type jfloat float64

func (f *jfloat) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(b) > 0 && b[0] == '"' {
		var err error
		if s, err = strconv.Unquote(s); err != nil {
			return err
		}
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return errors.New("score is not a number: " + s)
	}
	*f = jfloat(v)
	return nil
}

// scoreResponse is the answer of lofserve's and lofcoord's /v1/score.
type scoreResponse struct {
	Scores    []jfloat `json:"scores"`
	Mode      string   `json:"mode"`
	Certified int      `json:"certified"`
}

func (r *scoreResponse) floats() []float64 {
	out := make([]float64, len(r.Scores))
	for i, v := range r.Scores {
		out[i] = float64(v)
	}
	return out
}

type queriesRequest struct {
	Queries [][]float64 `json:"queries"`
}

// scoreURL is the score endpoint for one batch.
func scoreURL(base string, b scoreBatch) string {
	if b.pruned {
		return base + "/v1/score?mode=pruned"
	}
	return base + "/v1/score"
}
