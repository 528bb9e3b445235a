package cosim

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Client is a minimal synchronous protocol client: one request on the
// wire at a time, replies matched by correlation id. It serves the
// package's own tests, the golden-transcript harness, and scripted
// drivers of cmd/dozznocd; a real co-simulation master can speak the
// protocol directly from any language with a JSON library.
type Client struct {
	w      *bufio.Writer
	r      *bufio.Reader
	nextID int64
}

// NewClient wraps a connected byte stream (a net.Conn, a pipe pair, a
// subprocess's stdio).
func NewClient(rw io.ReadWriter) *Client {
	return &Client{w: bufio.NewWriter(rw), r: bufio.NewReaderSize(rw, MaxFrameBytes+2)}
}

// Do assigns the version and the next correlation id, sends the request,
// and reads its reply. Protocol-level failures come back as the
// Response (OK false, Code set); transport failures as the error.
func (c *Client) Do(req *Request) (*Response, error) {
	c.nextID++
	req.V = Version
	req.ID = c.nextID
	b, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	b = append(b, '\n')
	if _, err := c.w.Write(b); err != nil {
		return nil, err
	}
	if err := c.w.Flush(); err != nil {
		return nil, err
	}
	line, err := c.r.ReadBytes('\n')
	if err != nil {
		return nil, fmt.Errorf("cosim: read reply: %w", err)
	}
	var resp Response
	if err := json.Unmarshal(line, &resp); err != nil {
		return nil, fmt.Errorf("cosim: bad reply frame: %w", err)
	}
	if resp.ID != req.ID {
		return nil, fmt.Errorf("cosim: reply id %d for request %d", resp.ID, req.ID)
	}
	return &resp, nil
}

// must turns a protocol-level failure into a transport-level error; the
// typed helpers below use it so callers get one error path.
func must(resp *Response, err error) (*Response, error) {
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return resp, fmt.Errorf("cosim: %s: %s", resp.Code, resp.Err)
	}
	return resp, nil
}

// OpenSession opens a width x height mesh running the named model and
// returns the session id and its core count.
func (c *Client) OpenSession(width, height int, model string, linkTicks int64) (string, int, error) {
	resp, err := must(c.Do(&Request{Op: OpOpenSession,
		Width: width, Height: height, Model: model, LinkTicks: linkTicks}))
	if err != nil {
		return "", 0, err
	}
	return resp.Session, resp.Cores, nil
}

// Transfer schedules nbytes from src to dst at absolute tick at (the
// session's current tick if at < 0) and returns the packet count and
// the latency estimate the daemon replied with.
func (c *Client) Transfer(session string, src, dst int, nbytes, at int64) (packets int, latencyEst int64, err error) {
	req := &Request{Op: OpTransfer, Session: session, Src: &src, Dst: &dst, Bytes: &nbytes}
	if at >= 0 {
		req.At = &at
	}
	resp, err := must(c.Do(req))
	if err != nil {
		return 0, 0, err
	}
	return resp.Packets, resp.LatencyEst, nil
}

// Advance advances the session by ticks and returns the reply (advanced
// count, new now, energy deltas). A CodeBusy reply is returned as the
// Response with a nil error so callers can honor RetryAfterMS.
func (c *Client) Advance(session string, ticks int64) (*Response, error) {
	resp, err := c.Do(&Request{Op: OpAdvance, Session: session, Ticks: &ticks})
	if err != nil {
		return nil, err
	}
	if !resp.OK && resp.Code != CodeBusy {
		return resp, fmt.Errorf("cosim: %s: %s", resp.Code, resp.Err)
	}
	return resp, nil
}

// Query returns the session's cumulative stats.
func (c *Client) Query(session string) (*Stats, error) {
	resp, err := must(c.Do(&Request{Op: OpQuery, Session: session}))
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}

// CloseSession finalizes the session and returns its last stats.
func (c *Client) CloseSession(session string) (*Stats, error) {
	resp, err := must(c.Do(&Request{Op: OpCloseSession, Session: session}))
	if err != nil {
		return nil, err
	}
	return resp.Stats, nil
}
