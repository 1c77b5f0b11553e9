// Package client implements the worker side of the platform HTTP protocol:
// a thin typed Client over the wire endpoints and a Worker that runs the
// full WST loop (fetch round, select tasks, sense, upload). A Worker
// selects its tasks from one of two plan sources: it solves the round's
// selection problem locally, or it asks the platform's POST /v1/plan.
//
// The hot endpoints (/v1/round, /v1/plan, /v1/submit) speak either JSON
// (the default and the debugging surface) or the compact TLV codec
// (internal/wire/binary), selected with WithCodec(CodecTLV). In TLV mode
// every request accepts TLV and the platform decides per endpoint: the
// ones without a binary codec answer JSON, and responses are decoded by
// their Content-Type.
//
// JSON round polls decode without reflection: the canonical body the
// platform writes goes through wire.DecodeRoundInfoJSON, and any other
// body falls back to encoding/json with its exact result and errors.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"paydemand/internal/geo"
	"paydemand/internal/task"
	"paydemand/internal/wire"
	"paydemand/internal/wire/binary"
)

// Codec selects the encoding of the hot protocol messages.
type Codec int

const (
	// CodecJSON is the default: encoding/json everywhere.
	CodecJSON Codec = iota
	// CodecTLV uses the compact binary codec (internal/wire/binary) for
	// the messages that have one, negotiated via Accept/Content-Type
	// headers. Endpoints without a binary codec answer JSON.
	CodecTLV
)

// ParseCodec returns the codec named name: "json" or "tlv".
func ParseCodec(name string) (Codec, error) {
	switch name {
	case "json":
		return CodecJSON, nil
	case "tlv":
		return CodecTLV, nil
	default:
		return 0, fmt.Errorf("client: unknown codec %q (valid: json, tlv)", name)
	}
}

// DefaultMaxIdleConnsPerHost sizes the default transport's idle
// connection pool. Every request from this client targets one host (the
// platform), so per-host is the binding limit; size it to the worker
// fan-in or steady-state polling reconnects on every request.
const DefaultMaxIdleConnsPerHost = 256

// Option configures a Client.
type Option func(*Client)

// WithCodec selects the wire codec for the hot endpoints.
func WithCodec(c Codec) Option {
	return func(cl *Client) { cl.codec = c }
}

// WithMaxIdleConnsPerHost sizes the default transport's per-host idle
// connection pool (ignored when an explicit *http.Client is supplied).
// Size it to the number of concurrently polling workers sharing this
// client so steady-state polling never re-dials.
func WithMaxIdleConnsPerHost(n int) Option {
	return func(cl *Client) {
		if n > 0 {
			cl.maxIdle = n
		}
	}
}

// Client calls the platform's HTTP API. It is safe for concurrent use;
// request and response buffers are pooled across calls, so steady-state
// polling does not allocate fresh transport bodies.
type Client struct {
	base    string
	http    *http.Client
	codec   Codec
	maxIdle int
}

// New creates a client for the platform at baseURL (e.g.
// "http://localhost:8080"). httpClient may be nil for a default with a
// 10-second timeout and a persistent-connection transport sized by
// WithMaxIdleConnsPerHost; pass an explicit client to control transport
// details yourself.
func New(baseURL string, httpClient *http.Client, opts ...Option) *Client {
	c := &Client{base: baseURL, maxIdle: DefaultMaxIdleConnsPerHost}
	for _, o := range opts {
		o(c)
	}
	if httpClient == nil {
		httpClient = &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				Proxy: http.ProxyFromEnvironment,
				DialContext: (&net.Dialer{
					Timeout:   5 * time.Second,
					KeepAlive: 30 * time.Second,
				}).DialContext,
				MaxIdleConns:        c.maxIdle,
				MaxIdleConnsPerHost: c.maxIdle,
				IdleConnTimeout:     90 * time.Second,
			},
		}
	}
	c.http = httpClient
	return c
}

// Register announces a worker at loc and returns its assigned ID.
func (c *Client) Register(ctx context.Context, loc geo.Point) (int, error) {
	var resp wire.RegisterResponse
	err := c.post(ctx, wire.PathRegister, &wire.RegisterRequest{Location: loc}, &resp)
	if err != nil {
		return 0, err
	}
	return resp.UserID, nil
}

// Round fetches the currently published round.
func (c *Client) Round(ctx context.Context) (wire.RoundInfo, error) {
	var resp wire.RoundInfo
	err := c.RoundInto(ctx, 0, &resp)
	return resp, err
}

// RoundInto fetches the current round into a caller-owned message,
// reusing its Tasks capacity across polls — the allocation-free way to
// poll. known is the round the caller already holds prices for: if that
// round is still current the response has Unchanged set and no task list
// (the known_round short-circuit); pass 0 to always fetch the full round.
// Every other field is reset first: the JSON decoder leaves fields the
// response omits (an unset Unchanged, an absent task list) untouched.
func (c *Client) RoundInto(ctx context.Context, known int, out *wire.RoundInfo) error {
	*out = wire.RoundInfo{Tasks: out.Tasks[:0]}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+wire.PathRound, nil)
	if err != nil {
		return fmt.Errorf("client: build request: %w", err)
	}
	if known > 0 {
		req.Header.Set(wire.HeaderKnownRound, strconv.Itoa(known))
	}
	return c.do(req, out)
}

// Plan asks the platform to solve the worker's selection problem against
// the current round's published rewards (POST /v1/plan).
func (c *Client) Plan(ctx context.Context, req wire.PlanRequest) (wire.PlanResponse, error) {
	var resp wire.PlanResponse
	err := c.post(ctx, wire.PathPlan, &req, &resp)
	return resp, err
}

// Submit uploads measurements for the given round.
func (c *Client) Submit(ctx context.Context, req wire.SubmitRequest) (wire.SubmitResponse, error) {
	var resp wire.SubmitResponse
	err := c.post(ctx, wire.PathSubmit, &req, &resp)
	return resp, err
}

// Advance asks the platform to move to the next round (operator action).
func (c *Client) Advance(ctx context.Context) (wire.AdvanceResponse, error) {
	var resp wire.AdvanceResponse
	err := c.post(ctx, wire.PathAdvance, struct{}{}, &resp)
	return resp, err
}

// Status fetches the platform's metric snapshot.
func (c *Client) Status(ctx context.Context) (wire.StatusResponse, error) {
	var resp wire.StatusResponse
	err := c.get(ctx, wire.PathStatus, &resp)
	return resp, err
}

// Estimate fetches the platform's aggregated estimate for one task.
func (c *Client) Estimate(ctx context.Context, id task.ID) (wire.EstimateResponse, error) {
	var resp wire.EstimateResponse
	err := c.get(ctx, fmt.Sprintf("%s?task=%d", wire.PathEstimate, id), &resp)
	return resp, err
}

// APIError is a non-2xx platform response.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Message is the platform's error string.
	Message string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("platform returned %d: %s", e.StatusCode, e.Message)
}

// tlvAppend appends in's TLV encoding to b; ok is false when in has no
// binary codec (only the hot request messages do).
func tlvAppend(b []byte, in any) (out []byte, ok bool) {
	switch m := in.(type) {
	case *wire.PlanRequest:
		return binary.AppendPlanRequest(b, m), true
	case *wire.SubmitRequest:
		return binary.AppendSubmitRequest(b, m), true
	}
	return b, false
}

// tlvDecode decodes a TLV body into out; ok is false when out has no
// binary codec.
func tlvDecode(data []byte, out any) (ok bool, err error) {
	switch m := out.(type) {
	case *wire.RoundInfo:
		return true, binary.DecodeRoundInfo(data, m)
	case *wire.PlanResponse:
		return true, binary.DecodePlanResponse(data, m)
	case *wire.SubmitResponse:
		return true, binary.DecodeSubmitResponse(data, m)
	}
	return false, nil
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return fmt.Errorf("client: build request: %w", err)
	}
	return c.do(req, out)
}

func (c *Client) post(ctx context.Context, path string, in, out any) error {
	buf := binary.GetBuffer()
	defer binary.PutBuffer(buf)
	contentType := "application/json"
	if c.codec == CodecTLV {
		if b, ok := tlvAppend((*buf)[:0], in); ok {
			*buf = b
			contentType = binary.ContentType
		}
	}
	if contentType != binary.ContentType {
		w := bytes.NewBuffer((*buf)[:0])
		if err := json.NewEncoder(w).Encode(in); err != nil {
			return fmt.Errorf("client: marshal request: %w", err)
		}
		*buf = w.Bytes()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(*buf))
	if err != nil {
		return fmt.Errorf("client: build request: %w", err)
	}
	req.Header.Set("Content-Type", contentType)
	return c.do(req, out)
}

// do sends the request and decodes the response by its Content-Type. In
// TLV mode every request accepts TLV and the platform decides per
// endpoint which responses use it. The response is read into a recycled
// buffer; every decoder copies everything it keeps, so the buffer never
// escapes.
func (c *Client) do(req *http.Request, out any) error {
	if c.codec == CodecTLV {
		req.Header.Set("Accept", binary.ContentType)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", req.Method, req.URL.Path, err)
	}
	defer resp.Body.Close()

	buf := binary.GetBuffer()
	defer binary.PutBuffer(buf)
	if err := binary.ReadAll(buf, io.LimitReader(resp.Body, 1<<20)); err != nil {
		return fmt.Errorf("client: read response: %w", err)
	}
	body := *buf

	if resp.StatusCode/100 != 2 {
		var apiErr wire.Error
		if json.Unmarshal(body, &apiErr) == nil && apiErr.Message != "" {
			return &APIError{StatusCode: resp.StatusCode, Message: apiErr.Message}
		}
		return &APIError{StatusCode: resp.StatusCode, Message: string(body)}
	}
	if out == nil {
		return nil
	}
	if strings.HasPrefix(resp.Header.Get("Content-Type"), binary.ContentType) {
		ok, err := tlvDecode(body, out)
		if err != nil {
			return fmt.Errorf("client: decode TLV response: %w", err)
		}
		if !ok {
			return fmt.Errorf("client: unexpected TLV response for %T", out)
		}
		return nil
	}
	if m, ok := out.(*wire.RoundInfo); ok && wire.DecodeRoundInfoJSON(body, m) {
		return nil
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("client: decode response: %w", err)
	}
	return nil
}
