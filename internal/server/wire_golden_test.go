package server

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"paydemand/internal/demand"
	"paydemand/internal/geo"
	"paydemand/internal/incentive"
	"paydemand/internal/task"
	"paydemand/internal/wire"
	"paydemand/internal/wire/binary"
)

var updateWireGolden = flag.Bool("update-wire", false, "rewrite testdata/wire-golden.txt from the current server")

// TestWireGolden pins every response of a small scripted campaign byte
// for byte, in both codecs: status code, Content-Type and body (hex for
// TLV). Three workers, five tasks, four rounds; each round makes a full
// round poll, a known-round poll, one plan and one submit per worker (the
// first worker's submit replayed once), a status call and an advance, and
// the script ends with malformed plan and submit bodies, an estimate, and
// the platform's WriteSnapshot bytes, the JSON a -state file holds. In
// TLV mode every request carries the TLV Accept header, as the client
// sends it, so the transcript also pins which endpoints answer JSON
// regardless.
// Rewrite with -update-wire only when the protocol is meant to change.
func TestWireGolden(t *testing.T) {
	var got bytes.Buffer
	for _, tlv := range []bool{false, true} {
		wireGoldenCampaign(t, &got, tlv)
	}
	path := filepath.Join("testdata", "wire-golden.txt")
	if *updateWireGolden {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("transcript differs from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("transcript differs from %s in length: %d lines, want %d", path, len(gl), len(wl))
	}
}

// wireGoldenPlatform is the golden campaign's platform: five tasks
// needing three measurements each, on-demand pricing.
func wireGoldenPlatform(t *testing.T) *Platform {
	t.Helper()
	scheme, err := incentive.SchemeFromBudget(200, 15, 0.5, demand.LevelMapper{N: 5})
	if err != nil {
		t.Fatal(err)
	}
	mech, err := incentive.NewPaperOnDemand(scheme)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{
		Tasks: []task.Task{
			{ID: 1, Location: geo.Pt(100, 100), Deadline: 4, Required: 3},
			{ID: 2, Location: geo.Pt(300, 250), Deadline: 5, Required: 3},
			{ID: 3, Location: geo.Pt(500, 500), Deadline: 3, Required: 3},
			{ID: 4, Location: geo.Pt(700, 650), Deadline: 6, Required: 3},
			{ID: 5, Location: geo.Pt(900, 900), Deadline: 6, Required: 3},
		},
		Mechanism:      mech,
		Area:           geo.Square(1000),
		NeighborRadius: 250,
		Logger:         discardLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// transcriptClient calls a platform over HTTP in one codec, as the
// worker client does, and appends one transcript line per response to
// out: status code, Content-Type and body (hex for TLV).
type transcriptClient struct {
	t   *testing.T
	srv *httptest.Server
	tlv bool
	out *bytes.Buffer
}

// call sends one request and returns the response body. In TLV mode it
// carries the TLV Accept header; bodyTLV labels the body as TLV, and
// known > 0 sends it as the known round.
func (c *transcriptClient) call(method, path string, known int, body []byte, bodyTLV bool) []byte {
	t := c.t
	t.Helper()
	req, err := http.NewRequest(method, c.srv.URL+path, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if c.tlv {
		req.Header.Set("Accept", binary.ContentType)
	}
	if body != nil {
		ct := "application/json"
		if bodyTLV {
			ct = binary.ContentType
		}
		req.Header.Set("Content-Type", ct)
	}
	if known > 0 {
		req.Header.Set(wire.HeaderKnownRound, strconv.Itoa(known))
	}
	resp, err := c.srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	ct := resp.Header.Get("Content-Type")
	shown := strings.TrimSuffix(string(data), "\n")
	if ct == binary.ContentType {
		shown = hex.EncodeToString(data)
	}
	label := method + " " + path
	if known > 0 {
		label += " known=" + strconv.Itoa(known)
	}
	fmt.Fprintf(c.out, "%s -> %d %s %s\n", label, resp.StatusCode, ct, shown)
	return data
}

// encode encodes a request body: plan and submit requests in the
// client's codec, everything else as JSON.
func (c *transcriptClient) encode(m any) []byte {
	c.t.Helper()
	if c.tlv {
		switch m := m.(type) {
		case *wire.PlanRequest:
			return binary.AppendPlanRequest(nil, m)
		case *wire.SubmitRequest:
			return binary.AppendSubmitRequest(nil, m)
		}
	}
	b, err := json.Marshal(m)
	if err != nil {
		c.t.Fatal(err)
	}
	return b
}

// plan requests a plan in the client's codec and decodes it.
func (c *transcriptClient) plan(req *wire.PlanRequest) wire.PlanResponse {
	c.t.Helper()
	body := c.call(http.MethodPost, wire.PathPlan, 0, c.encode(req), c.tlv)
	var plan wire.PlanResponse
	var err error
	if c.tlv {
		err = binary.DecodePlanResponse(body, &plan)
	} else {
		err = json.Unmarshal(body, &plan)
	}
	if err != nil {
		c.t.Fatalf("worker %d plan: %v", req.UserID, err)
	}
	return plan
}

// wireGoldenCampaign runs the scripted campaign against a fresh platform
// in one codec and appends its transcript to out.
func wireGoldenCampaign(t *testing.T, out *bytes.Buffer, tlv bool) {
	p := wireGoldenPlatform(t)
	srv := newServer(p)
	defer srv.Close()
	codec := "json"
	if tlv {
		codec = "tlv"
	}
	fmt.Fprintf(out, "# codec %s\n", codec)
	c := &transcriptClient{t: t, srv: srv, tlv: tlv, out: out}

	starts := []geo.Point{geo.Pt(150, 120), geo.Pt(520, 480), geo.Pt(850, 880)}
	ids := make([]int, len(starts))
	locs := append([]geo.Point(nil), starts...)
	for i, loc := range starts {
		var reg wire.RegisterResponse
		body := c.call(http.MethodPost, wire.PathRegister, 0, c.encode(&wire.RegisterRequest{Location: loc}), false)
		if err := json.Unmarshal(body, &reg); err != nil {
			t.Fatal(err)
		}
		ids[i] = reg.UserID
	}
	for round := 1; round <= 4; round++ {
		c.call(http.MethodGet, wire.PathRound, 0, nil, false)
		c.call(http.MethodGet, wire.PathRound, round, nil, false)
		for i, id := range ids {
			plan := c.plan(&wire.PlanRequest{
				UserID: id, Location: locs[i], Speed: 10, TimeBudget: 100, CostPerMeter: 0.01,
			})
			sub := wire.SubmitRequest{UserID: id, Round: round, Location: locs[i]}
			for k, tid := range plan.Order {
				sub.Measurements = append(sub.Measurements, wire.Measurement{
					TaskID: tid, Value: float64(10*id + k),
				})
			}
			c.call(http.MethodPost, wire.PathSubmit, 0, c.encode(&sub), tlv)
			if i == 0 {
				// A same-round replay: every measurement is rejected.
				c.call(http.MethodPost, wire.PathSubmit, 0, c.encode(&sub), tlv)
			}
			locs[i] = geo.Pt(locs[i].X+30, locs[i].Y+20)
		}
		c.call(http.MethodGet, wire.PathStatus, 0, nil, false)
		c.call(http.MethodPost, wire.PathAdvance, 0, []byte("{}"), false)
	}
	c.call(http.MethodPost, wire.PathPlan, 0, []byte{0xff}, tlv)
	c.call(http.MethodPost, wire.PathSubmit, 0, []byte("{\"user_id\":"), false)
	c.call(http.MethodPost, wire.PathSubmit, 0, []byte{1, 1, 0}, true)
	c.call(http.MethodGet, wire.PathEstimate+"?task=1", 0, nil, false)
	fmt.Fprintln(out, "# snapshot")
	if err := p.WriteSnapshot(out); err != nil {
		t.Fatal(err)
	}
}
