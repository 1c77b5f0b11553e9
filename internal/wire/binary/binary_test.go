package binary

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"strconv"
	"testing"
	"testing/iotest"

	"paydemand/internal/geo"
	"paydemand/internal/task"
	"paydemand/internal/wire"
)

// sampleRoundInfo builds a RoundInfo with n tasks exercising every field.
func sampleRoundInfo(n int) wire.RoundInfo {
	m := wire.RoundInfo{Round: 7, Done: n == 0}
	for i := 0; i < n; i++ {
		m.Tasks = append(m.Tasks, wire.TaskInfo{
			ID:       task.ID(i + 1),
			Location: geo.Pt(float64(i)*13.5, float64(i)*-2.25),
			Deadline: 10 + i,
			Required: 3,
			Received: i % 4,
			Reward:   1.5 + float64(i)/7,
		})
	}
	return m
}

func sampleSubmitRequest() wire.SubmitRequest {
	return wire.SubmitRequest{
		UserID: 42,
		Round:  3,
		Measurements: []wire.Measurement{
			{TaskID: 1, Value: 55.25},
			{TaskID: 9, Value: -1e-9},
			{TaskID: 131072, Value: math.Inf(1)},
		},
		Location: geo.Pt(1234.5, -0.125),
	}
}

func sampleSubmitResponse() wire.SubmitResponse {
	return wire.SubmitResponse{
		Results: []wire.SubmitResult{
			{TaskID: 1, Accepted: true, Reward: 2.5},
			{TaskID: 9, Reason: "task expired"},
			{TaskID: 11, Reason: "already contributed"},
		},
		TotalPaid: 2.5,
	}
}

func samplePlanRequest() wire.PlanRequest {
	return wire.PlanRequest{
		UserID:       17,
		Location:     geo.Pt(100, 200),
		Speed:        2,
		TimeBudget:   600,
		CostPerMeter: 0.002,
	}
}

func samplePlanResponse() wire.PlanResponse {
	return wire.PlanResponse{
		Round:    4,
		Order:    []task.ID{5, 1, 3},
		Distance: 812.5,
		Reward:   9,
		Cost:     1.625,
		Profit:   7.375,
	}
}

func TestRoundTripAllMessages(t *testing.T) {
	t.Run("RoundInfo", func(t *testing.T) {
		for _, n := range []int{0, 1, 5, 100} {
			in := sampleRoundInfo(n)
			var out wire.RoundInfo
			if err := DecodeRoundInfo(AppendRoundInfo(nil, &in), &out); err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			// A decoded empty list is a non-nil zero-length slice; normalize
			// before the deep comparison.
			if len(in.Tasks) == 0 {
				in.Tasks, out.Tasks = nil, nil
			}
			if !reflect.DeepEqual(in, out) {
				t.Errorf("n=%d: round-trip mismatch:\n in=%+v\nout=%+v", n, in, out)
			}
		}
	})
	t.Run("PlanRequest", func(t *testing.T) {
		in := samplePlanRequest()
		var out wire.PlanRequest
		if err := DecodePlanRequest(AppendPlanRequest(nil, &in), &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("round-trip mismatch:\n in=%+v\nout=%+v", in, out)
		}
	})
	t.Run("PlanResponse", func(t *testing.T) {
		in := samplePlanResponse()
		var out wire.PlanResponse
		if err := DecodePlanResponse(AppendPlanResponse(nil, &in), &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("round-trip mismatch:\n in=%+v\nout=%+v", in, out)
		}
	})
	t.Run("SubmitRequest", func(t *testing.T) {
		in := sampleSubmitRequest()
		var out wire.SubmitRequest
		if err := DecodeSubmitRequest(AppendSubmitRequest(nil, &in), &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("round-trip mismatch:\n in=%+v\nout=%+v", in, out)
		}
	})
	t.Run("SubmitResponse", func(t *testing.T) {
		in := sampleSubmitResponse()
		var out wire.SubmitResponse
		if err := DecodeSubmitResponse(AppendSubmitResponse(nil, &in), &out); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Errorf("round-trip mismatch:\n in=%+v\nout=%+v", in, out)
		}
	})
}

// TestFloatExactness pins that float values travel as IEEE bit patterns:
// NaN payloads, signed zeros, and subnormals survive exactly, which is
// what makes JSON and TLV campaigns byte-identical (JSON cannot even
// carry NaN; the platform never emits one, but the codec must not be the
// layer that corrupts bits).
func TestFloatExactness(t *testing.T) {
	values := []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
		math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 0.1, 1e300}
	for _, v := range values {
		in := wire.PlanResponse{Profit: v}
		var out wire.PlanResponse
		if err := DecodePlanResponse(AppendPlanResponse(nil, &in), &out); err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(out.Profit) != math.Float64bits(v) {
			t.Errorf("bits changed: in=%x out=%x", math.Float64bits(v), math.Float64bits(out.Profit))
		}
	}
}

// wireMessage is one type of package wire under test: newMsg returns a
// pointer to a fresh zero message, and tlv, set for the five messages the
// binary codec carries, encodes such a message and decodes it into a
// fresh one.
type wireMessage struct {
	newMsg func() any
	tlv    func(any) (any, error)
}

func tlvMessage[M any](enc func([]byte, *M) []byte, dec func([]byte, *M) error) wireMessage {
	return wireMessage{
		newMsg: func() any { return new(M) },
		tlv: func(in any) (any, error) {
			out := new(M)
			return out, dec(enc(nil, in.(*M)), out)
		},
	}
}

func jsonMessage[M any]() wireMessage {
	return wireMessage{newMsg: func() any { return new(M) }}
}

// wireMessages are the protocol's messages. With TaskInfo, Measurement
// and SubmitResult, which fill reaches inside RoundInfo, SubmitRequest
// and SubmitResponse, they are all 14 types of package wire; a new wire
// type belongs here.
var wireMessages = []wireMessage{
	tlvMessage(AppendRoundInfo, DecodeRoundInfo),
	tlvMessage(AppendPlanRequest, DecodePlanRequest),
	tlvMessage(AppendPlanResponse, DecodePlanResponse),
	tlvMessage(AppendSubmitRequest, DecodeSubmitRequest),
	tlvMessage(AppendSubmitResponse, DecodeSubmitResponse),
	jsonMessage[wire.RegisterRequest](),
	jsonMessage[wire.RegisterResponse](),
	jsonMessage[wire.AdvanceResponse](),
	jsonMessage[wire.StatusResponse](),
	jsonMessage[wire.EstimateResponse](),
	jsonMessage[wire.Error](),
}

// A source supplies fill's leaf values and slice lengths.
type source interface {
	i() int64
	f() float64
	bool() bool
	str() string
	n() int
}

// distinct is the source that gives every leaf a value no other leaf
// gets (bools aside: they are all true) and every slice two elements.
type distinct struct{ last int64 }

func (d *distinct) i() int64    { d.last++; return d.last }
func (d *distinct) f() float64  { return float64(d.i()) + 0.5 }
func (d *distinct) bool() bool  { return true }
func (d *distinct) str() string { return "s" + strconv.FormatInt(d.i(), 10) }
func (*distinct) n() int        { return 2 }

// fill sets every exported field reachable from v, depth first, from src.
// A slice of length zero stays nil, as both decoders leave it. In the
// same walk it fails t on any exported field of a package wire struct
// that has no json tag: encoding/json would marshal it under its Go name.
func fill(t testing.TB, v reflect.Value, src source) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		typ := v.Type()
		for i := 0; i < typ.NumField(); i++ {
			field := typ.Field(i)
			if !field.IsExported() {
				continue
			}
			if typ.PkgPath() == wirePkg && field.Tag.Get("json") == "" {
				t.Errorf("wire.%s.%s has no json tag", typ.Name(), field.Name)
			}
			fill(t, v.Field(i), src)
		}
	case reflect.Slice:
		n := src.n()
		if n == 0 {
			return
		}
		s := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			fill(t, s.Index(i), src)
		}
		v.Set(s)
	case reflect.Int, reflect.Int64:
		v.SetInt(src.i())
	case reflect.Float64:
		v.SetFloat(src.f())
	case reflect.Bool:
		v.SetBool(src.bool())
	case reflect.String:
		v.SetString(src.str())
	default:
		t.Fatalf("fill: no values for %s fields", v.Type())
	}
}

var wirePkg = reflect.TypeOf(wire.Error{}).PkgPath()

// TestJSONFieldParity pins that both codecs carry every field of every
// message. fill gives each field a value of its own, so a field the TLV
// codec drops, or two fields that share a tag, change the TLV round
// trip, and a json:"-" field changes the JSON one. The same walk
// requires a json tag on every exported field of the wire types, whose
// JSON is the protocol.
func TestJSONFieldParity(t *testing.T) {
	for _, m := range wireMessages {
		in := m.newMsg()
		fill(t, reflect.ValueOf(in).Elem(), &distinct{})
		name := reflect.TypeOf(in).Elem().Name()

		j, err := json.Marshal(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		viaJSON := m.newMsg()
		if err := json.Unmarshal(j, viaJSON); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(viaJSON, in) {
			t.Errorf("%s: the JSON round trip changed the message:\n  in=%+v\njson=%+v", name, in, viaJSON)
		}
		if m.tlv == nil {
			continue
		}
		viaTLV, err := m.tlv(in)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(viaTLV, in) {
			t.Errorf("%s: the TLV round trip changed the message:\n in=%+v\ntlv=%+v", name, in, viaTLV)
		}
	}
}

// TestUnknownTagSkipped pins the evolution rule: a decoder skips fields
// with unknown tags of every known wire type instead of erroring, so old
// readers tolerate new writers.
func TestUnknownTagSkipped(t *testing.T) {
	in := samplePlanRequest()
	b := AppendPlanRequest(nil, &in)
	// Splice unknown fields of every skippable wire type in front.
	var extra []byte
	extra = appendBool(extra, 200, true)
	extra = appendI64(extra, 201, -5)
	extra = appendF64(extra, 202, 2.5)
	extra = appendString(extra, 203, "future")
	extra = append(extra, 204, wtMsg)
	extra = appendU32(extra, 2)
	extra = append(extra, 0xde, 0xad)
	extra = append(extra, 205, wtMsgList)
	extra = appendU32(extra, 4)
	extra = appendU32(extra, 0)
	extra = append(extra, 206, wtI64List)
	extra = appendU32(extra, 8)
	extra = append(extra, 1, 2, 3, 4, 5, 6, 7, 8)
	var out wire.PlanRequest
	if err := DecodePlanRequest(append(extra, b...), &out); err != nil {
		t.Fatalf("unknown tags not skipped: %v", err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("mismatch after skipping unknown fields:\n in=%+v\nout=%+v", in, out)
	}
}

// TestDecodeHardening feeds malformed inputs to every decoder and
// requires graceful errors — no panics, no giant allocations.
func TestDecodeHardening(t *testing.T) {
	ri := sampleRoundInfo(3)
	valid := AppendRoundInfo(nil, &ri)

	decoders := map[string]func([]byte) error{
		"RoundInfo":      func(d []byte) error { var m wire.RoundInfo; return DecodeRoundInfo(d, &m) },
		"PlanRequest":    func(d []byte) error { var m wire.PlanRequest; return DecodePlanRequest(d, &m) },
		"PlanResponse":   func(d []byte) error { var m wire.PlanResponse; return DecodePlanResponse(d, &m) },
		"SubmitRequest":  func(d []byte) error { var m wire.SubmitRequest; return DecodeSubmitRequest(d, &m) },
		"SubmitResponse": func(d []byte) error { var m wire.SubmitResponse; return DecodeSubmitResponse(d, &m) },
	}

	t.Run("truncations", func(t *testing.T) {
		// Every proper prefix of a valid message must decode or fail
		// gracefully — most fail with ErrTruncated, none may panic.
		for i := 0; i < len(valid); i++ {
			var m wire.RoundInfo
			if err := DecodeRoundInfo(valid[:i], &m); err == nil && i > 0 && i < len(valid) {
				// Some prefixes are field-aligned and decode fine; that is
				// acceptable. The assertion is the absence of panics.
				continue
			}
		}
	})

	t.Run("oversized length", func(t *testing.T) {
		// A list declaring far more bytes than exist.
		b := []byte{tagRoundInfoTasks, wtMsgList}
		b = appendU32(b, 1<<30)
		var m wire.RoundInfo
		err := DecodeRoundInfo(b, &m)
		if !errors.Is(err, ErrLength) {
			t.Errorf("oversized length: got %v, want ErrLength", err)
		}
	})

	t.Run("hostile count", func(t *testing.T) {
		// A list whose element count cannot fit the declared payload: the
		// count sanity cap must reject it before any allocation sized by it.
		b := []byte{tagRoundInfoTasks, wtMsgList}
		b = appendU32(b, 4) // payload: just the count
		b = appendU32(b, 1<<31-1)
		var m wire.RoundInfo
		err := DecodeRoundInfo(b, &m)
		if !errors.Is(err, ErrLength) {
			t.Errorf("hostile count: got %v, want ErrLength", err)
		}
	})

	t.Run("unknown wire type", func(t *testing.T) {
		for name, dec := range decoders {
			b := []byte{250, 99, 0}
			if err := dec(b); !errors.Is(err, ErrWireType) {
				t.Errorf("%s: unknown wire type: got %v, want ErrWireType", name, err)
			}
		}
	})

	t.Run("odd i64 list", func(t *testing.T) {
		b := []byte{tagPlanResponseOrder, wtI64List}
		b = appendU32(b, 7)
		b = append(b, 1, 2, 3, 4, 5, 6, 7)
		var m wire.PlanResponse
		if err := DecodePlanResponse(b, &m); !errors.Is(err, ErrLength) {
			t.Errorf("odd list payload: got %v, want ErrLength", err)
		}
	})

	t.Run("garbage", func(t *testing.T) {
		inputs := [][]byte{
			{0}, {1}, {255}, {1, 1}, {1, 3, 255, 255, 255, 255},
			{tagRoundInfoRound, wtI64, 1, 2, 3},
		}
		for name, dec := range decoders {
			for _, in := range inputs {
				if err := dec(in); err == nil {
					t.Errorf("%s: garbage %v decoded without error", name, in)
				}
			}
		}
	})
}

// TestDecodeReuseNoAllocs pins the decoder's allocation contract: decoding
// into a message whose slices already have capacity allocates nothing.
func TestDecodeReuseNoAllocs(t *testing.T) {
	in := sampleRoundInfo(50)
	data := AppendRoundInfo(nil, &in)
	var m wire.RoundInfo
	if err := DecodeRoundInfo(data, &m); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeRoundInfo(data, &m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state DecodeRoundInfo allocs = %v, want 0", allocs)
	}
}

// TestEncodeReuseNoAllocs pins the encoder's allocation contract: encoding
// into a buffer with capacity allocates nothing.
func TestEncodeReuseNoAllocs(t *testing.T) {
	in := sampleRoundInfo(50)
	buf := AppendRoundInfo(nil, &in)
	allocs := testing.AllocsPerRun(100, func() {
		buf = AppendRoundInfo(buf[:0], &in)
	})
	if allocs != 0 {
		t.Errorf("steady-state AppendRoundInfo allocs = %v, want 0", allocs)
	}
}

// TestBufferPool pins GetBuffer/PutBuffer semantics.
func TestBufferPool(t *testing.T) {
	b := GetBuffer()
	if len(*b) != 0 {
		t.Fatalf("fresh buffer has length %d", len(*b))
	}
	*b = append(*b, 1, 2, 3)
	PutBuffer(b)
	b2 := GetBuffer()
	if len(*b2) != 0 {
		t.Errorf("recycled buffer has length %d, want 0", len(*b2))
	}
	PutBuffer(b2)
}

// TestReadAll pins ReadAll: it appends to what the buffer holds, grows
// past the pooled capacity, and keeps the bytes read before an error.
func TestReadAll(t *testing.T) {
	want := make([]byte, 10000)
	for i := range want {
		want[i] = byte(i)
	}
	b := GetBuffer()
	defer PutBuffer(b)
	*b = append(*b, 'x')
	if err := ReadAll(b, iotest.HalfReader(bytes.NewReader(want))); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(*b, append([]byte{'x'}, want...)) {
		t.Fatalf("read %d bytes, want %d after the prefix", len(*b)-1, len(want))
	}

	*b = (*b)[:0]
	errBoom := errors.New("boom")
	err := ReadAll(b, io.MultiReader(bytes.NewReader(want[:5]), iotest.ErrReader(errBoom)))
	if !errors.Is(err, errBoom) || !bytes.Equal(*b, want[:5]) {
		t.Fatalf("got %v with %d bytes, want boom with 5", err, len(*b))
	}
}
