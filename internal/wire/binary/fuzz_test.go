package binary

import (
	"encoding/binary"
	"math"
	"reflect"
	"testing"

	"paydemand/internal/wire"
)

// consumer derives message content deterministically from fuzz input.
type consumer struct {
	data []byte
	off  int
}

func (c *consumer) byte() byte {
	if c.off >= len(c.data) {
		return 0
	}
	b := c.data[c.off]
	c.off++
	return b
}

func (c *consumer) i() int64 {
	var u uint32
	for k := 0; k < 4; k++ {
		u = u<<8 | uint32(c.byte())
	}
	return int64(int32(u))
}

func (c *consumer) f() float64 {
	var u uint64
	for k := 0; k < 8; k++ {
		u = u<<8 | uint64(c.byte())
	}
	f := math.Float64frombits(u)
	if math.IsNaN(f) {
		// NaN payloads round-trip through TLV but break DeepEqual; the
		// dedicated TestFloatExactness covers them bit-exactly.
		return 0
	}
	return f
}

func (c *consumer) bool() bool { return c.byte()&1 == 1 }

func (c *consumer) str() string {
	n := int(c.byte()) % 16
	b := make([]byte, n)
	for k := range b {
		b[k] = c.byte()
	}
	return string(b)
}

func (c *consumer) n() int { return int(c.byte()) % 8 }

// FuzzBinaryRoundTrip fills all five TLV messages from the fuzz input,
// requires TLV encode→decode to reproduce them exactly, and then feeds
// the raw input to every decoder, requiring graceful errors (no panics,
// no unbounded allocations) on arbitrary bytes. fill walks the messages
// by reflection, so a new wire field is fuzzed as soon as it exists.
func FuzzBinaryRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	seed := AppendRoundInfo(nil, &wire.RoundInfo{Round: 3, Tasks: []wire.TaskInfo{{ID: 1, Reward: 2}}})
	f.Add(seed)
	long := make([]byte, 256)
	for i := range long {
		long[i] = byte(i * 7)
	}
	f.Add(long)

	f.Fuzz(func(t *testing.T, data []byte) {
		c := &consumer{data: data}
		for _, m := range wireMessages {
			if m.tlv == nil {
				continue
			}
			in := m.newMsg()
			fill(t, reflect.ValueOf(in).Elem(), c)
			out, err := m.tlv(in)
			if err != nil {
				t.Fatalf("%T: %v", in, err)
			}
			if !reflect.DeepEqual(in, out) {
				t.Fatalf("%T mismatch:\n in=%+v\nout=%+v", in, in, out)
			}
		}

		// Hardening: the raw fuzz input through every decoder must never
		// panic; errors are expected and fine.
		var hri wire.RoundInfo
		_ = DecodeRoundInfo(data, &hri)
		var hpq wire.PlanRequest
		_ = DecodePlanRequest(data, &hpq)
		var hpr wire.PlanResponse
		_ = DecodePlanResponse(data, &hpr)
		var hsq wire.SubmitRequest
		_ = DecodeSubmitRequest(data, &hsq)
		var hsr wire.SubmitResponse
		_ = DecodeSubmitResponse(data, &hsr)
	})
}

// FuzzBinaryDecodeHardened hammers the decoders with structured-looking
// hostile input: the fuzz data is reinterpreted as TLV framing so length
// prefixes and counts land on interesting boundaries more often than with
// fully random bytes.
func FuzzBinaryDecodeHardened(f *testing.F) {
	ri := sampleRoundInfo(4)
	f.Add(AppendRoundInfo(nil, &ri))
	sq := sampleSubmitRequest()
	f.Add(AppendSubmitRequest(nil, &sq))
	b := []byte{tagRoundInfoTasks, wtMsgList}
	b = binary.LittleEndian.AppendUint32(b, 8)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint32(b, 0)
	f.Add(b)

	f.Fuzz(func(t *testing.T, data []byte) {
		var ri wire.RoundInfo
		_ = DecodeRoundInfo(data, &ri)
		if len(ri.Tasks) > len(data) {
			t.Fatalf("decoded %d tasks from %d bytes", len(ri.Tasks), len(data))
		}
		var sq wire.SubmitRequest
		_ = DecodeSubmitRequest(data, &sq)
		if len(sq.Measurements) > len(data) {
			t.Fatalf("decoded %d measurements from %d bytes", len(sq.Measurements), len(data))
		}
		var sr wire.SubmitResponse
		_ = DecodeSubmitResponse(data, &sr)
		var pr wire.PlanResponse
		_ = DecodePlanResponse(data, &pr)
		var pq wire.PlanRequest
		_ = DecodePlanRequest(data, &pq)
	})
}
