package binary

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"paydemand/internal/wire"
)

// The encode/decode grid behind BENCH_wire.json: the 100-task RoundInfo
// is the paper's serving hot spot (every worker polls it every round);
// PlanRequest/SubmitRequest are the small per-action messages. JSON
// columns measure the reflective encoding/json cost the TLV codec
// replaces on the hot endpoints; the jsonfast column is the client's
// reflection-free decode of the canonical JSON round body
// (wire.DecodeRoundInfoJSON).

func benchRoundInfo(n int) wire.RoundInfo { return sampleRoundInfo(n) }

func BenchmarkEncodeRoundInfo(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		m := benchRoundInfo(n)
		b.Run(fmt.Sprintf("codec=json/tasks=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var out []byte
			for i := 0; i < b.N; i++ {
				var err error
				out, err = json.Marshal(&m)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(len(out)))
		})
		b.Run(fmt.Sprintf("codec=tlv/tasks=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			buf := AppendRoundInfo(nil, &m)
			for i := 0; i < b.N; i++ {
				buf = AppendRoundInfo(buf[:0], &m)
			}
			b.SetBytes(int64(len(buf)))
		})
	}
}

func BenchmarkDecodeRoundInfo(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		m := benchRoundInfo(n)
		jsonData, err := json.Marshal(&m)
		if err != nil {
			b.Fatal(err)
		}
		var canonical bytes.Buffer
		if err := json.NewEncoder(&canonical).Encode(&m); err != nil {
			b.Fatal(err)
		}
		tlvData := AppendRoundInfo(nil, &m)
		b.Run(fmt.Sprintf("codec=json/tasks=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(jsonData)))
			var out wire.RoundInfo
			for i := 0; i < b.N; i++ {
				out = wire.RoundInfo{Tasks: out.Tasks[:0]}
				if err := json.Unmarshal(jsonData, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("codec=jsonfast/tasks=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(canonical.Len()))
			var out wire.RoundInfo
			for i := 0; i < b.N; i++ {
				out = wire.RoundInfo{Tasks: out.Tasks[:0]}
				if !wire.DecodeRoundInfoJSON(canonical.Bytes(), &out) {
					b.Fatal("fast path rejected the encoder's output")
				}
			}
		})
		b.Run(fmt.Sprintf("codec=tlv/tasks=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(tlvData)))
			var out wire.RoundInfo
			for i := 0; i < b.N; i++ {
				if err := DecodeRoundInfo(tlvData, &out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkEncodeSubmitRequest(b *testing.B) {
	m := sampleSubmitRequest()
	m.Measurements[2].Value = 61.75 // the sample's Inf is not JSON-encodable
	b.Run("codec=json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(&m); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("codec=tlv", func(b *testing.B) {
		b.ReportAllocs()
		buf := AppendSubmitRequest(nil, &m)
		for i := 0; i < b.N; i++ {
			buf = AppendSubmitRequest(buf[:0], &m)
		}
	})
}

func BenchmarkDecodePlanRequest(b *testing.B) {
	m := samplePlanRequest()
	jsonData, err := json.Marshal(&m)
	if err != nil {
		b.Fatal(err)
	}
	tlvData := AppendPlanRequest(nil, &m)
	b.Run("codec=json", func(b *testing.B) {
		b.ReportAllocs()
		var out wire.PlanRequest
		for i := 0; i < b.N; i++ {
			out = wire.PlanRequest{}
			if err := json.Unmarshal(jsonData, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("codec=tlv", func(b *testing.B) {
		b.ReportAllocs()
		var out wire.PlanRequest
		for i := 0; i < b.N; i++ {
			if err := DecodePlanRequest(tlvData, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
