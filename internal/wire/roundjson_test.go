package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"paydemand/internal/geo"
	"paydemand/internal/task"
)

// platformRound is a full /v1/round body as cmd/platform serves it
// (-tasks 3 -round-every 0, round 1).
const platformRound = `{"round":1,"tasks":[` +
	`{"id":1,"location":{"x":1813.9808639388586,"y":2821.5272641350375},"deadline":12,"required":20,"received":0,"reward":15.666666666666668},` +
	`{"id":2,"location":{"x":1993.6801596554712,"y":1313.1425615609405},"deadline":11,"required":20,"received":0,"reward":15.666666666666668},` +
	`{"id":3,"location":{"x":1273.912491213797,"y":2060.469218601328},"deadline":11,"required":20,"received":0,"reward":15.666666666666668}` +
	`],"done":false}` + "\n"

// encodeRound returns the bytes json.NewEncoder writes for m, the body
// the platform serves.
func encodeRound(t testing.TB, m *RoundInfo) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRoundInfoJSON holds DecodeRoundInfoJSON to encoding/json with two
// oracles:
//
//   - the fuzzed bytes, decoded the way the client's RoundInto does it
//     (reset, fast path, json.Unmarshal on rejection) into a message
//     pre-filled by an earlier decode, leave it reflect.DeepEqual (nil
//     Tasks included) to json.Unmarshal alone with the same error, and a
//     rejection leaves the reset message untouched;
//   - a random RoundInfo drawn from a seed hashed from the same bytes
//     (random-bit floats, magnitudes below 1e-6 and at or above 1e21,
//     negative ints, nil, empty and long task lists) is accepted in its
//     Encode form and round-trips.
//
// The seeds are the platform's real bodies (full, unchanged, done, an
// empty round) and the inputs the fast path must refuse: pretty-printed
// and reordered bodies, fractions and exponents in int fields, leading
// zeros, overflow, and unknown, duplicate and trailing bytes.
func FuzzRoundInfoJSON(f *testing.F) {
	for _, seed := range []string{
		platformRound,
		`{"round":1,"tasks":null,"done":false,"unchanged":true}` + "\n",
		`{"round":13,"tasks":null,"done":true}` + "\n",
		`{"round":4,"tasks":null,"done":false}` + "\n",
		`{"round":4,"tasks":[],"done":false}` + "\n",
		`{"round":-0,"tasks":[{"id":-7,"location":{"x":-0,"y":1E+2},"deadline":0,"required":1,"received":0,"reward":5e-324}],"done":false}` + "\n",
		`{"round":9223372036854775807,"tasks":null,"done":false}` + "\n",
		`{"round":-9223372036854775808,"tasks":null,"done":false}` + "\n",
		`{"round":9223372036854775808,"tasks":null,"done":false}` + "\n",
		`{"round":1e2,"tasks":null,"done":false}` + "\n",
		`{"round":1,"tasks":[{"id":1,"location":{"x":1,"y":2},"deadline":1.0,"required":1,"received":0,"reward":1}],"done":false}` + "\n",
		`{"round":01,"tasks":null,"done":false}` + "\n",
		`{"round":1,"tasks":[{"id":1,"location":{"x":1,"y":2},"deadline":3,"required":1,"received":0,"reward":1e400}],"done":false}` + "\n",
		`{"round":1,"tasks":[{"id":1,"location":{"x":1,"y":2},"deadline":3,"required":1,"received":0,"reward":+1}],"done":false}` + "\n",
		`{"round":1,"tasks":[{"id":1,"location":{"x":1,"y":2},"deadline":3,"required":1,"received":0,"reward":.5}],"done":false}` + "\n",
		`{"round":1,"tasks":[{"id":1,"location":{"x":1,"y":2},"deadline":3,"required":1,"received":0,"reward":0x1p-2}],"done":false}` + "\n",
		`{"round":1,"tasks":[{"id":1,"location":{"x":1,"y":2},"deadline":3,"required":1,"received":0,"reward":1_0}],"done":false}` + "\n",
		`{"round":1,"tasks":[{"id":1,"location":{"x":1,"y":2},"deadline":3,"required":1,"received":0,"reward":inf}],"done":false}` + "\n",
		`{"round":1,"tasks":[{"id":1,"location":{"x":1,"y":2},"deadline":3,"required":1,"received":0,"reward":1.}],"done":false}` + "\n",
		`{"round":1,"tasks":[{"id":1,"location":{"x":1,"y":2},"deadline":3,"required":1,"received":0,"reward":1e}],"done":false}` + "\n",
		`{"round":1,"tasks":[{"id":1,"location":{"x":1,"y":2},"deadline":3,"required":1,"received":0,"reward":-}],"done":false}` + "\n",
		`{"round":+1,"tasks":null,"done":false}` + "\n",
		`{"round":1,"tasks":null,"done":false,"unchanged":false}` + "\n",
		`{"round":1,"tasks":null,"done":false,"extra":1}` + "\n",
		`{"round":1,"round":2,"tasks":null,"done":false}` + "\n",
		`{"tasks":null,"round":1,"done":false}` + "\n",
		`{"round":1,"tasks":null,"done":false}` + "\nx",
		`{"round":1,"tasks":null,"done":false}`,
		`{"round":1,"tasks":[{"id":5,"location":{"x":1,"y":2},"deadline":3,"required":1,"received":0,"reward":1},{"id":6}],"done":false}` + "\n",
	} {
		f.Add([]byte(seed))
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, []byte(platformRound), "", "  "); err != nil {
		f.Fatal(err)
	}
	f.Add(indented.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, prefill := range []string{"", platformRound} {
			checkAgainstUnmarshal(t, data, prefill)
		}
		h := fnv.New64a()
		h.Write(data)
		checkRoundTrip(t, randomRoundInfo(rand.New(rand.NewPCG(h.Sum64(), uint64(len(data))))))
	})
}

// checkAgainstUnmarshal is the first oracle: RoundInto's decode of data
// into a message pre-filled from prefill matches json.Unmarshal's.
func checkAgainstUnmarshal(t *testing.T, data []byte, prefill string) {
	t.Helper()
	// Two decodes of the same body give equal stale elements behind equal
	// capacities, which json.Unmarshal may expose on a partial list.
	fresh := func() RoundInfo {
		var m RoundInfo
		if prefill != "" {
			if err := json.Unmarshal([]byte(prefill), &m); err != nil {
				t.Fatal(err)
			}
		}
		return RoundInfo{Tasks: m.Tasks[:0]}
	}
	fast, slow := fresh(), fresh()
	entry := fast
	slowErr := json.Unmarshal(data, &slow)
	if DecodeRoundInfoJSON(data, &fast) {
		if slowErr != nil {
			t.Fatalf("fast path accepted %q, json.Unmarshal rejects it: %v", data, slowErr)
		}
	} else {
		if !sameMessage(fast, entry) {
			t.Fatalf("rejected %q but changed the message: %+v, was %+v", data, fast, entry)
		}
		if fastErr := json.Unmarshal(data, &fast); fmt.Sprint(fastErr) != fmt.Sprint(slowErr) {
			t.Fatalf("%q: fallback error %v, json.Unmarshal alone %v", data, fastErr, slowErr)
		}
	}
	if !reflect.DeepEqual(fast, slow) {
		t.Fatalf("%q (prefill %d bytes):\n fast path %#v\n json      %#v", data, len(prefill), fast, slow)
	}
}

// sameMessage reports whether a and b are the same value, with Tasks
// sharing one backing array at the same length and capacity.
func sameMessage(a, b RoundInfo) bool {
	if a.Round != b.Round || a.Done != b.Done || a.Unchanged != b.Unchanged {
		return false
	}
	if (a.Tasks == nil) != (b.Tasks == nil) || len(a.Tasks) != len(b.Tasks) || cap(a.Tasks) != cap(b.Tasks) {
		return false
	}
	return cap(a.Tasks) == 0 || &a.Tasks[:cap(a.Tasks)][0] == &b.Tasks[:cap(b.Tasks)][0]
}

// checkRoundTrip is the second oracle: the Encode form of m is accepted
// and decodes back to m, into a fresh message and into a reused one.
func checkRoundTrip(t *testing.T, m RoundInfo) {
	t.Helper()
	data := encodeRound(t, &m)
	var got RoundInfo
	if !DecodeRoundInfoJSON(data, &got) {
		t.Fatalf("fast path rejected the encoder's output %q", data)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip of %q:\n got  %#v\n want %#v", data, got, m)
	}
	reused := RoundInfo{Tasks: make([]TaskInfo, 3, 8)[:0]}
	if !DecodeRoundInfoJSON(data, &reused) || !reflect.DeepEqual(reused, m) {
		t.Fatalf("round trip of %q into a reused message:\n got  %#v\n want %#v", data, reused, m)
	}
}

// randomRoundInfo draws a message that stresses the encoder's number
// formats and the decoder's list handling.
func randomRoundInfo(r *rand.Rand) RoundInfo {
	m := RoundInfo{Round: randomInt(r), Done: r.IntN(2) == 0, Unchanged: r.IntN(2) == 0}
	n := 0
	switch r.IntN(4) {
	case 0: // nil list, encoded as null
	case 1:
		m.Tasks = []TaskInfo{}
	case 2:
		n = 1 + r.IntN(4)
	case 3:
		n = 100 + r.IntN(50)
	}
	for i := 0; i < n; i++ {
		m.Tasks = append(m.Tasks, TaskInfo{
			ID:       task.ID(randomInt(r)),
			Location: geo.Pt(randomFloat(r), randomFloat(r)),
			Deadline: randomInt(r),
			Required: randomInt(r),
			Received: randomInt(r),
			Reward:   randomFloat(r),
		})
	}
	return m
}

func randomInt(r *rand.Rand) int {
	switch r.IntN(3) {
	case 0:
		return r.IntN(100)
	case 1:
		return -r.IntN(100)
	}
	return int(r.Uint64())
}

// randomFloat covers both of encoding/json's float formats: %f inside
// [1e-6, 1e21) and the exponent form outside it.
func randomFloat(r *rand.Rand) float64 {
	sign := float64(1 - 2*r.IntN(2))
	switch r.IntN(5) {
	case 0:
		for {
			if v := math.Float64frombits(r.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
				return v
			}
		}
	case 1:
		return sign * r.Float64() * 1e-6 * math.Pow10(-r.IntN(300))
	case 2:
		return sign * 1e21 * (1 + 9*r.Float64()) * math.Pow10(r.IntN(280))
	case 3:
		return []float64{0, math.Copysign(0, -1), 1e-6, 1e21, math.SmallestNonzeroFloat64, math.MaxFloat64}[r.IntN(6)] * sign
	}
	return sign * r.Float64() * 5000
}
