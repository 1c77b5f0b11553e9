package wire

import (
	"math"
	"strconv"

	"paydemand/internal/task"
)

// DecodeRoundInfoJSON decodes a /v1/round JSON body into m without
// reflection. It accepts exactly the bytes json.NewEncoder(w).Encode
// writes for a RoundInfo, which is what the platform serves:
//
//	{"round":R,"tasks":null|[...],"done":B[,"unchanged":true]}\n
//
// with every key in struct order, no whitespace, each task's keys in
// TaskInfo order and numbers in the JSON grammar. On such a body it
// leaves *m exactly as json.Unmarshal(data, m) would: "null" gives a nil
// Tasks, "[]" an empty non-nil one, and a list reuses m.Tasks' capacity.
// It reports false on any other input, with *m as it was on entry, so the
// caller can fall back to json.Unmarshal and get its result and error. A
// rejected body may leave whole elements it decoded in m.Tasks' spare
// capacity; json.Unmarshal decodes those same elements in full from the
// same bytes, so the fallback's result does not change.
func DecodeRoundInfoJSON(data []byte, m *RoundInfo) (ok bool) {
	entry := *m
	c := jsonCursor{b: data}
	if c.roundInfo(m) {
		return true
	}
	*m = entry
	return false
}

// jsonCursor walks a canonical body. Every step reports false at the
// first byte that departs from the layout the encoder writes.
type jsonCursor struct {
	b []byte
	i int
}

func (c *jsonCursor) roundInfo(m *RoundInfo) bool {
	var ok bool
	if !c.lit(`{"round":`) {
		return false
	}
	if m.Round, ok = c.integer(); !ok || !c.lit(`,"tasks":`) {
		return false
	}
	switch {
	case c.lit("null"):
		m.Tasks = nil
	case c.lit("["):
		if !c.tasks(m) {
			return false
		}
	default:
		return false
	}
	if !c.lit(`,"done":`) {
		return false
	}
	if m.Done, ok = c.boolean(); !ok {
		return false
	}
	// omitempty: the encoder writes the key only when it is set.
	if c.lit(`,"unchanged":true`) {
		m.Unchanged = true
	}
	return c.lit("}\n") && c.i == len(c.b)
}

// tasks decodes the list after its opening bracket.
func (c *jsonCursor) tasks(m *RoundInfo) bool {
	tasks := m.Tasks[:0]
	if tasks == nil {
		tasks = []TaskInfo{}
	}
	if !c.lit("]") {
		for {
			var t TaskInfo
			if !c.task(&t) {
				return false
			}
			tasks = append(tasks, t)
			if c.lit("]") {
				break
			}
			if !c.lit(",") {
				return false
			}
		}
	}
	m.Tasks = tasks
	return true
}

func (c *jsonCursor) task(t *TaskInfo) bool {
	var ok bool
	var id int
	if !c.lit(`{"id":`) {
		return false
	}
	if id, ok = c.integer(); !ok || !c.lit(`,"location":{"x":`) {
		return false
	}
	t.ID = task.ID(id)
	if t.Location.X, ok = c.float(); !ok || !c.lit(`,"y":`) {
		return false
	}
	if t.Location.Y, ok = c.float(); !ok || !c.lit(`},"deadline":`) {
		return false
	}
	if t.Deadline, ok = c.integer(); !ok || !c.lit(`,"required":`) {
		return false
	}
	if t.Required, ok = c.integer(); !ok || !c.lit(`,"received":`) {
		return false
	}
	if t.Received, ok = c.integer(); !ok || !c.lit(`,"reward":`) {
		return false
	}
	if t.Reward, ok = c.float(); !ok || !c.lit("}") {
		return false
	}
	return true
}

// lit consumes s if the input continues with it.
func (c *jsonCursor) lit(s string) bool {
	if len(c.b)-c.i < len(s) || string(c.b[c.i:c.i+len(s)]) != s {
		return false
	}
	c.i += len(s)
	return true
}

func (c *jsonCursor) boolean() (v, ok bool) {
	switch {
	case c.lit("true"):
		return true, true
	case c.lit("false"):
		return false, true
	}
	return false, false
}

// number consumes a token of the JSON number grammar
// -?(0|[1-9]\d*)(\.\d+)?([eE][+-]?\d+)? and reports whether it has no
// fraction or exponent. strconv.ParseFloat alone would also take "+1",
// ".5", "0x1p-2", "1_0" and "inf", which encoding/json rejects.
func (c *jsonCursor) number() (tok []byte, integral, ok bool) {
	b, i := c.b, c.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i)
	default:
		return nil, false, false
	}
	integral = true
	if i < len(b) && b[i] == '.' {
		start := i + 1
		if i = skipDigits(b, start); i == start {
			return nil, false, false
		}
		integral = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		start := i
		if i = skipDigits(b, i); i == start {
			return nil, false, false
		}
		integral = false
	}
	tok = b[c.i:i]
	c.i = i
	return tok, integral, true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// integer decodes an int field. Like encoding/json, it rejects a
// fraction, an exponent and a value that overflows int.
func (c *jsonCursor) integer() (int, bool) {
	tok, integral, ok := c.number()
	if !ok || !integral {
		return 0, false
	}
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	var n uint64
	for _, ch := range tok {
		d := uint64(ch - '0')
		if n > (limit-d)/10 {
			return 0, false
		}
		n = n*10 + d
	}
	if neg {
		return -int(n), true
	}
	return int(n), true
}

// float decodes a float64 field with strconv.ParseFloat, as
// encoding/json does; an out-of-range value is rejected.
func (c *jsonCursor) float() (float64, bool) {
	tok, _, ok := c.number()
	if !ok {
		return 0, false
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	return v, err == nil
}
