// Package binary is the compact TLV codec for the platform protocol's hot
// messages. At platform scale the dominant serving cost is no longer the
// solver (PRs 2–7) but reflective encoding/json on every /v1/round and
// /v1/plan hit — millions of workers polling published prices each round,
// the paper's distributed WST-mode loop. This package replaces that cost
// on the hot endpoints with hand-rolled, length-prefixed field encoding:
//
//	field   := tag(1B) wiretype(1B) payload
//	payload := fixed-width scalar        (size implied by the wire type)
//	         | u32 length + bytes        (strings, nested messages, lists)
//
// All integers are little-endian and fixed-width — no varints, so encoded
// size is input-independent and the encoder never branches on magnitude.
// Floats travel as their IEEE 754 bit patterns, so values round-trip
// exactly and JSON/TLV campaign outcomes stay byte-identical.
//
// Evolution rules (see DESIGN.md §14): new fields get fresh tags,
// appended to the message's tag constants; decoders skip unknown tags
// (every variable-width payload is length-prefixed, every scalar's width
// is implied by its wire type), so old readers tolerate new writers. Tags
// are never reused or renumbered. TestJSONFieldParity round-trips every
// field of every message through both codecs, so a field added to only
// one codec fails the tests.
//
// Encoding targets recycled buffers (GetBuffer/PutBuffer); decoding into
// a reused message allocates nothing beyond the returned message's own
// slices and strings.
package binary

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// ContentType is the MIME type of TLV-encoded protocol messages, used in
// HTTP Content-Type and Accept headers. JSON remains the default and the
// debugging surface; error bodies are always JSON.
const ContentType = "application/x-paydemand-tlv"

// Wire types. Scalar payload widths are implied; every variable-width
// payload (wtBytes, wtMsg, wtMsgList, wtI64List) starts with a u32 byte
// length so decoders can skip fields they do not know.
const (
	wtBool    = 0 // 1 byte, 0 or 1
	wtI64     = 1 // 8 bytes, little-endian two's complement
	wtF64     = 2 // 8 bytes, little-endian IEEE 754 bits
	wtBytes   = 3 // u32 length + raw bytes
	wtMsg     = 4 // u32 length + nested message fields
	wtMsgList = 5 // u32 length + u32 count + count × (u32 length + fields)
	wtI64List = 6 // u32 length + length/8 × i64
)

// Decode errors. Decoders never panic on hostile input: every length is
// checked against the remaining bytes before it is used, list counts are
// sanity-capped by the space their elements' length prefixes alone would
// need, and unknown wire types are a hard error (their size is unknowable,
// so the field cannot be skipped).
var (
	// ErrTruncated means the data ended inside a field.
	ErrTruncated = errors.New("binary: truncated message")
	// ErrLength means a length prefix exceeds the enclosing payload or
	// violates the wire type's size contract.
	ErrLength = errors.New("binary: bad length prefix")
	// ErrWireType means a field carries an unknown wire type and cannot
	// be skipped.
	ErrWireType = errors.New("binary: unknown wire type")
)

// bufPool recycles encode and transport buffers.
var bufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

// GetBuffer returns a recycled byte buffer with zero length. Append into
// it (the AppendX functions return the possibly grown slice — store it
// back) and return it with PutBuffer when the encoded bytes are no longer
// referenced.
func GetBuffer() *[]byte {
	return bufPool.Get().(*[]byte)
}

// PutBuffer recycles a buffer obtained from GetBuffer. The caller must
// not retain any slice of it.
func PutBuffer(b *[]byte) {
	*b = (*b)[:0]
	bufPool.Put(b)
}

// ReadAll appends r's bytes to the recycled buffer *buf until EOF,
// growing it in place. The bytes read before an error stay in *buf.
func ReadAll(buf *[]byte, r io.Reader) error {
	b := *buf
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			*buf = b
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
}

// appendU32 appends a little-endian u32.
func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// appendBool appends a bool field.
func appendBool(b []byte, tag uint8, v bool) []byte {
	b = append(b, tag, wtBool)
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// appendI64 appends an int field as a little-endian i64.
func appendI64(b []byte, tag uint8, v int64) []byte {
	u := uint64(v)
	return append(b, tag, wtI64,
		byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// appendF64 appends a float field as little-endian IEEE 754 bits.
func appendF64(b []byte, tag uint8, v float64) []byte {
	u := math.Float64bits(v)
	return append(b, tag, wtF64,
		byte(u), byte(u>>8), byte(u>>16), byte(u>>24),
		byte(u>>32), byte(u>>40), byte(u>>48), byte(u>>56))
}

// appendString appends a string field.
func appendString(b []byte, tag uint8, s string) []byte {
	b = append(b, tag, wtBytes)
	b = appendU32(b, uint32(len(s)))
	return append(b, s...)
}

// beginLen reserves a u32 length slot and returns its offset; fill it
// with endLen once the payload is appended.
func beginLen(b []byte) ([]byte, int) {
	at := len(b)
	return append(b, 0, 0, 0, 0), at
}

// endLen backfills the length slot at `at` with the bytes appended since.
func endLen(b []byte, at int) []byte {
	n := uint32(len(b) - at - 4)
	b[at] = byte(n)
	b[at+1] = byte(n >> 8)
	b[at+2] = byte(n >> 16)
	b[at+3] = byte(n >> 24)
	return b
}

// A reader is a bounds-checked cursor over one message's bytes.
type reader struct {
	data []byte
	off  int
}

// remaining reports the unread byte count.
func (r *reader) remaining() int { return len(r.data) - r.off }

// head reads the next field's tag and wire type.
func (r *reader) head() (tag, wt uint8, err error) {
	if r.remaining() < 2 {
		return 0, 0, ErrTruncated
	}
	tag, wt = r.data[r.off], r.data[r.off+1]
	r.off += 2
	return tag, wt, nil
}

// u32 reads a little-endian u32.
func (r *reader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, ErrTruncated
	}
	d := r.data[r.off:]
	r.off += 4
	return uint32(d[0]) | uint32(d[1])<<8 | uint32(d[2])<<16 | uint32(d[3])<<24, nil
}

// u64 reads a little-endian u64.
func (r *reader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, ErrTruncated
	}
	d := r.data[r.off:]
	r.off += 8
	return uint64(d[0]) | uint64(d[1])<<8 | uint64(d[2])<<16 | uint64(d[3])<<24 |
		uint64(d[4])<<32 | uint64(d[5])<<40 | uint64(d[6])<<48 | uint64(d[7])<<56, nil
}

// boolean reads a 1-byte bool.
func (r *reader) boolean() (bool, error) {
	if r.remaining() < 1 {
		return false, ErrTruncated
	}
	v := r.data[r.off]
	r.off++
	return v != 0, nil
}

// i64 reads a little-endian i64.
func (r *reader) i64() (int64, error) {
	u, err := r.u64()
	return int64(u), err
}

// int reads an i64 field as an int.
func (r *reader) int() (int, error) {
	v, err := r.i64()
	return int(v), err
}

// f64 reads little-endian IEEE 754 bits.
func (r *reader) f64() (float64, error) {
	u, err := r.u64()
	return math.Float64frombits(u), err
}

// varPayload reads a u32 length prefix, validates it against the
// remaining bytes, and returns the payload slice (aliasing r.data).
func (r *reader) varPayload() ([]byte, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if int64(n) > int64(r.remaining()) {
		return nil, fmt.Errorf("%w: %d bytes declared, %d remain", ErrLength, n, r.remaining())
	}
	p := r.data[r.off : r.off+int(n)]
	r.off += int(n)
	return p, nil
}

// str reads a length-prefixed string (copied out of the buffer, so the
// decoded message never aliases transport scratch).
func (r *reader) str() (string, error) {
	p, err := r.varPayload()
	if err != nil {
		return "", err
	}
	return string(p), nil
}

// skip consumes a field whose tag the decoder does not know. Scalar
// widths are implied by the wire type; variable-width payloads are
// skipped by their length prefix. Unknown wire types cannot be skipped.
func (r *reader) skip(wt uint8) error {
	switch wt {
	case wtBool:
		_, err := r.boolean()
		return err
	case wtI64, wtF64:
		_, err := r.u64()
		return err
	case wtBytes, wtMsg, wtMsgList, wtI64List:
		_, err := r.varPayload()
		return err
	default:
		return fmt.Errorf("%w: %d", ErrWireType, wt)
	}
}

// msgList opens a wtMsgList payload: it validates the count against the
// minimum space its elements' length prefixes alone would occupy (each
// element costs at least 4 bytes), so a hostile count cannot drive a
// large allocation, and returns the count plus the elements' bytes. The
// caller iterates with a stack-local reader (returning a *reader here
// would heap-allocate on every decoded list).
func (r *reader) msgList() (int, []byte, error) {
	p, err := r.varPayload()
	if err != nil {
		return 0, nil, err
	}
	sub := reader{data: p}
	n, err := sub.u32()
	if err != nil {
		return 0, nil, err
	}
	if int64(n)*4 > int64(sub.remaining()) {
		return 0, nil, fmt.Errorf("%w: %d list elements declared in %d bytes", ErrLength, n, sub.remaining())
	}
	return int(n), p[sub.off:], nil
}
