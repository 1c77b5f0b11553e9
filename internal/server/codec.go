package server

import (
	"errors"
	"io"
	"net/http"
	"strings"

	"paydemand/internal/wire/binary"
)

// Content negotiation for the hot endpoints (/v1/round, /v1/plan,
// /v1/submit): a request whose Accept header names the TLV content type
// gets a TLV response body, and a request body whose Content-Type names
// it is decoded as TLV. Everything else — every other endpoint and every
// error body — stays JSON, the protocol's default and its debugging
// surface, whatever the Accept header says. The hot handlers go through
// readMessage and writeMessage only, so which messages speak TLV is
// decided here, per endpoint, by the codec functions each handler passes.
// TLV responses encode into recycled buffers (binary.GetBuffer), so a
// steady-state hit allocates no transport bytes.

// readMessage decodes a hot request body into m: through decodeTLV, a
// closure that decodes into m, when the body is TLV, and as one strict
// JSON value (decode) otherwise. A call through a func value leaks its
// arguments to the heap but not the variables the func value captures,
// so with m reached only through the closure the caller's message stays
// on its stack. decode takes an interface, so the JSON path decodes into
// a boxed copy instead.
func readMessage[M any](r *http.Request, m *M, decodeTLV func([]byte) error) error {
	if !strings.HasPrefix(r.Header.Get("Content-Type"), binary.ContentType) {
		box := new(M)
		err := decode(r, box)
		*m = *box
		return err
	}
	body, err := readBody(r)
	if err != nil {
		return err
	}
	err = decodeTLV(*body)
	binary.PutBuffer(body)
	return err
}

// writeMessage writes m as a 200 response: through appendTLV, a closure
// that appends m's encoding, when the client accepts TLV, and as JSON
// otherwise. As in readMessage, only the JSON path boxes a copy of m.
func writeMessage[M any](p *Platform, w http.ResponseWriter, r *http.Request, m *M, appendTLV func([]byte) []byte) {
	if !strings.Contains(r.Header.Get("Accept"), binary.ContentType) {
		box := new(M)
		*box = *m
		p.writeJSON(w, http.StatusOK, box)
		return
	}
	buf := binary.GetBuffer()
	*buf = appendTLV((*buf)[:0])
	w.Header().Set("Content-Type", binary.ContentType)
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(*buf); err != nil {
		p.logger.Error("write response", "err", err)
	}
	binary.PutBuffer(buf)
}

// errBodyTooLarge rejects oversized TLV request bodies.
var errBodyTooLarge = errors.New("request body exceeds limit")

// readBody reads a bounded request body into a recycled buffer. The
// caller must return the buffer with binary.PutBuffer once the decoded
// message no longer references it (the TLV decoders copy strings and
// decode scalars by value, so the decoded message never aliases it).
// On error the buffer is left to the GC instead: an oversized body grew
// it past maxBodyBytes, and the pool would hand that to small requests.
func readBody(r *http.Request) (*[]byte, error) {
	buf := binary.GetBuffer()
	err := binary.ReadAll(buf, io.LimitReader(r.Body, maxBodyBytes+1))
	if err == nil && len(*buf) > maxBodyBytes {
		err = errBodyTooLarge
	}
	if err != nil {
		return nil, err
	}
	return buf, nil
}
