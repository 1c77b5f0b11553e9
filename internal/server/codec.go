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

// readMessage decodes a hot request body into m: through decodeTLV when
// the body is TLV, as one strict JSON value (decode) otherwise.
func readMessage[M any](r *http.Request, m *M, decodeTLV func([]byte, *M) error) error {
	if !strings.HasPrefix(r.Header.Get("Content-Type"), binary.ContentType) {
		return decode(r, m)
	}
	body, err := readBody(r)
	if err != nil {
		return err
	}
	err = decodeTLV(*body, m)
	binary.PutBuffer(body)
	return err
}

// writeMessage writes m as a 200 response: through appendTLV when the
// client accepts TLV, as JSON otherwise.
func writeMessage[M any](p *Platform, w http.ResponseWriter, r *http.Request, m *M, appendTLV func([]byte, *M) []byte) {
	if !strings.Contains(r.Header.Get("Accept"), binary.ContentType) {
		p.writeJSON(w, http.StatusOK, m)
		return
	}
	buf := binary.GetBuffer()
	*buf = appendTLV((*buf)[:0], m)
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
func readBody(r *http.Request) (*[]byte, error) {
	buf := binary.GetBuffer()
	err := binary.ReadAll(buf, io.LimitReader(r.Body, maxBodyBytes+1))
	if err == nil && len(*buf) > maxBodyBytes {
		err = errBodyTooLarge
	}
	if err != nil {
		binary.PutBuffer(buf)
		return nil, err
	}
	return buf, nil
}
