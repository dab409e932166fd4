// Package wire provides a small, deterministic, allocation-conscious binary
// encoding used for every message and attestation in the library.
//
// Signatures are computed over wire-encoded bytes, so the encoding must be
// canonical: encoding the same logical value always yields the same bytes.
// encoding/gob does not guarantee this across streams (it emits type
// descriptors statefully), and encoding/json is both slower and not canonical
// for maps, so the library uses this explicit little-endian TLV-free format:
// fixed-width integers and length-prefixed byte strings, written in a fixed
// field order by each message type.
//
// The two core types are Encoder (append-only buffer writer) and Decoder
// (sequential reader that latches the first error, so call sites can decode a
// whole struct and check the error once at the end).
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
)

// MaxPayload is the maximum length accepted for a single byte-string field.
// This is a defensive bound: a malformed or malicious length prefix must not
// cause a huge allocation. 64 MiB comfortably exceeds any message this
// library produces. Transports framing wire-encoded messages (tcpnet) size
// their frame limit from this constant so the two bounds cannot drift.
const MaxPayload = 64 << 20

const maxBytesLen = MaxPayload

// FrameTraceFlag is bit 31 of a transport frame's uint32 length prefix. The
// payload bound (MaxPayload < 2^31) leaves the top bit permanently zero in
// every frame ever emitted before trace propagation existed, so it is free
// to version-gate an optional trailing trace-context block: flag set means
// "a fixed-size trace context follows the payload". Old frames decode
// unchanged (flag clear), and new senders emit byte-identical frames when no
// trace context rides along.
const FrameTraceFlag uint32 = 1 << 31

// EncodeFrameSize builds a frame length prefix for a payload of n bytes,
// setting the trace flag when a trace block follows.
func EncodeFrameSize(n int, traced bool) uint32 {
	v := uint32(n)
	if traced {
		v |= FrameTraceFlag
	}
	return v
}

// DecodeFrameSize splits a frame length prefix into the payload size and the
// trace flag.
func DecodeFrameSize(v uint32) (size uint32, traced bool) {
	return v &^ FrameTraceFlag, v&FrameTraceFlag != 0
}

var (
	// ErrTruncated reports that the input ended before the field being read.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrTooLarge reports a length prefix exceeding the defensive bound.
	ErrTooLarge = errors.New("wire: byte string too large")
	// ErrTrailing reports unconsumed bytes after a complete decode.
	ErrTrailing = errors.New("wire: trailing bytes after message")
)

// Encoder accumulates a deterministic binary encoding. The zero value is
// ready to use. Encoders must not be copied after first use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an Encoder with the given initial capacity hint.
func NewEncoder(capacity int) *Encoder {
	return &Encoder{buf: make([]byte, 0, capacity)}
}

// AppendTo returns an Encoder that appends to b.
func AppendTo(b []byte) *Encoder { return &Encoder{buf: b} }

// Bytes returns the accumulated encoding. The slice aliases the encoder's
// internal buffer; callers that keep it must not append to the encoder again.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset clears the encoder for reuse, retaining the allocated buffer.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Uint64 appends v as 8 little-endian bytes.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

// Uint32 appends v as 4 little-endian bytes.
func (e *Encoder) Uint32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

// Int appends v as a uint64. Negative values are rejected at decode time via
// the caller's own validation; the encoding itself is two's-complement.
func (e *Encoder) Int(v int) { e.Uint64(uint64(int64(v))) }

// Byte appends a single byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Bool appends a single byte: 1 for true, 0 for false.
func (e *Encoder) Bool(b bool) {
	if b {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// BytesField appends a length prefix (uint32) followed by b.
func (e *Encoder) BytesField(b []byte) {
	if len(b) > math.MaxUint32 {
		// Cannot happen for in-memory slices on 64-bit, but keep the
		// encoding total.
		panic("wire: byte string exceeds uint32 length")
	}
	e.Uint32(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// BytesFieldWith appends the length prefix n followed by the n bytes that
// fill appends to the buffer it is handed: a field written in place instead
// of encoded apart and copied in. It panics if fill appends any other
// number of bytes.
func (e *Encoder) BytesFieldWith(n int, fill func([]byte) []byte) {
	e.Uint32(uint32(n))
	start := len(e.buf)
	e.buf = fill(e.buf)
	if len(e.buf)-start != n {
		panic("wire: field does not match its length prefix")
	}
}

// String appends a length-prefixed UTF-8 string.
func (e *Encoder) String(s string) {
	e.Uint32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// encoderPool recycles Encoders for transient encodings — statements that
// are signed or verified and then discarded. The hot protocol paths encode
// the same small statements (value/echo/L1 bindings, attestation bodies)
// for every message; pooling removes those per-message allocations.
var encoderPool = sync.Pool{
	New: func() any { return &Encoder{buf: make([]byte, 0, 512)} },
}

// GetEncoder returns a reset Encoder from the pool. Pair with PutEncoder.
// Use only for transient encodings: once the encoder is returned to the
// pool, any slice obtained from Bytes is invalid. Encodings that outlive
// the call site (message payloads handed to a transport, fields stored in
// protocol state) must use NewEncoder instead.
func GetEncoder() *Encoder {
	e := encoderPool.Get().(*Encoder)
	e.Reset()
	return e
}

// PutEncoder returns e to the pool. The caller must not use e, or any
// slice previously returned by e.Bytes, after this call.
func PutEncoder(e *Encoder) {
	// Drop oversized buffers instead of pinning them in the pool.
	if cap(e.buf) > 64<<10 {
		return
	}
	encoderPool.Put(e)
}

// Decoder reads values sequentially from a buffer. The first failure is
// latched: subsequent reads return zero values and Err reports the failure.
// This lets decode functions read every field unconditionally and perform a
// single error check.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder returns a Decoder over buf. The decoder does not copy buf;
// byte-string fields returned by BytesField alias it.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Err returns the first error encountered, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish returns an error if decoding failed or input remains unconsumed.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d bytes", ErrTrailing, len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.Remaining() < n {
		d.fail(fmt.Errorf("%w: need %d bytes, have %d", ErrTruncated, n, d.Remaining()))
		return nil
	}
	// Capped at its own end: an append to a decoded field copies instead of
	// overwriting the bytes after it in a frame other decoded fields alias.
	b := d.buf[d.off : d.off+n : d.off+n]
	d.off += n
	return b
}

// Uint64 reads 8 little-endian bytes.
func (d *Decoder) Uint64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// Uint32 reads 4 little-endian bytes.
func (d *Decoder) Uint32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// Int reads a uint64 and converts it back to int.
func (d *Decoder) Int() int { return int(int64(d.Uint64())) }

// Byte reads a single byte.
func (d *Decoder) Byte() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a single byte and interprets any nonzero value as true.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// BytesField reads a length-prefixed byte string. The returned slice aliases
// the decoder's input, capped at the field's end; callers that retain it
// across input reuse must copy.
func (d *Decoder) BytesField() []byte {
	n := d.Uint32()
	if d.err != nil {
		return nil
	}
	if n > maxBytesLen {
		d.fail(fmt.Errorf("%w: %d bytes", ErrTooLarge, n))
		return nil
	}
	return d.take(int(n))
}

// String reads a length-prefixed string (copying out of the input buffer).
func (d *Decoder) String() string { return string(d.BytesField()) }
