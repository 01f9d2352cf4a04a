package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// The TCP transport frames every message — in both directions — as
//
//	frame    := length(4, big-endian) body
//	body     := tag(1) rest
//	tag      := 0x01 (binary codec v1; any other value is a protocol error)
//
//	request  := id(uvarint) traceID(uvarint) spanID(uvarint) flags(1)
//	            [deadlineNs(uvarint)] msg
//	            flags bit0 = trace sampled
//	            flags bit1 = caller wants the stage-latency block back
//	            flags bit2 = an absolute deadline (unix nanoseconds)
//	              precedes msg; the server drops the request with
//	              ErrDeadlineExceeded if it dequeues it after that
//	              instant, and bounds the handler context by it
//	response := id(uvarint) flags(1) [stages] rest
//	            flags&0x03 == 0x00: rest = msg
//	            flags&0x03 == 0x01: rest = error string (uvarint length + bytes)
//	            flags&0x03 == 0x02: nil payload, rest empty
//	            flags bit2 = a stage-latency block precedes rest:
//	              serveNs(uvarint) count(uvarint) (stageID(1) ns(uvarint))*
//
// The stage block is only emitted when the request asked for it (flags
// bit1), and the deadline block only when the caller has a deadline, so a
// frame that uses neither carries neither.
//
// `msg` is opaque to the transport: it is produced and consumed by the
// Codec installed with SetCodec (internal/wire's codec v1, which prefixes a
// message-type id). This file and that codec are the only two places that
// decide what bytes go on a connection. Frames carry no per-connection
// state, so they are encoded on the calling goroutine and the write loops
// only coalesce and flush. A payload the codec cannot encode fails that one
// call (ErrUnsupportedType from Call; an error response from a handler) and
// leaves the connection up; an inbound frame whose tag is not 0x01 closes
// the connection.
const (
	frameTagV1 = 0x01

	// maxFrame bounds a frame body; anything larger is a protocol error
	// (or an attack) and kills the connection.
	maxFrame = 1 << 28

	// frameHeaderLen is the fixed length prefix preceding every body.
	frameHeaderLen = 4
)

// Codec is a pluggable binary codec for whole request/response payloads.
// Append must encode msg (a registered wire message) onto buf and return
// the extended slice, or an error wrapping ErrUnsupportedType when it has
// no encoding for msg's type. Decode is the inverse and must consume
// exactly the bytes Append wrote.
type Codec interface {
	Append(buf []byte, msg any) ([]byte, error)
	Decode(data []byte) (any, error)
}

// ErrUnsupportedType is returned by a Codec that has no encoding for a
// message type. TCPClient.Call returns it (wrapped) for such a request; a
// handler's such response reaches the caller as a RemoteError.
var ErrUnsupportedType = errors.New("transport: no binary codec for type")

// codec is the process-wide payload codec, installed by internal/wire's
// init (the transport's own tests install a fake from TestMain).
var codec atomic.Pointer[Codec]

// SetCodec installs the payload codec. It is meant to be called once, from
// an init function.
func SetCodec(c Codec) { codec.Store(&c) }

// ---- pooled frame buffers ----

// bufPool recycles frame buffers across encodes and reads. Buffers are
// passed by pointer so the pool never allocates slice headers.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

func putBuf(b *[]byte) {
	// Keep very large one-off buffers (a full recovery pull, a stats dump)
	// out of the pool so steady-state frames stay small.
	if cap(*b) > 1<<20 {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// ---- wire metrics ----

// wireMetrics is the transport's observability hook: bytes on the wire by
// direction, and encode/decode latency histograms.
type wireMetrics struct {
	tx, rx       *obs.Counter
	encNs, decNs *obs.Histogram
}

func newWireMetrics(reg *obs.Registry) *wireMetrics {
	if reg == nil {
		return nil
	}
	return &wireMetrics{
		tx:    reg.Counter(`wire_bytes_total{dir="tx",codec="v1"}`),
		rx:    reg.Counter(`wire_bytes_total{dir="rx",codec="v1"}`),
		encNs: reg.Histogram("wire_encode_ns"),
		decNs: reg.Histogram("wire_decode_ns"),
	}
}

// countTx records one outbound frame, length prefix included.
func (m *wireMetrics) countTx(frame []byte) {
	if m != nil {
		m.tx.Add(int64(len(frame)))
	}
}

// countRx records one inbound frame body plus its length prefix.
func (m *wireMetrics) countRx(body []byte) {
	if m != nil {
		m.rx.Add(int64(len(body) + frameHeaderLen))
	}
}

// now returns the wall clock only when metrics are enabled, so the hot path
// pays no clock reads when nobody is looking.
func (m *wireMetrics) now() (t time.Time) {
	if m != nil {
		t = time.Now()
	}
	return
}

func (m *wireMetrics) observeEncode(start time.Time) {
	if m != nil {
		m.encNs.ObserveSince(start)
	}
}

func (m *wireMetrics) observeDecode(start time.Time) {
	if m != nil {
		m.decNs.ObserveSince(start)
	}
}

// ---- frame encode ----

// finishFrame fills in the 4-byte length prefix reserved at the start of
// buf. The body must already be in buf[frameHeaderLen:].
func finishFrame(buf []byte) ([]byte, error) {
	n := len(buf) - frameHeaderLen
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame body %d exceeds limit %d", n, maxFrame)
	}
	binary.BigEndian.PutUint32(buf[:frameHeaderLen], uint32(n))
	return buf, nil
}

// appendPayload encodes payload with the installed codec. With no codec
// installed nothing is encodable.
func appendPayload(buf []byte, payload any) ([]byte, error) {
	c := codec.Load()
	if c == nil {
		return nil, ErrUnsupportedType
	}
	return (*c).Append(buf, payload)
}

// encodeRequest encodes one outbound request frame in a pooled buffer. It
// fails with an error wrapping ErrUnsupportedType when the codec cannot
// encode payload.
func encodeRequest(id uint64, tc obs.TraceContext, wantStages bool, deadlineNs int64, payload any, m *wireMetrics) (*[]byte, error) {
	start := m.now()
	bufp := getBuf()
	buf := append((*bufp)[:0], 0, 0, 0, 0, frameTagV1)
	buf = binary.AppendUvarint(buf, id)
	buf = binary.AppendUvarint(buf, tc.TraceID)
	buf = binary.AppendUvarint(buf, tc.SpanID)
	var flags byte
	if tc.Sampled {
		flags |= 1
	}
	if wantStages {
		flags |= 2
	}
	if deadlineNs > 0 {
		flags |= 4
	}
	buf = append(buf, flags)
	if deadlineNs > 0 {
		buf = binary.AppendUvarint(buf, uint64(deadlineNs))
	}
	out, err := appendPayload(buf, payload)
	if err == nil {
		out, err = finishFrame(out)
	}
	if err != nil {
		putBuf(bufp)
		return nil, err
	}
	*bufp = out
	m.observeEncode(start)
	return bufp, nil
}

// encodeResponse encodes one outbound response frame in a pooled buffer.
// Error and nil-payload responses always encode; only a payload can fail
// (no codec for its type, or a body over maxFrame).
func encodeResponse(resp wireResponse, m *wireMetrics) (*[]byte, error) {
	start := m.now()
	bufp := getBuf()
	buf := append((*bufp)[:0], 0, 0, 0, 0, frameTagV1)
	buf = binary.AppendUvarint(buf, resp.ID)
	var kind byte
	switch {
	case resp.Err != "":
		kind = 0x01
	case resp.Payload == nil:
		kind = 0x02
	}
	flags := kind
	hasStages := resp.ServeNs > 0 || len(resp.StageIDs) > 0
	if hasStages {
		flags |= 0x04
	}
	buf = append(buf, flags)
	if hasStages {
		buf = binary.AppendUvarint(buf, uint64(resp.ServeNs))
		buf = binary.AppendUvarint(buf, uint64(len(resp.StageIDs)))
		for i, id := range resp.StageIDs {
			buf = append(buf, id)
			buf = binary.AppendUvarint(buf, uint64(resp.StageNs[i]))
		}
	}
	var (
		out []byte
		err error
	)
	switch kind {
	case 0x01:
		buf = binary.AppendUvarint(buf, uint64(len(resp.Err)))
		out = append(buf, resp.Err...)
	case 0x02:
		out = buf
	default:
		out, err = appendPayload(buf, resp.Payload)
	}
	if err == nil {
		out, err = finishFrame(out)
	}
	if err != nil {
		putBuf(bufp)
		return nil, err
	}
	*bufp = out
	m.observeEncode(start)
	return bufp, nil
}

// ---- frame read + decode ----

// readFrame reads one length-prefixed frame body into a pooled buffer.
// The caller must release the buffer with putBuf.
func readFrame(br *bufio.Reader) (*[]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame body %d exceeds limit %d", n, maxFrame)
	}
	bufp := getBuf()
	if cap(*bufp) < int(n) {
		*bufp = make([]byte, n)
	}
	*bufp = (*bufp)[:n]
	if _, err := io.ReadFull(br, *bufp); err != nil {
		putBuf(bufp)
		return nil, err
	}
	return bufp, nil
}

var errShortFrame = errors.New("transport: truncated frame")

// openBody checks an inbound frame body's tag, counts the frame, and
// returns what follows the tag.
func openBody(body []byte, m *wireMetrics) ([]byte, error) {
	if len(body) == 0 {
		return nil, errShortFrame
	}
	if body[0] != frameTagV1 {
		return nil, fmt.Errorf("transport: unknown frame tag %#x", body[0])
	}
	m.countRx(body)
	return body[1:], nil
}

// decodePayload is appendPayload's inverse.
func decodePayload(data []byte) (any, error) {
	c := codec.Load()
	if c == nil {
		return nil, errors.New("transport: frame received but no codec installed")
	}
	return (*c).Decode(data)
}

// decodeRequest parses one inbound request frame body. Byte slices inside
// the returned payload are copies; body may be recycled immediately.
func decodeRequest(body []byte, m *wireMetrics) (req wireRequest, err error) {
	start := m.now()
	rest, err := openBody(body, m)
	if err != nil {
		return req, err
	}
	var n, n2, n3 int
	req.ID, n = binary.Uvarint(rest)
	if n <= 0 {
		return req, errShortFrame
	}
	req.TC.TraceID, n2 = binary.Uvarint(rest[n:])
	if n2 <= 0 {
		return req, errShortFrame
	}
	req.TC.SpanID, n3 = binary.Uvarint(rest[n+n2:])
	if n3 <= 0 || len(rest) < n+n2+n3+1 {
		return req, errShortFrame
	}
	flags := rest[n+n2+n3]
	req.TC.Sampled = flags&1 != 0
	req.WantStages = flags&2 != 0
	rest = rest[n+n2+n3+1:]
	if flags&4 != 0 {
		dl, k := binary.Uvarint(rest)
		if k <= 0 {
			return req, errShortFrame
		}
		req.DeadlineNs = int64(dl)
		rest = rest[k:]
	}
	if req.Payload, err = decodePayload(rest); err != nil {
		return req, err
	}
	m.observeDecode(start)
	return req, nil
}

// decodeResponse parses one inbound response frame body.
func decodeResponse(body []byte, m *wireMetrics) (resp wireResponse, err error) {
	start := m.now()
	rest, err := openBody(body, m)
	if err != nil {
		return resp, err
	}
	var n int
	resp.ID, n = binary.Uvarint(rest)
	if n <= 0 || len(rest) < n+1 {
		return resp, errShortFrame
	}
	flags := rest[n]
	rest = rest[n+1:]
	if flags&0x04 != 0 {
		sv, k := binary.Uvarint(rest)
		if k <= 0 {
			return resp, errShortFrame
		}
		resp.ServeNs = int64(sv)
		cnt, k2 := binary.Uvarint(rest[k:])
		rest = rest[k+k2:]
		if k2 <= 0 || cnt > 64 {
			return resp, errShortFrame
		}
		if cnt > 0 {
			resp.StageIDs = make([]byte, 0, cnt)
			resp.StageNs = make([]int64, 0, cnt)
		}
		for i := uint64(0); i < cnt; i++ {
			if len(rest) < 2 {
				return resp, errShortFrame
			}
			id := rest[0]
			v, k3 := binary.Uvarint(rest[1:])
			if k3 <= 0 {
				return resp, errShortFrame
			}
			rest = rest[1+k3:]
			resp.StageIDs = append(resp.StageIDs, id)
			resp.StageNs = append(resp.StageNs, int64(v))
		}
		flags &^= 0x04
	}
	switch flags {
	case 0x00:
		if resp.Payload, err = decodePayload(rest); err != nil {
			return resp, err
		}
	case 0x01:
		sl, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < sl {
			return resp, errShortFrame
		}
		resp.Err = string(rest[n : n+int(sl)])
	case 0x02:
		// nil payload
	default:
		return resp, fmt.Errorf("transport: unknown response flags %#x", flags)
	}
	m.observeDecode(start)
	if !start.IsZero() {
		// Piggyback on the metrics clock read: lets the caller attribute
		// decode time to its stage ledger without a second Now().
		resp.decodeNs = int64(time.Since(start))
	}
	return resp, nil
}
