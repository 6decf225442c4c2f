// Binary payload codec for protocol version 2 (SCRW v2), used for every
// frame after the JSON handshake.
//
// The payload follows the outer framing (uint32 length + type byte, see
// wire.go) as a compact hand-rolled binary encoding:
//
//	uvarint  stream ID   (multiplexing: which enrollment this frame belongs to)
//	uvarint  sequence ID (op pipelining: echoes the request on its OP-RESULT;
//	                      0 on frames that are not operations)
//	...      message body, encoded field-by-field (see each appendBody case)
//
// Scalars are varints (zigzag for signed), strings and byte slices are
// length-prefixed, and dynamic values carry a one-byte type tag. Types the
// value codec does not model natively fall back to an embedded JSON blob,
// so every JSON-encodable value crosses the wire. Unlike plain JSON — which
// coerces every number to float64 — the codec preserves integer-ness
// across the wire (ints arrive as int, not float64).
//
// Decoding is total: a malformed payload of any length yields an error,
// never a panic or an unbounded allocation (every length read is checked
// against the bytes actually remaining, and value nesting is depth-capped).
// FuzzParsePayload holds the codec to that contract.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// MaxVersion is the protocol version this package speaks, the only one the
// handshake accepts.
const MaxVersion = 2

// Decode-side error sentinels. Kept as values so the hot path never
// allocates an error message for routine truncation checks.
var (
	errTruncated = errors.New("wire: truncated v2 payload")
	errOversized = errors.New("wire: v2 length field exceeds payload")
	errBadTag    = errors.New("wire: unknown v2 value tag")
	errTooDeep   = errors.New("wire: v2 value nesting too deep")
	errTrailing  = errors.New("wire: trailing bytes after v2 payload")
)

// errVersion rejects a payload codec request for a version other than
// MaxVersion.
func errVersion(ver int) error {
	return fmt.Errorf("wire: no payload codec for protocol v%d (only v%d)", ver, MaxVersion)
}

// maxValueDepth bounds the nesting of the dynamic value codec, so a
// malicious frame cannot drive the decoder into unbounded recursion.
const maxValueDepth = 64

// Dynamic value type tags.
const (
	vNil byte = iota
	vFalse
	vTrue
	vInt   // zigzag varint; decodes as int
	vUint  // uvarint; only for uint64 values above MaxInt64
	vFloat // 8-byte IEEE 754, little endian
	vString
	vBytes
	vList // uvarint count + values
	vMap  // uvarint count + (string key, value) pairs
	vJSON // length-prefixed JSON blob (fallback for unmodeled types)
)

// ErrInfo code bytes. Byte 0 escapes to an explicit string code, so codes
// added later still cross older decoders losslessly.
var errCodeBytes = map[string]byte{
	CodeRoleAbsent:   1,
	CodeRoleFinished: 2,
	CodeUnknownRole:  3,
	CodeClosed:       4,
	CodeDraining:     5,
	CodeOverloaded:   6,
	CodeAborted:      7,
	CodeNoBranches:   8,
	CodeCanceled:     9,
	CodeDeadline:     10,
	CodeRoleError:    11,
	CodeOther:        12,
}

var errCodeStrings = func() map[byte]string {
	m := make(map[byte]string, len(errCodeBytes))
	for s, b := range errCodeBytes {
		m[b] = s
	}
	return m
}()

// ---------------------------------------------------------------------------
// Append (encode) side
// ---------------------------------------------------------------------------

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func appendBytes(b, p []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendValue(b []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case nil:
		return append(b, vNil), nil
	case bool:
		if v {
			return append(b, vTrue), nil
		}
		return append(b, vFalse), nil
	case int:
		return binary.AppendVarint(append(b, vInt), int64(v)), nil
	case int8:
		return binary.AppendVarint(append(b, vInt), int64(v)), nil
	case int16:
		return binary.AppendVarint(append(b, vInt), int64(v)), nil
	case int32:
		return binary.AppendVarint(append(b, vInt), int64(v)), nil
	case int64:
		return binary.AppendVarint(append(b, vInt), v), nil
	case uint:
		return appendUnsigned(b, uint64(v)), nil
	case uint8:
		return binary.AppendVarint(append(b, vInt), int64(v)), nil
	case uint16:
		return binary.AppendVarint(append(b, vInt), int64(v)), nil
	case uint32:
		return binary.AppendVarint(append(b, vInt), int64(v)), nil
	case uint64:
		return appendUnsigned(b, v), nil
	case float32:
		return binary.LittleEndian.AppendUint64(append(b, vFloat), math.Float64bits(float64(v))), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, vFloat), math.Float64bits(v)), nil
	case string:
		return appendString(append(b, vString), v), nil
	case []byte:
		return appendBytes(append(b, vBytes), v), nil
	case []any:
		b = binary.AppendUvarint(append(b, vList), uint64(len(v)))
		var err error
		for _, e := range v {
			if b, err = appendValue(b, e); err != nil {
				return nil, err
			}
		}
		return b, nil
	case map[string]any:
		b = binary.AppendUvarint(append(b, vMap), uint64(len(v)))
		var err error
		for k, e := range v {
			b = appendString(b, k)
			if b, err = appendValue(b, e); err != nil {
				return nil, err
			}
		}
		return b, nil
	default:
		// Anything richer rides an embedded JSON blob and arrives as
		// encoding/json decodes it (numbers as float64, structs as maps).
		blob, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("wire: marshal value: %w", err)
		}
		return appendBytes(append(b, vJSON), blob), nil
	}
}

func appendUnsigned(b []byte, v uint64) []byte {
	if v <= math.MaxInt64 {
		return binary.AppendVarint(append(b, vInt), int64(v))
	}
	return binary.AppendUvarint(append(b, vUint), v)
}

func appendValues(b []byte, vs []any) ([]byte, error) {
	b = binary.AppendUvarint(b, uint64(len(vs)))
	var err error
	for _, v := range vs {
		if b, err = appendValue(b, v); err != nil {
			return nil, err
		}
	}
	return b, nil
}

func appendErrInfo(b []byte, e *ErrInfo) []byte {
	if e == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	if code, ok := errCodeBytes[e.Code]; ok {
		b = append(b, code)
	} else {
		b = appendString(append(b, 0), e.Code)
	}
	b = appendString(b, e.Msg)
	b = appendString(b, e.Script)
	b = binary.AppendUvarint(b, uint64(e.Performance))
	b = appendString(b, e.Culprit)
	b = appendString(b, e.Reason)
	b = appendString(b, e.Role)
	b = binary.AppendUvarint(b, uint64(e.RetryAfterMS))
	return b
}

// appendBody appends m's v2 body (everything after the stream/seq envelope).
func appendBody(b []byte, t MsgType, m any) ([]byte, error) {
	switch m := m.(type) {
	case Enroll:
		return appendEnroll(b, &m)
	case *Enroll:
		return appendEnroll(b, m)
	case *OfferAck:
		return appendBody(b, t, *m)
	case *Send:
		return appendBody(b, t, *m)
	case *SendAll:
		return appendBody(b, t, *m)
	case *Recv:
		return appendBody(b, t, *m)
	case *Select:
		return appendBody(b, t, *m)
	case *Query:
		return appendBody(b, t, *m)
	case *BodyDone:
		return appendBody(b, t, *m)
	case *OpResult:
		return appendBody(b, t, *m)
	case *Complete:
		return appendBody(b, t, *m)
	case *Abort:
		return appendBody(b, t, *m)
	case *Drain:
		return b, nil
	case *Heartbeat:
		return b, nil
	case *Cancel:
		return b, nil
	case *Resume:
		return appendBody(b, t, *m)
	case *ResumeAck:
		return appendBody(b, t, *m)
	case *Ack:
		return appendBody(b, t, *m)
	case *Bye:
		return b, nil
	case *ProtoError:
		return appendBody(b, t, *m)
	case OfferAck:
		b = binary.AppendUvarint(b, uint64(m.Performance))
		b = appendString(b, m.Role)
		// TraceID is an optional trailing field (see appendEnroll).
		if m.TraceID != "" {
			b = appendString(b, m.TraceID)
		}
		return b, nil
	case Send:
		b = appendString(b, m.To)
		b = appendString(b, m.Tag)
		return appendValue(b, m.Val)
	case SendAll:
		b = binary.AppendUvarint(b, uint64(len(m.Tos)))
		for _, to := range m.Tos {
			b = appendString(b, to)
		}
		return appendValue(b, m.Val)
	case Recv:
		b = appendString(b, m.From)
		return appendString(b, m.Tag), nil
	case Select:
		b = binary.AppendUvarint(b, uint64(len(m.Branches)))
		var err error
		for _, br := range m.Branches {
			var flags byte
			if br.Send {
				flags |= 1
			}
			if br.AnyPeer {
				flags |= 2
			}
			b = append(b, flags)
			b = appendString(b, br.Peer)
			b = appendString(b, br.Tag)
			b = binary.AppendUvarint(b, uint64(br.Index))
			if br.Send {
				if b, err = appendValue(b, br.Val); err != nil {
					return nil, err
				}
			}
		}
		return b, nil
	case Query:
		b = appendString(b, m.Kind)
		b = appendString(b, m.Role)
		return appendString(b, m.Name), nil
	case BodyDone:
		b, err := appendValues(b, m.Results)
		if err != nil {
			return nil, err
		}
		return appendErrInfo(b, m.Err), nil
	case OpResult:
		b, err := appendValue(b, m.Val)
		if err != nil {
			return nil, err
		}
		b = appendString(b, m.Peer)
		b = appendString(b, m.Tag)
		b = binary.AppendUvarint(b, uint64(m.Index))
		b = binary.AppendUvarint(b, uint64(m.N))
		b = appendBool(b, m.Bool)
		return appendErrInfo(b, m.Err), nil
	case Complete:
		b = binary.AppendUvarint(b, uint64(m.Performance))
		b = appendString(b, m.Role)
		b, err := appendValues(b, m.Values)
		if err != nil {
			return nil, err
		}
		return appendErrInfo(b, m.Err), nil
	case Abort:
		b = binary.AppendUvarint(b, uint64(m.Performance))
		b = appendString(b, m.Culprit)
		return appendString(b, m.Reason), nil
	case Drain, Heartbeat, Cancel, Bye:
		return b, nil
	case Resume:
		b = appendString(b, m.Token)
		return binary.AppendUvarint(b, m.RecvCount), nil
	case ResumeAck:
		return binary.AppendUvarint(b, m.RecvCount), nil
	case Ack:
		return binary.AppendUvarint(b, m.Count), nil
	case ProtoError:
		return appendString(b, m.Msg), nil
	default:
		return nil, fmt.Errorf("wire: %s has no v2 encoding", t)
	}
}

func appendEnroll(b []byte, m *Enroll) ([]byte, error) {
	b = appendString(b, m.PID)
	b = appendString(b, m.Role)
	b = binary.AppendUvarint(b, uint64(m.DeadlineMS))
	b, err := appendValues(b, m.Args)
	if err != nil {
		return nil, err
	}
	b = binary.AppendUvarint(b, uint64(len(m.With)))
	for role, pids := range m.With {
		b = appendString(b, role)
		b = binary.AppendUvarint(b, uint64(len(pids)))
		for _, pid := range pids {
			b = appendString(b, pid)
		}
	}
	// TraceID rides as an optional trailing field: appended only when set,
	// parsed only when bytes remain. An empty ID keeps the original frame
	// layout byte-for-byte, so pre-tracing peers and the fuzz corpus stay
	// compatible.
	if m.TraceID != "" {
		b = appendString(b, m.TraceID)
	}
	return b, nil
}

// AppendPayload appends one frame payload (the bytes after the type byte):
// the binary envelope + body. ver must be MaxVersion; there is no other
// payload codec. Appending to a reused buffer keeps the encode path
// allocation-free at steady state; Conn maintains a pool of such buffers
// for its writes.
func AppendPayload(dst []byte, ver int, t MsgType, stream, seq uint64, m any) ([]byte, error) {
	if ver != MaxVersion {
		return nil, errVersion(ver)
	}
	dst = binary.AppendUvarint(dst, stream)
	dst = binary.AppendUvarint(dst, seq)
	return appendBody(dst, t, m)
}

// ---------------------------------------------------------------------------
// Parse (decode) side
// ---------------------------------------------------------------------------

// cursor walks a payload. Every read checks the remaining length, so
// decoding malformed input fails with an error instead of panicking.
type cursor struct {
	b   []byte
	off int
}

func (c *cursor) remaining() int { return len(c.b) - c.off }

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		return 0, errTruncated
	}
	c.off += n
	return v, nil
}

func (c *cursor) varint() (int64, error) {
	v, n := binary.Varint(c.b[c.off:])
	if n <= 0 {
		return 0, errTruncated
	}
	c.off += n
	return v, nil
}

// count reads a uvarint element count and bounds it by the bytes remaining
// (each encoded element costs at least minBytes), so a corrupt count cannot
// force an oversized allocation.
func (c *cursor) count(minBytes int) (int, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(c.remaining()/minBytes) {
		return 0, errOversized
	}
	return int(v), nil
}

func (c *cursor) intField() (int, error) {
	v, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt64 {
		return 0, errOversized
	}
	return int(v), nil
}

func (c *cursor) byteField() (byte, error) {
	if c.remaining() < 1 {
		return 0, errTruncated
	}
	b := c.b[c.off]
	c.off++
	return b, nil
}

func (c *cursor) take(n int) ([]byte, error) {
	if n < 0 || c.remaining() < n {
		return nil, errOversized
	}
	p := c.b[c.off : c.off+n]
	c.off += n
	return p, nil
}

func (c *cursor) string() (string, error) {
	n, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(c.remaining()) {
		return "", errOversized
	}
	p, err := c.take(int(n))
	if err != nil {
		return "", err
	}
	return string(p), nil
}

func (c *cursor) bool() (bool, error) {
	b, err := c.byteField()
	return b != 0, err
}

func (c *cursor) value(depth int) (any, error) {
	if depth > maxValueDepth {
		return nil, errTooDeep
	}
	tag, err := c.byteField()
	if err != nil {
		return nil, err
	}
	switch tag {
	case vNil:
		return nil, nil
	case vFalse:
		return false, nil
	case vTrue:
		return true, nil
	case vInt:
		v, err := c.varint()
		return int(v), err
	case vUint:
		return c.uvarint()
	case vFloat:
		p, err := c.take(8)
		if err != nil {
			return nil, err
		}
		return math.Float64frombits(binary.LittleEndian.Uint64(p)), nil
	case vString:
		return c.string()
	case vBytes:
		n, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(c.remaining()) {
			return nil, errOversized
		}
		p, err := c.take(int(n))
		if err != nil {
			return nil, err
		}
		// Copy out: the payload buffer is reused for the next frame.
		out := make([]byte, len(p))
		copy(out, p)
		return out, nil
	case vList:
		n, err := c.count(1)
		if err != nil {
			return nil, err
		}
		out := make([]any, 0, n)
		for i := 0; i < n; i++ {
			v, err := c.value(depth + 1)
			if err != nil {
				return nil, err
			}
			out = append(out, v)
		}
		return out, nil
	case vMap:
		n, err := c.count(2)
		if err != nil {
			return nil, err
		}
		out := make(map[string]any, n)
		for i := 0; i < n; i++ {
			k, err := c.string()
			if err != nil {
				return nil, err
			}
			v, err := c.value(depth + 1)
			if err != nil {
				return nil, err
			}
			out[k] = v
		}
		return out, nil
	case vJSON:
		n, err := c.uvarint()
		if err != nil {
			return nil, err
		}
		if n > uint64(c.remaining()) {
			return nil, errOversized
		}
		p, err := c.take(int(n))
		if err != nil {
			return nil, err
		}
		var v any
		if err := json.Unmarshal(p, &v); err != nil {
			return nil, fmt.Errorf("wire: embedded JSON value: %w", err)
		}
		return v, nil
	default:
		return nil, errBadTag
	}
}

func (c *cursor) values() ([]any, error) {
	n, err := c.count(1)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]any, 0, n)
	for i := 0; i < n; i++ {
		v, err := c.value(0)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func (c *cursor) errInfo() (*ErrInfo, error) {
	present, err := c.byteField()
	if err != nil {
		return nil, err
	}
	if present == 0 {
		return nil, nil
	}
	e := &ErrInfo{}
	code, err := c.byteField()
	if err != nil {
		return nil, err
	}
	if code == 0 {
		if e.Code, err = c.string(); err != nil {
			return nil, err
		}
	} else if s, ok := errCodeStrings[code]; ok {
		e.Code = s
	} else {
		e.Code = CodeOther
	}
	if e.Msg, err = c.string(); err != nil {
		return nil, err
	}
	if e.Script, err = c.string(); err != nil {
		return nil, err
	}
	if e.Performance, err = c.intField(); err != nil {
		return nil, err
	}
	if e.Culprit, err = c.string(); err != nil {
		return nil, err
	}
	if e.Reason, err = c.string(); err != nil {
		return nil, err
	}
	if e.Role, err = c.string(); err != nil {
		return nil, err
	}
	ms, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if ms > math.MaxInt64 {
		return nil, errOversized
	}
	e.RetryAfterMS = int64(ms)
	return e, nil
}

// ParsePayload decodes one frame payload: the binary envelope and body. ver
// must be MaxVersion; there is no other payload codec. The returned message
// is a pointer to the concrete struct for t (*Send, *OpResult, ...), fully
// copied out of payload — the caller may reuse the payload buffer
// immediately.
func ParsePayload(ver int, t MsgType, payload []byte) (stream, seq uint64, m any, err error) {
	if ver != MaxVersion {
		return 0, 0, nil, errVersion(ver)
	}
	c := &cursor{b: payload}
	if stream, err = c.uvarint(); err != nil {
		return 0, 0, nil, err
	}
	if seq, err = c.uvarint(); err != nil {
		return 0, 0, nil, err
	}
	m, err = parseBody(c, t)
	if err != nil {
		return 0, 0, nil, err
	}
	if c.remaining() != 0 {
		return 0, 0, nil, errTrailing
	}
	return stream, seq, m, nil
}

func parseBody(c *cursor, t MsgType) (any, error) {
	switch t {
	case MsgEnroll:
		return parseEnroll(c)
	case MsgOfferAck:
		m := &OfferAck{}
		var err error
		if m.Performance, err = c.intField(); err != nil {
			return nil, err
		}
		if m.Role, err = c.string(); err != nil {
			return nil, err
		}
		if c.remaining() > 0 { // optional trailing trace ID
			if m.TraceID, err = c.string(); err != nil {
				return nil, err
			}
		}
		return m, nil
	case MsgSend:
		m := &Send{}
		var err error
		if m.To, err = c.string(); err != nil {
			return nil, err
		}
		if m.Tag, err = c.string(); err != nil {
			return nil, err
		}
		if m.Val, err = c.value(0); err != nil {
			return nil, err
		}
		return m, nil
	case MsgSendAll:
		m := &SendAll{}
		n, err := c.count(1)
		if err != nil {
			return nil, err
		}
		m.Tos = make([]string, 0, n)
		for i := 0; i < n; i++ {
			to, err := c.string()
			if err != nil {
				return nil, err
			}
			m.Tos = append(m.Tos, to)
		}
		if m.Val, err = c.value(0); err != nil {
			return nil, err
		}
		return m, nil
	case MsgRecv, MsgRecvAny:
		m := &Recv{}
		var err error
		if m.From, err = c.string(); err != nil {
			return nil, err
		}
		if m.Tag, err = c.string(); err != nil {
			return nil, err
		}
		return m, nil
	case MsgSelect:
		m := &Select{}
		n, err := c.count(4)
		if err != nil {
			return nil, err
		}
		m.Branches = make([]SelectBranch, 0, n)
		for i := 0; i < n; i++ {
			var br SelectBranch
			flags, err := c.byteField()
			if err != nil {
				return nil, err
			}
			br.Send = flags&1 != 0
			br.AnyPeer = flags&2 != 0
			if br.Peer, err = c.string(); err != nil {
				return nil, err
			}
			if br.Tag, err = c.string(); err != nil {
				return nil, err
			}
			if br.Index, err = c.intField(); err != nil {
				return nil, err
			}
			if br.Send {
				if br.Val, err = c.value(0); err != nil {
					return nil, err
				}
			}
			m.Branches = append(m.Branches, br)
		}
		return m, nil
	case MsgQuery:
		m := &Query{}
		var err error
		if m.Kind, err = c.string(); err != nil {
			return nil, err
		}
		if m.Role, err = c.string(); err != nil {
			return nil, err
		}
		if m.Name, err = c.string(); err != nil {
			return nil, err
		}
		return m, nil
	case MsgBodyDone:
		m := &BodyDone{}
		var err error
		if m.Results, err = c.values(); err != nil {
			return nil, err
		}
		if m.Err, err = c.errInfo(); err != nil {
			return nil, err
		}
		return m, nil
	case MsgOpResult:
		m := &OpResult{}
		var err error
		if m.Val, err = c.value(0); err != nil {
			return nil, err
		}
		if m.Peer, err = c.string(); err != nil {
			return nil, err
		}
		if m.Tag, err = c.string(); err != nil {
			return nil, err
		}
		if m.Index, err = c.intField(); err != nil {
			return nil, err
		}
		if m.N, err = c.intField(); err != nil {
			return nil, err
		}
		if m.Bool, err = c.bool(); err != nil {
			return nil, err
		}
		if m.Err, err = c.errInfo(); err != nil {
			return nil, err
		}
		return m, nil
	case MsgComplete:
		m := &Complete{}
		var err error
		if m.Performance, err = c.intField(); err != nil {
			return nil, err
		}
		if m.Role, err = c.string(); err != nil {
			return nil, err
		}
		if m.Values, err = c.values(); err != nil {
			return nil, err
		}
		if m.Err, err = c.errInfo(); err != nil {
			return nil, err
		}
		return m, nil
	case MsgAbort:
		m := &Abort{}
		var err error
		if m.Performance, err = c.intField(); err != nil {
			return nil, err
		}
		if m.Culprit, err = c.string(); err != nil {
			return nil, err
		}
		if m.Reason, err = c.string(); err != nil {
			return nil, err
		}
		return m, nil
	case MsgDrain:
		return &Drain{}, nil
	case MsgHeartbeat:
		return &Heartbeat{}, nil
	case MsgCancel:
		return &Cancel{}, nil
	case MsgResume:
		m := &Resume{}
		var err error
		if m.Token, err = c.string(); err != nil {
			return nil, err
		}
		if m.RecvCount, err = c.uvarint(); err != nil {
			return nil, err
		}
		return m, nil
	case MsgResumeAck:
		m := &ResumeAck{}
		var err error
		if m.RecvCount, err = c.uvarint(); err != nil {
			return nil, err
		}
		return m, nil
	case MsgAck:
		m := &Ack{}
		var err error
		if m.Count, err = c.uvarint(); err != nil {
			return nil, err
		}
		return m, nil
	case MsgBye:
		return &Bye{}, nil
	case MsgError:
		m := &ProtoError{}
		var err error
		if m.Msg, err = c.string(); err != nil {
			return nil, err
		}
		return m, nil
	default:
		return nil, fmt.Errorf("wire: %s has no v2 encoding", t)
	}
}

func parseEnroll(c *cursor) (*Enroll, error) {
	m := &Enroll{}
	var err error
	if m.PID, err = c.string(); err != nil {
		return nil, err
	}
	if m.Role, err = c.string(); err != nil {
		return nil, err
	}
	ms, err := c.uvarint()
	if err != nil {
		return nil, err
	}
	if ms > math.MaxInt64 {
		return nil, errOversized
	}
	m.DeadlineMS = int64(ms)
	if m.Args, err = c.values(); err != nil {
		return nil, err
	}
	n, err := c.count(2)
	if err != nil {
		return nil, err
	}
	if n > 0 {
		m.With = make(map[string][]string, n)
		for i := 0; i < n; i++ {
			role, err := c.string()
			if err != nil {
				return nil, err
			}
			np, err := c.count(1)
			if err != nil {
				return nil, err
			}
			pids := make([]string, 0, np)
			for j := 0; j < np; j++ {
				pid, err := c.string()
				if err != nil {
					return nil, err
				}
				pids = append(pids, pid)
			}
			m.With[role] = pids
		}
	}
	if c.remaining() > 0 { // optional trailing trace ID
		if m.TraceID, err = c.string(); err != nil {
			return nil, err
		}
	}
	return m, nil
}
