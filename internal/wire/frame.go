package wire

import (
	"encoding/binary"
	"fmt"
	"math"

	"dssp/internal/sqlparse"
	"dssp/internal/template"
)

// Frame encoding: every sealed envelope on an HTTP hop — client→router,
// router→node, node→home, node→replica, and the home's replica stream —
// travels as exactly one frame. Like the value encoding it is canonical:
// decoders take minimal uvarints only, bound every count by the input
// left, reject trailing bytes, and copy everything they return out of
// the input, so any accepted frame re-encodes to exactly its bytes.
//
// Wire grammar (value, plist and result as in values.go):
//
//	frame        = byte(kind) uvarint(len) body   (len = len(body), nothing follows)
//	body         = query            (kind 0x01)
//	             | update           (kind 0x02)
//	             | sealedResult bool(hit)                            (0x03 query response)
//	             | uint(affected) uint(invalidated) uvarint(seq)     (0x04 update response)
//	             | uint(invalidated)                                 (0x05 invalidate response)
//	             | sealedResult bool(empty) uint(scanned)            (0x06 exec query response)
//	             | uint(affected) uvarint(seq)                       (0x07 exec update response)
//	             | uvarint(n) { uvarint(seq) update }*               (0x08 replica apply)
//	             | uvarint(applied)                                  (0x09 replica apply response)
//	query        = str(traceID) str(parentSpan) sealedQuery
//	update       = str(traceID) str(parentSpan) sealedUpdate
//	sealedQuery  = stmt str(key) str(opaque)
//	sealedUpdate = stmt str(opaque)
//	stmt         = byte(exposure) str(templateID) uint(group) plist
//	sealedResult = 0x00                      (none)
//	             | 0x01 str(cipher)          (non-empty ciphertext)
//	             | 0x02 str(result)          (view-exposure plaintext)
//	bool         = 0x00 | 0x01
//	uint         = uvarint, at most 2^31-1
//	str          = uvarint(len) bytes
//
// Empty and nil byte strings, parameter lists, and result rows encode
// alike and decode as nil; an empty cipher is no cipher.

// frameKind tags a frame with the envelope it carries.
type frameKind byte

const (
	frameQuery frameKind = iota + 1
	frameUpdate
	frameQueryResponse
	frameUpdateResponse
	frameInvalidateResponse
	frameExecQueryResponse
	frameExecUpdateResponse
	frameReplicaApply
	frameReplicaApplyResponse
)

// QueryResponse is the node's (or router's) answer to a sealed query.
type QueryResponse struct {
	Result SealedResult
	Hit    bool
}

// UpdateResponse is the node's answer to a sealed update. Seq is the
// update's confirmed sequence in the home server's serialization order.
type UpdateResponse struct {
	Affected    int
	Invalidated int
	Seq         uint64
}

// InvalidateResponse is the node's answer to a fanned-out invalidation:
// the update was confirmed elsewhere and this node only monitored it.
type InvalidateResponse struct {
	Invalidated int
}

// ExecQueryResponse is the home server's (or a replica's) answer to a
// forwarded query.
type ExecQueryResponse struct {
	Result  SealedResult
	Empty   bool
	Scanned int
}

// ExecUpdateResponse is the home server's answer to a forwarded update.
type ExecUpdateResponse struct {
	Affected int
	Seq      uint64
}

// Confirmed is one update that has passed the home server's monitoring
// gate: applied to the master database at position Seq and confirmed to
// the DSSP tier — one element of the stream a read replica replays.
type Confirmed struct {
	Seq    uint64
	Update SealedUpdate
}

// ReplicaApplyRequest is one confirmed-update batch pushed from the
// primary's hub to a replica.
type ReplicaApplyRequest struct {
	Batch []Confirmed
}

// ReplicaApplyResponse acknowledges an apply push with the replica's
// applied watermark — which may be behind the batch's tail if earlier
// sequences are still missing (the replica buffers the gap; the hub
// resends from the acknowledged point).
type ReplicaApplyResponse struct {
	Applied uint64
}

// AppendFrame appends the query frame.
func (sq SealedQuery) AppendFrame(dst []byte) []byte {
	dst, start := beginFrame(dst, frameQuery)
	return endLen(appendQuery(dst, &sq), start)
}

// DecodeFrame decodes a query frame into sq.
func (sq *SealedQuery) DecodeFrame(b []byte) error {
	body, err := openFrame(b, frameQuery)
	if err != nil {
		return err
	}
	q, rest, err := decodeQuery(body)
	if err != nil || len(rest) != 0 {
		return ErrMalformed
	}
	*sq = q
	return nil
}

// AppendFrame appends the update frame.
func (su SealedUpdate) AppendFrame(dst []byte) []byte {
	dst, start := beginFrame(dst, frameUpdate)
	return endLen(appendUpdate(dst, &su), start)
}

// DecodeFrame decodes an update frame into su.
func (su *SealedUpdate) DecodeFrame(b []byte) error {
	body, err := openFrame(b, frameUpdate)
	if err != nil {
		return err
	}
	u, rest, err := decodeUpdate(body)
	if err != nil || len(rest) != 0 {
		return ErrMalformed
	}
	*su = u
	return nil
}

// AppendFrame appends the query-response frame.
func (m QueryResponse) AppendFrame(dst []byte) []byte {
	dst, start := beginFrame(dst, frameQueryResponse)
	dst = appendSealedResult(dst, &m.Result)
	return endLen(appendBool(dst, m.Hit), start)
}

// DecodeFrame decodes a query-response frame into m.
func (m *QueryResponse) DecodeFrame(b []byte) error {
	d := openFields(b, frameQueryResponse)
	return finish(&d, m, QueryResponse{Result: d.result(), Hit: d.bool()})
}

// AppendFrame appends the update-response frame.
func (m UpdateResponse) AppendFrame(dst []byte) []byte {
	dst, start := beginFrame(dst, frameUpdateResponse)
	dst = binary.AppendUvarint(dst, uint64(m.Affected))
	dst = binary.AppendUvarint(dst, uint64(m.Invalidated))
	return endLen(binary.AppendUvarint(dst, m.Seq), start)
}

// DecodeFrame decodes an update-response frame into m.
func (m *UpdateResponse) DecodeFrame(b []byte) error {
	d := openFields(b, frameUpdateResponse)
	return finish(&d, m, UpdateResponse{Affected: d.int(), Invalidated: d.int(), Seq: d.uvarint()})
}

// AppendFrame appends the invalidate-response frame.
func (m InvalidateResponse) AppendFrame(dst []byte) []byte {
	dst, start := beginFrame(dst, frameInvalidateResponse)
	return endLen(binary.AppendUvarint(dst, uint64(m.Invalidated)), start)
}

// DecodeFrame decodes an invalidate-response frame into m.
func (m *InvalidateResponse) DecodeFrame(b []byte) error {
	d := openFields(b, frameInvalidateResponse)
	return finish(&d, m, InvalidateResponse{Invalidated: d.int()})
}

// AppendFrame appends the exec-query-response frame.
func (m ExecQueryResponse) AppendFrame(dst []byte) []byte {
	dst, start := beginFrame(dst, frameExecQueryResponse)
	dst = appendSealedResult(dst, &m.Result)
	dst = appendBool(dst, m.Empty)
	return endLen(binary.AppendUvarint(dst, uint64(m.Scanned)), start)
}

// DecodeFrame decodes an exec-query-response frame into m.
func (m *ExecQueryResponse) DecodeFrame(b []byte) error {
	d := openFields(b, frameExecQueryResponse)
	return finish(&d, m, ExecQueryResponse{Result: d.result(), Empty: d.bool(), Scanned: d.int()})
}

// AppendFrame appends the exec-update-response frame.
func (m ExecUpdateResponse) AppendFrame(dst []byte) []byte {
	dst, start := beginFrame(dst, frameExecUpdateResponse)
	dst = binary.AppendUvarint(dst, uint64(m.Affected))
	return endLen(binary.AppendUvarint(dst, m.Seq), start)
}

// DecodeFrame decodes an exec-update-response frame into m.
func (m *ExecUpdateResponse) DecodeFrame(b []byte) error {
	d := openFields(b, frameExecUpdateResponse)
	return finish(&d, m, ExecUpdateResponse{Affected: d.int(), Seq: d.uvarint()})
}

// AppendFrame appends the replica-apply frame.
func (m ReplicaApplyRequest) AppendFrame(dst []byte) []byte {
	dst, start := beginFrame(dst, frameReplicaApply)
	dst = binary.AppendUvarint(dst, uint64(len(m.Batch)))
	for i := range m.Batch {
		dst = binary.AppendUvarint(dst, m.Batch[i].Seq)
		dst = appendUpdate(dst, &m.Batch[i].Update)
	}
	return endLen(dst, start)
}

// DecodeFrame decodes a replica-apply frame into m. An empty batch
// decodes as nil.
func (m *ReplicaApplyRequest) DecodeFrame(b []byte) error {
	body, err := openFrame(b, frameReplicaApply)
	if err != nil {
		return err
	}
	n, body, err := decodeCount(body)
	if err != nil {
		return err
	}
	var batch []Confirmed
	if n > 0 {
		batch = make([]Confirmed, n)
	}
	for i := range batch {
		if batch[i].Seq, body, err = uvarint(body); err != nil {
			return err
		}
		if batch[i].Update, body, err = decodeUpdate(body); err != nil {
			return err
		}
	}
	if len(body) != 0 {
		return ErrMalformed
	}
	m.Batch = batch
	return nil
}

// AppendFrame appends the replica-apply-response frame.
func (m ReplicaApplyResponse) AppendFrame(dst []byte) []byte {
	dst, start := beginFrame(dst, frameReplicaApplyResponse)
	return endLen(binary.AppendUvarint(dst, m.Applied), start)
}

// DecodeFrame decodes a replica-apply-response frame into m.
func (m *ReplicaApplyResponse) DecodeFrame(b []byte) error {
	d := openFields(b, frameReplicaApplyResponse)
	return finish(&d, m, ReplicaApplyResponse{Applied: d.uvarint()})
}

// beginFrame appends the kind tag and reserves the body's length prefix.
func beginFrame(dst []byte, kind frameKind) ([]byte, int) {
	return beginLen(append(dst, byte(kind)))
}

// openFrame checks that b is exactly one frame of the wanted kind and
// returns its body.
func openFrame(b []byte, kind frameKind) ([]byte, error) {
	if len(b) == 0 || frameKind(b[0]) != kind {
		return nil, fmt.Errorf("%w: want frame kind %d", ErrMalformed, kind)
	}
	n, body, err := uvarint(b[1:])
	if err != nil || n != uint64(len(body)) {
		return nil, ErrMalformed
	}
	return body, nil
}

// fieldDecoder reads the fixed fields of a response body in order
// (composite-literal elements evaluate left to right). The first failure
// sticks, so a decoder reads every field unconditionally and checks once
// in finish.
type fieldDecoder struct {
	b   []byte
	err error
}

func openFields(b []byte, kind frameKind) fieldDecoder {
	body, err := openFrame(b, kind)
	return fieldDecoder{b: body, err: err}
}

func (d *fieldDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	var n uint64
	n, d.b, d.err = uvarint(d.b)
	return n
}

func (d *fieldDecoder) int() int {
	if d.err != nil {
		return 0
	}
	var n int
	n, d.b, d.err = decodeInt(d.b)
	return n
}

func (d *fieldDecoder) bool() bool {
	if d.err != nil {
		return false
	}
	if len(d.b) == 0 || d.b[0] > 1 {
		d.err = ErrMalformed
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

func (d *fieldDecoder) result() SealedResult {
	if d.err != nil {
		return SealedResult{}
	}
	var r SealedResult
	r, d.b, d.err = decodeSealedResult(d.b)
	return r
}

// finish stores v into dst when every field decoded and nothing trails.
func finish[T any](d *fieldDecoder, dst *T, v T) error {
	if d.err == nil && len(d.b) != 0 {
		d.err = ErrMalformed
	}
	if d.err != nil {
		return d.err
	}
	*dst = v
	return nil
}

// appendBool appends a canonical boolean byte.
func appendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// decodeInt consumes one uvarint that must fit a non-negative int32 —
// the bound every count, group, and ordinal of the grammar shares, so a
// value decodes identically on every platform.
func decodeInt(b []byte) (int, []byte, error) {
	n, b, err := uvarint(b)
	if err != nil || n > math.MaxInt32 {
		return 0, nil, ErrMalformed
	}
	return int(n), b, nil
}

// appendStmtHeader appends the statement part sealed queries and updates
// share: exposure, template identity, group hint, and parameters.
func appendStmtHeader(dst []byte, exp template.Exposure, templateID string, group int, params []sqlparse.Value) []byte {
	dst = append(dst, byte(exp))
	dst = appendStr(dst, templateID)
	dst = binary.AppendUvarint(dst, uint64(group))
	return appendParamList(dst, params)
}

func decodeStmtHeader(b []byte) (exp template.Exposure, templateID string, group int, params []sqlparse.Value, rest []byte, err error) {
	if len(b) == 0 {
		return 0, "", 0, nil, nil, ErrMalformed
	}
	exp, b = template.Exposure(b[0]), b[1:]
	if templateID, b, err = decodeString(b); err != nil {
		return
	}
	if group, b, err = decodeInt(b); err != nil {
		return
	}
	params, rest, err = decodeParamList(b)
	return
}

// appendSealedQuery appends a sealed query without its trace metadata —
// the form the migration stream carries and the query frame wraps.
func appendSealedQuery(dst []byte, sq *SealedQuery) []byte {
	dst = appendStmtHeader(dst, sq.Exposure, sq.TemplateID, sq.Group, sq.Params)
	dst = appendStr(dst, sq.Key)
	return appendStr(dst, sq.Opaque)
}

func decodeSealedQuery(b []byte) (sq SealedQuery, rest []byte, err error) {
	if sq.Exposure, sq.TemplateID, sq.Group, sq.Params, b, err = decodeStmtHeader(b); err != nil {
		return SealedQuery{}, nil, ErrMalformed
	}
	if sq.Key, b, err = decodeString(b); err != nil {
		return SealedQuery{}, nil, ErrMalformed
	}
	if sq.Opaque, b, err = decodeBytes(b); err != nil {
		return SealedQuery{}, nil, ErrMalformed
	}
	return sq, b, nil
}

// appendQuery appends a query frame body: trace metadata, then the
// sealed query.
func appendQuery(dst []byte, sq *SealedQuery) []byte {
	dst = appendStr(dst, sq.TraceID)
	dst = appendStr(dst, sq.ParentSpan)
	return appendSealedQuery(dst, sq)
}

func decodeQuery(b []byte) (SealedQuery, []byte, error) {
	trace, b, err := decodeString(b)
	if err != nil {
		return SealedQuery{}, nil, ErrMalformed
	}
	parent, b, err := decodeString(b)
	if err != nil {
		return SealedQuery{}, nil, ErrMalformed
	}
	sq, b, err := decodeSealedQuery(b)
	sq.TraceID, sq.ParentSpan = trace, parent
	return sq, b, err
}

// appendUpdate appends an update frame body (also one element of the
// replica-apply batch).
func appendUpdate(dst []byte, su *SealedUpdate) []byte {
	dst = appendStr(dst, su.TraceID)
	dst = appendStr(dst, su.ParentSpan)
	dst = appendStmtHeader(dst, su.Exposure, su.TemplateID, su.Group, su.Params)
	return appendStr(dst, su.Opaque)
}

func decodeUpdate(b []byte) (su SealedUpdate, rest []byte, err error) {
	if su.TraceID, b, err = decodeString(b); err != nil {
		return SealedUpdate{}, nil, ErrMalformed
	}
	if su.ParentSpan, b, err = decodeString(b); err != nil {
		return SealedUpdate{}, nil, ErrMalformed
	}
	if su.Exposure, su.TemplateID, su.Group, su.Params, b, err = decodeStmtHeader(b); err != nil {
		return SealedUpdate{}, nil, ErrMalformed
	}
	if su.Opaque, b, err = decodeBytes(b); err != nil {
		return SealedUpdate{}, nil, ErrMalformed
	}
	return su, b, nil
}

// appendSealedResult appends a tagged sealed result. The view-exposure
// plaintext is length-prefixed in place, with no staging buffer.
func appendSealedResult(dst []byte, sr *SealedResult) []byte {
	switch {
	case len(sr.Cipher) > 0:
		return appendStr(append(dst, 1), sr.Cipher)
	case sr.Result != nil:
		dst, start := beginLen(append(dst, 2))
		return endLen(appendResult(dst, sr.Result), start)
	default:
		return append(dst, 0)
	}
}

func decodeSealedResult(b []byte) (SealedResult, []byte, error) {
	if len(b) == 0 {
		return SealedResult{}, nil, ErrMalformed
	}
	tag, b := b[0], b[1:]
	switch tag {
	case 0:
		return SealedResult{}, b, nil
	case 1:
		cipher, rest, err := decodeBytes(b)
		if err != nil || cipher == nil {
			return SealedResult{}, nil, ErrMalformed // an empty cipher encodes as tag 0
		}
		return SealedResult{Cipher: cipher}, rest, nil
	case 2:
		n, rest, err := uvarint(b)
		if err != nil || n > uint64(len(rest)) {
			return SealedResult{}, nil, ErrMalformed
		}
		res, err := decodeResult(rest[:n])
		if err != nil {
			return SealedResult{}, nil, ErrMalformed
		}
		return SealedResult{Result: res}, rest[n:], nil
	default:
		return SealedResult{}, nil, ErrMalformed
	}
}
