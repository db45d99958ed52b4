package wire

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"dssp/internal/engine"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
)

// Frame is what every envelope's value type implements.
type Frame interface {
	AppendFrame(dst []byte) []byte
}

// frameCodec is the method pair every envelope implements, on its
// pointer type.
type frameCodec[T any] interface {
	*T
	AppendFrame(dst []byte) []byte
	DecodeFrame(b []byte) error
}

var allExposures = []template.Exposure{template.ExpBlind, template.ExpTemplate, template.ExpStmt, template.ExpView}

// sealedFixtures seals real messages at every exposure: a query, an
// update (updates cap at stmt), and the query's result, with trace
// metadata set the way a client and node set it.
func sealedFixtures(t testing.TB) (qs []SealedQuery, us []SealedUpdate, rs []SealedResult) {
	t.Helper()
	params := []sqlparse.Value{sqlparse.IntVal(5)}
	res := &engine.Result{
		Columns:     []string{"toy_id", "toy_name", "qty"},
		Rows:        [][]sqlparse.Value{{sqlparse.IntVal(5), sqlparse.StringVal("kite"), sqlparse.FloatVal(2.5)}, {sqlparse.IntVal(6), sqlparse.Null(), sqlparse.IntVal(-1)}},
		RowsScanned: 4,
	}
	for _, exp := range allExposures {
		c, app := testCodec(t, map[string]template.Exposure{"Q2": exp, "U1": exp})
		sq, err := c.SealQuery(app.Query("Q2"), params)
		if err != nil {
			t.Fatal(err)
		}
		sq.ParentSpan = "span-1"
		su, err := c.SealUpdate(app.Update("U1"), params)
		if err != nil {
			t.Fatal(err)
		}
		su.ParentSpan = "span-2"
		qs, us = append(qs, sq), append(us, su)
		rs = append(rs, c.SealResult(app.Query("Q2"), res))
	}
	return qs, us, rs
}

// frameFixtures is one value of every envelope kind, built from the
// sealed fixtures.
func frameFixtures(t testing.TB) []Frame {
	qs, us, rs := sealedFixtures(t)
	var out []Frame
	for i := range qs {
		out = append(out,
			qs[i], us[i],
			QueryResponse{Result: rs[i], Hit: i%2 == 0},
			ExecQueryResponse{Result: rs[i], Empty: i == 1, Scanned: 40 + i},
		)
	}
	batch := make([]Confirmed, len(us))
	for i, su := range us {
		batch[i] = Confirmed{Seq: uint64(i) + 7, Update: su}
	}
	return append(out,
		QueryResponse{}, // no result at all
		UpdateResponse{Affected: 1, Invalidated: 300, Seq: 1 << 40},
		InvalidateResponse{Invalidated: 2},
		ExecUpdateResponse{Affected: 3, Seq: 9},
		ReplicaApplyRequest{Batch: batch},
		ReplicaApplyRequest{},
		ReplicaApplyResponse{Applied: 12},
	)
}

// decodeAs decodes b into a fresh value of f's dynamic type.
func decodeAs(t testing.TB, f Frame, b []byte) (Frame, error) {
	t.Helper()
	p := reflect.New(reflect.TypeOf(f))
	err := p.Interface().(interface{ DecodeFrame([]byte) error }).DecodeFrame(b)
	return p.Elem().Interface().(Frame), err
}

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range frameFixtures(t) {
		enc := f.AppendFrame(nil)
		got, err := decodeAs(t, f, enc)
		if err != nil {
			t.Fatalf("%T: %v", f, err)
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("%T round trip diverged:\n got: %+v\nwant: %+v", f, got, f)
		}
		if re := got.AppendFrame(nil); !bytes.Equal(re, enc) {
			t.Fatalf("%T re-encodes differently", f)
		}
		// Decoded values own their memory: the handlers recycle the body
		// buffer right after decoding.
		for i := range enc {
			enc[i] = 0xAA
		}
		if !reflect.DeepEqual(got, f) {
			t.Fatalf("%T decoded value aliases the frame", f)
		}
	}
}

// TestFrameAppendsToPrefix: frames append after existing bytes, and a
// body long enough to need a multi-byte length prefix shifts into place.
func TestFrameAppendsToPrefix(t *testing.T) {
	long := SealedUpdate{Exposure: template.ExpStmt, TemplateID: "U1", Opaque: bytes.Repeat([]byte{7}, 70000)}
	for _, f := range []Frame{long, InvalidateResponse{Invalidated: 1}} {
		enc := f.AppendFrame([]byte("prefix"))
		if string(enc[:6]) != "prefix" {
			t.Fatalf("%T overwrote the prefix", f)
		}
		got, err := decodeAs(t, f, enc[6:])
		if err != nil || !reflect.DeepEqual(got, f) {
			t.Fatalf("%T after prefix: %v", f, err)
		}
	}
}

// TestFrameNilVersusEmpty pins how empty containers decode: nil and empty
// encode to the same bytes and both decode as nil (an empty cipher is no
// cipher at all). The adapter parity suites compare HTTP against the
// in-process transport, so this is the behaviour they rely on.
func TestFrameNilVersusEmpty(t *testing.T) {
	cases := []struct {
		name       string
		nilV, empV Frame
		want       Frame
	}{
		{"Opaque+Params",
			SealedQuery{Exposure: template.ExpStmt, TemplateID: "Q1"},
			SealedQuery{Exposure: template.ExpStmt, TemplateID: "Q1", Params: []sqlparse.Value{}, Opaque: []byte{}},
			SealedQuery{Exposure: template.ExpStmt, TemplateID: "Q1"}},
		{"update Opaque+Params",
			SealedUpdate{TemplateID: "U1"},
			SealedUpdate{TemplateID: "U1", Params: []sqlparse.Value{}, Opaque: []byte{}},
			SealedUpdate{TemplateID: "U1"}},
		{"Cipher",
			QueryResponse{Hit: true},
			QueryResponse{Result: SealedResult{Cipher: []byte{}}, Hit: true},
			QueryResponse{Hit: true}},
		{"Rows+Columns",
			ExecQueryResponse{Result: SealedResult{Result: &engine.Result{}}},
			ExecQueryResponse{Result: SealedResult{Result: &engine.Result{Columns: []string{}, Rows: [][]sqlparse.Value{}}}},
			ExecQueryResponse{Result: SealedResult{Result: &engine.Result{}}}},
		{"Batch",
			ReplicaApplyRequest{},
			ReplicaApplyRequest{Batch: []Confirmed{}},
			ReplicaApplyRequest{}},
	}
	for _, c := range cases {
		a, b := c.nilV.AppendFrame(nil), c.empV.AppendFrame(nil)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: nil and empty encode differently", c.name)
		}
		got, err := decodeAs(t, c.want, b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: decoded %+v, want %+v", c.name, got, c.want)
		}
	}
}

func TestFrameRejectsMalformed(t *testing.T) {
	for _, f := range frameFixtures(t) {
		enc := f.AppendFrame(nil)
		bad := map[string][]byte{
			"empty":    nil,
			"trailing": append(append([]byte(nil), enc...), 0),
			"kind":     append([]byte{enc[0] ^ 0x10}, enc[1:]...),
		}
		for _, cut := range []int{1, len(enc) / 2, len(enc) - 1} {
			bad[fmt.Sprintf("truncated at %d", cut)] = enc[:cut]
		}
		for name, b := range bad {
			if _, err := decodeAs(t, f, b); !errors.Is(err, ErrMalformed) {
				t.Errorf("%T %s: err = %v, want ErrMalformed", f, name, err)
			}
		}
	}
	for name, b := range map[string][]byte{
		// kind, length 1 written non-minimally as 0x81 0x00, then the body.
		"non-minimal length": {byte(frameInvalidateResponse), 0x81, 0x00, 0x01},
		// body length claims one byte past the end.
		"long length": {byte(frameInvalidateResponse), 2, 1},
		// result tag 0, then hit = 2.
		"bool 2": {byte(frameQueryResponse), 2, 0, 2},
		// result tag 1 with an empty cipher, then hit.
		"empty cipher": {byte(frameQueryResponse), 3, 1, 0, 0},
		// result tag 9.
		"result tag": {byte(frameQueryResponse), 2, 9, 0},
	} {
		var v QueryResponse
		var iv InvalidateResponse
		var err error
		if b[0] == byte(frameQueryResponse) {
			err = v.DecodeFrame(b)
		} else {
			err = iv.DecodeFrame(b)
		}
		if !errors.Is(err, ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", name, err)
		}
	}
}

// fuzzCanonical is the shared body of the frame fuzz targets: decoding
// never panics, and any accepted input re-encodes to exactly itself.
func fuzzCanonical[T any, P frameCodec[T]](f *testing.F, seeds []Frame) {
	f.Add([]byte{})
	for _, s := range seeds {
		if _, ok := s.(T); ok {
			f.Add(s.AppendFrame(nil))
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var v T
		if P(&v).DecodeFrame(b) != nil {
			return
		}
		if re := P(&v).AppendFrame(nil); !bytes.Equal(re, b) {
			t.Fatalf("accepted frame is not canonical:\n in: %x\nout: %x", b, re)
		}
	})
}

func FuzzDecodeQueryFrame(f *testing.F) {
	fuzzCanonical[SealedQuery](f, frameFixtures(f))
}

func FuzzDecodeUpdateFrame(f *testing.F) {
	fuzzCanonical[SealedUpdate](f, frameFixtures(f))
}

func FuzzDecodeQueryResponseFrame(f *testing.F) {
	fuzzCanonical[QueryResponse](f, frameFixtures(f))
}

func FuzzDecodeUpdateResponseFrame(f *testing.F) {
	fuzzCanonical[UpdateResponse](f, frameFixtures(f))
}

func FuzzDecodeInvalidateResponseFrame(f *testing.F) {
	fuzzCanonical[InvalidateResponse](f, frameFixtures(f))
}

func FuzzDecodeExecQueryResponseFrame(f *testing.F) {
	fuzzCanonical[ExecQueryResponse](f, frameFixtures(f))
}

func FuzzDecodeExecUpdateResponseFrame(f *testing.F) {
	fuzzCanonical[ExecUpdateResponse](f, frameFixtures(f))
}

func FuzzDecodeReplicaApplyFrame(f *testing.F) {
	fuzzCanonical[ReplicaApplyRequest](f, frameFixtures(f))
}

func FuzzDecodeReplicaApplyResponseFrame(f *testing.F) {
	fuzzCanonical[ReplicaApplyResponse](f, frameFixtures(f))
}
