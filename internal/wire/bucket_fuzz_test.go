package wire_test

import (
	"bytes"
	"testing"

	"dssp/internal/apps"
	"dssp/internal/cache"
	"dssp/internal/core"
	"dssp/internal/encrypt"
	"dssp/internal/engine"
	"dssp/internal/invalidate"
	"dssp/internal/sqlparse"
	"dssp/internal/template"
	"dssp/internal/wire"
)

// exportedStreams returns the request and response bodies of real bucket
// migrations: a toystore cache filled at each of the four exposure
// levels (so the seeds cover hidden, template-keyed, parameter-bearing
// and plaintext-result entries), exported through cache.ExportBuckets
// and encoded as the /v1/buckets endpoints carry them.
func exportedStreams(tb testing.TB) (entries, ids [][]byte) {
	tb.Helper()
	app := apps.Toystore()
	analysis := core.Analyze(app, core.DefaultOptions())
	row := &engine.Result{Columns: []string{"v"}, Rows: [][]sqlparse.Value{{sqlparse.IntVal(7)}, {sqlparse.StringVal("bear")}}}
	for _, exp := range []template.Exposure{template.ExpBlind, template.ExpTemplate, template.ExpStmt, template.ExpView} {
		exps := make(map[string]template.Exposure)
		for _, q := range app.Queries {
			exps[q.ID] = exp
		}
		codec := wire.NewCodec(app, encrypt.MustNewKeyring(make([]byte, encrypt.KeySize)), exps)
		c := cache.New(app, invalidate.New(app, analysis), cache.Options{Capacity: 64})
		for i := int64(0); i < 3; i++ {
			for _, q := range app.Queries {
				param := sqlparse.IntVal(i)
				if q.ID != "Q2" {
					param = sqlparse.StringVal("p" + string(rune('a'+i)))
				}
				sq, err := codec.SealQuery(q, []sqlparse.Value{param})
				if err != nil {
					tb.Fatal(err)
				}
				c.Store(sq, codec.SealResult(q, row), false)
			}
		}
		bucketIDs := []string{""}
		for _, q := range app.Queries {
			bucketIDs = append(bucketIDs, q.ID)
		}
		exported := c.ExportBuckets(bucketIDs)
		if len(exported) == 0 {
			tb.Fatalf("%v: nothing exported", exp)
		}
		entries = append(entries, wire.AppendBucketEntries(nil, exported))
		ids = append(ids, wire.AppendTemplateIDs(nil, bucketIDs))
	}
	return entries, ids
}

// FuzzDecodeBucketEntries: the migration stream decoder behind
// /v1/buckets/import never panics on hostile input, and any stream it
// accepts re-encodes to exactly itself.
func FuzzDecodeBucketEntries(f *testing.F) {
	entries, _ := exportedStreams(f)
	f.Add([]byte{})
	f.Add(wire.AppendBucketEntries(nil, nil))
	for _, s := range entries {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := wire.DecodeBucketEntries(b)
		if err != nil {
			return
		}
		if re := wire.AppendBucketEntries(nil, got); !bytes.Equal(re, b) {
			t.Fatalf("accepted stream is not canonical:\n in: %x\nout: %x", b, re)
		}
	})
}

// FuzzDecodeTemplateIDs: the template-ID list decoder behind
// /v1/buckets/export and /v1/buckets/drop, under the same contract.
func FuzzDecodeTemplateIDs(f *testing.F) {
	_, ids := exportedStreams(f)
	f.Add([]byte{})
	f.Add(wire.AppendTemplateIDs(nil, nil))
	for _, s := range ids {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := wire.DecodeTemplateIDs(b)
		if err != nil {
			return
		}
		if re := wire.AppendTemplateIDs(nil, got); !bytes.Equal(re, b) {
			t.Fatalf("accepted list is not canonical:\n in: %x\nout: %x", b, re)
		}
	})
}
