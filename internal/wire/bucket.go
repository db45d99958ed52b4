package wire

import "encoding/binary"

// Migration stream encoding: when ring membership changes, the moved
// template buckets' sealed entries travel from their old owner to the
// new one. Everything in a BucketEntry is material the exporting node
// already held — ciphertext, deterministic tokens, and routing metadata
// — so migration needs no keys and leaks nothing a node compromise
// would not already leak. Trace metadata (TraceID/ParentSpan) is
// per-request observability and deliberately does not travel.
//
// Wire grammar (reusing the canonical value encoding of values.go and
// the sealed-message encodings of frame.go):
//
//	entries = uvarint(n) entry*
//	entry   = sealedQuery sealedResult uvarint(ordinal)
//	ids     = uvarint(n) str*

// BucketEntry is one sealed cache entry in flight between nodes during a
// ring rebalance. Ordinal is the entry's LRU recency rank among the
// exported set — lower is least recently used — so the importing node
// can rebuild the same eviction order.
type BucketEntry struct {
	Query   SealedQuery
	Result  SealedResult
	Ordinal int
}

// AppendBucketEntries appends the migration encoding of entries to dst.
func AppendBucketEntries(dst []byte, entries []BucketEntry) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for i := range entries {
		e := &entries[i]
		dst = appendSealedQuery(dst, &e.Query)
		dst = appendSealedResult(dst, &e.Result)
		dst = binary.AppendUvarint(dst, uint64(e.Ordinal))
	}
	return dst
}

// DecodeBucketEntries decodes a migration stream. Everything returned is
// freshly allocated — nothing aliases b.
func DecodeBucketEntries(b []byte) ([]BucketEntry, error) {
	n, b, err := decodeCount(b)
	if err != nil {
		return nil, ErrMalformed
	}
	entries := make([]BucketEntry, n)
	for i := range entries {
		e := &entries[i]
		if e.Query, b, err = decodeSealedQuery(b); err != nil {
			return nil, err
		}
		if e.Result, b, err = decodeSealedResult(b); err != nil {
			return nil, err
		}
		if e.Ordinal, b, err = decodeInt(b); err != nil {
			return nil, err
		}
	}
	if len(b) != 0 {
		return nil, ErrMalformed // trailing bytes: not a canonical encoding
	}
	return entries, nil
}

// AppendTemplateIDs appends a template-ID list (an export request body).
func AppendTemplateIDs(dst []byte, ids []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = appendStr(dst, id)
	}
	return dst
}

// DecodeTemplateIDs decodes a template-ID list.
func DecodeTemplateIDs(b []byte) ([]string, error) {
	n, b, err := decodeCount(b)
	if err != nil {
		return nil, ErrMalformed
	}
	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		var id string
		if id, b, err = decodeString(b); err != nil {
			return nil, ErrMalformed
		}
		ids = append(ids, id)
	}
	if len(b) != 0 {
		return nil, ErrMalformed
	}
	return ids, nil
}
